"""fairrepair: post-process classifier scores so thresholded decisions stay
fair across every choice of decision threshold.

The library fits per-group score distributions, transports them toward their
weighted barycenter (fully or partially), and selects how far to move each
group via convex solvers -- a single repair amount for two groups, a max-min
or lexicographically fair vector for more.

The package imports lazily: ``import fairrepair`` loads no submodule, and so
no numpy, until a name is first looked up.  That lets the command line choose
how numpy loads (see :mod:`fairrepair.cli`).
"""

import importlib

__version__ = "0.1.0"

# Each public module's __all__ lists its public names; the package exports their union.
_PUBLIC_MODULES = ("dataset", "errors", "lex", "metrics", "ot", "repair", "solver", "synth")


def _export() -> None:
    """Bind every public name here, and their list as ``__all__``."""
    global __all__
    modules = [importlib.import_module(f"{__name__}.{m}") for m in _PUBLIC_MODULES]
    __all__ = [name for module in modules for name in module.__all__]
    globals().update((name, getattr(module, name)) for module in modules for name in module.__all__)


def __getattr__(name: str):
    # ``from fairrepair import cli`` loads the command line before numpy, as ``import fairrepair.cli`` does.
    if name in _PUBLIC_MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _export()
    return sorted(globals())
