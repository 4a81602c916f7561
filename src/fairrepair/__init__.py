"""fairrepair: post-process classifier scores so thresholded decisions stay
fair across every choice of decision threshold.

The library fits per-group score distributions, transports them toward their
weighted barycenter (fully or partially), and selects how far to move each
group via convex solvers -- a single repair amount for two groups, a max-min
or lexicographically fair vector for more.
"""

# Each public module's __all__ lists its public names; the package exports their union.
from . import dataset, errors, lex, metrics, ot, repair, solver, synth
from .dataset import *  # noqa: F403
from .errors import *  # noqa: F403
from .lex import *  # noqa: F403
from .metrics import *  # noqa: F403
from .ot import *  # noqa: F403
from .repair import *  # noqa: F403
from .solver import *  # noqa: F403
from .synth import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (dataset, errors, lex, metrics, ot, repair, solver, synth)
           for name in module.__all__]
