"""In-memory spans and the wrappers that record them.

A span is (name, start, end, parent index, job id, attrs).  Spans stay in a
list until the run ends.  Wrappers are installed only for the traced run and
restored in ``finally``; a boundary whose attribute no longer exists is not
wrapped, and its metrics are reported as missing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

NAME, START, END, PARENT, JOB, ATTRS = range(6)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else None
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.job, None])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][END] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Records spans; a disabled tracer runs the same code and records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def set_attrs(self, **attrs) -> None:
        if self.enabled and self.stack:
            self.spans[self.stack[-1]][ATTRS] = attrs

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper


def _lp_wrapper(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(c, A_ub=None, *args, **kwargs):
        with tr.span("lp.linprog"):
            shape = np.shape(A_ub) if A_ub is not None else (0, np.size(c))
            tr.set_attrs(rows=int(shape[0]), cols=int(shape[1]))
            return fn(c, A_ub, *args, **kwargs)

    return wrapper


# Cross-layer boundaries: (module, attribute, span name).
BOUNDARIES = (
    ("fairrepair.lex", "linprog", "lp.linprog"),
    ("fairrepair.solver", "wasserstein", "ot.wasserstein"),
    ("fairrepair.repair", "barycenter_quantile", "ot.barycenter_quantile"),
)

# Public functions the CLI module calls, by the layer that owns them.
CLI_CALLS = (
    ("load_csv", "dataset.load_csv"),
    ("fit_plan", "repair.fit_plan"),
    ("save_plan", "repair.save_plan"),
    ("load_plan", "repair.load_plan"),
    ("solve_exact", "solver.solve_exact"),
    ("objective_eval", "solver.objective_eval"),
    ("build_problem", "lex.build_problem"),
    ("solve_lexicographic", "lex.solve_lexicographic"),
    ("rate_curve", "metrics.rate_curve"),
    ("distributional_disparity", "metrics.distributional_disparity"),
    ("sample", "synth.sample"),
    ("split", "synth.split"),
)


@contextlib.contextmanager
def boundary_wrappers(tr: Tracer, with_cli: bool):
    """Install span wrappers; yields the set of boundary span names installed."""
    saved = []
    installed = set()
    targets = [(importlib.import_module(m), a, n) for m, a, n in BOUNDARIES]
    if with_cli:
        cli = importlib.import_module("fairrepair.cli")
        targets += [(cli, a, n) for a, n in CLI_CALLS]
    try:
        for mod, attr, name in targets:
            if not hasattr(mod, attr):
                continue
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, _lp_wrapper(tr, orig) if name == "lp.linprog" else tr.wrap(name, orig))
            installed.add(name)
        yield installed
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Spans come from one thread and nest, so direct children never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def summarize(spans) -> dict:
    """Per span name: count, total and self seconds."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
    return out
