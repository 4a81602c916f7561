"""Selecting the repair amount for a binary protected attribute.

Three routes: exhaustive grid search, golden-section search (the disparity
objective is convex in lambda, and derivative-free bracketing copes with the
flat stretches empirical data produces), and a closed form that zeroes the
gap between label-conditioned mean scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MetricCombo, MetricKind, ScoredDataset, _conditional_scores
from .errors import DatasetError, SolverError
from .lex import build_problem
from .ot import EmpiricalDistribution, wasserstein
from .repair import RepairPlan

__all__ = [
    "LambdaObjective",
    "LambdaSolution",
    "objective_eval",
    "solve_grid",
    "solve_exact",
    "solve_probabilistic",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LambdaObjective:
    """Weighted disparity objective evaluated along the repair path."""

    combo: MetricCombo
    p: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:  # also rejects NaN
            raise DatasetError(f"order p must be finite and >= 1, got {self.p}")


@dataclass(frozen=True)
class LambdaSolution:
    lambda_star: float
    objective_value: float
    method: str
    evaluations: int
    clamped: bool = False
    raw_lambda: float | None = None

    def to_dict(self) -> dict:
        return {
            "lambda": self.lambda_star,
            "method": self.method,
            "objective": self.objective_value,
            "clamped": self.clamped,
            "evaluations": self.evaluations,
        }


def _binary_groups(ds: ScoredDataset) -> tuple[str, str]:
    if len(ds.groups) != 2:
        raise DatasetError(f"binary solver needs exactly 2 groups, got {len(ds.groups)}")
    return ds.groups[0], ds.groups[1]


class _RepairPath:
    """The objective's conditional distributions along the repair path.

    Partial repair moves a conditional atom z to (1-lam)*z + lam*T(z) with T
    monotone, so the atoms' order, ties and counts do not depend on lam.  Each
    nonzero term keeps, per group, the lam = 0 distribution and T at its atoms;
    an evaluation only moves the atoms.
    """

    def __init__(self, plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective):
        groups = _binary_groups(ds)
        self.p = obj.p
        self.terms = []
        for kind, w in obj.combo.terms:
            if w == 0.0:
                continue
            pair = []
            for g, x in zip(groups, _conditional_scores(ds, kind)):
                x = np.sort(x)
                tz = plan.domain.normalize(plan.total_repair_score(g, x))
                z = plan.domain.normalize(x)
                d = EmpiricalDistribution.from_samples(z)
                pair.append((d, tz[np.searchsorted(z, d.atoms)]))  # T at each atom's first sample
            self.terms.append((w, pair))

    def __call__(self, lam: float) -> float:
        total = 0.0
        for w, ((d1, t1), (d2, t2)) in self.terms:
            total += w * wasserstein(d1._toward(t1, lam), d2._toward(t2, lam), self.p)
        if not math.isfinite(total):
            raise SolverError(f"objective is not finite at lambda={lam}")
        return total


def objective_eval(plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, lam: float) -> float:
    """Sum over metric terms of w * W_p^p between the lambda-repaired
    conditional score distributions of the two groups."""
    if not 0.0 <= lam <= 1.0:
        raise DatasetError("lambda must lie in [0, 1]")
    return _RepairPath(plan, ds, obj)(lam)


def _sweep(
    plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, steps: int
) -> tuple[np.ndarray, list[float], int]:
    """The objective on an even lambda grid, and the index of its first minimum."""
    if steps < 2:
        raise DatasetError("grid search needs at least 2 steps")
    path = _RepairPath(plan, ds, obj)
    lams = np.linspace(0.0, 1.0, steps)
    vals = [path(lam) for lam in lams]
    return lams, vals, int(np.argmin(vals))  # argmin returns the first (smallest lambda) tie


def solve_grid(
    plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, steps: int = 101
) -> LambdaSolution:
    """Evaluate the objective on an even lambda grid; ties go to smaller lambda."""
    lams, vals, best = _sweep(plan, ds, obj, steps)
    return LambdaSolution(float(lams[best]), float(vals[best]), "grid", steps)


def solve_exact(
    plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, tol: float = 1e-6
) -> LambdaSolution:
    """Golden-section search over [0, 1].

    Convexity of the objective along the repair path makes bracketing valid;
    on flat stretches the <= comparison drags the bracket toward smaller
    lambda.  Terminates when the bracket is narrower than tol, or when float
    spacing stops it from shrinking.
    """
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise DatasetError(f"tol must be finite and positive, got {tol}")
    path = _RepairPath(plan, ds, obj)
    evals = 0

    def f(lam: float) -> float:
        nonlocal evals
        evals += 1
        return path(lam)

    a, b, width = 0.0, 1.0, math.inf
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while tol < b - a < width:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    lam = 0.5 * (a + b)
    return LambdaSolution(lam, f(lam), "exact", evals)


def solve_probabilistic(
    plan: RepairPlan, ds: ScoredDataset, kind: MetricKind
) -> LambdaSolution:
    """Closed-form lambda equalizing the label-conditioned mean scores.

    With means a_g and mean shifts b_g, the repaired mean gap is affine in a
    shared lambda, so lambda = (a_g' - a_g) / (b_g - b_g') zeroes it exactly.
    The raw value is clamped to [0, 1] with a flag when it falls outside; the
    reported objective is the disparity of the clamped solution.
    """
    _binary_groups(ds)
    prob = build_problem(plan, ds, kind)
    a, b = prob.base_means, prob.mean_shifts
    denom = float(b[0] - b[1])
    if abs(denom) <= 1e-12 * np.ptp(ds.scores):  # 1e-12 of the scores' spread
        raise SolverError(
            "groups are equally shifted on average; the closed-form lambda is undefined"
        )
    raw = float(a[1] - a[0]) / denom
    lam = min(1.0, max(0.0, raw))
    obj = LambdaObjective(MetricCombo(((kind, 1.0),)))
    value = objective_eval(plan, ds, obj, lam)
    return LambdaSolution(lam, value, "probabilistic", 1, clamped=lam != raw, raw_lambda=raw)
