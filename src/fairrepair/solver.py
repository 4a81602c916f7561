"""Selecting the repair amount for a binary protected attribute.

Two routes: bisection on the sign of the objective's exact slope (the
disparity objective is convex in lambda), and a closed form that zeroes the
gap between label-conditioned mean scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ot
from .dataset import MetricCombo, MetricKind, ScoredDataset, _conditional_scores
from .errors import DatasetError, SolverError
from .lex import build_problem
from .ot import EmpiricalDistribution, wasserstein
from .repair import RepairPlan

__all__ = ["LambdaObjective", "LambdaSolution", "objective_eval", "solve_exact", "solve_probabilistic"]


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
    monotone, so the atoms' order, ties and counts do not depend on lam, and
    neither do their quantile levels.  Each nonzero term keeps, per group, the
    lam = 0 distribution and T at its atoms, the merged level partition of the
    pair, and the rate at which each piece's atom difference u moves,
    (T1 - z1)[i1] - (T2 - z2)[i2], all built once here.  An evaluation only
    moves the atoms, gathers their differences on that partition and sums them
    with numpy (no BLAS), so its value does not depend on the BLAS thread count.
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
                d = EmpiricalDistribution.from_samples(plan.domain.normalize(x))
                pair.append((d, plan._full_repair(g, d.atoms)))
            (d1, t1), (d2, t2) = pair
            levels = ot._levels(d1, d2)
            rate = (t1 - d1.atoms)[levels.i1] - (t2 - d2.atoms)[levels.i2]
            self.terms.append((w, pair, levels, rate))

    def __call__(self, lam: float) -> float:
        total = 0.0
        for w, ((d1, t1), (d2, t2)), levels, _ in self.terms:
            total += w * wasserstein(d1._toward(t1, lam), d2._toward(t2, lam), self.p, levels)
        if not math.isfinite(total):
            raise SolverError(f"objective is not finite at lambda={lam}")
        return total

    def slope(self, lam: float) -> float:
        """The derivative at lam over p: the objective sums seg * |u|^p, so this
        sums seg * |u|^(p-1) * sign(u) * rate on the same moved atoms.  Each
        term is w times a number in [-2, 2], never inf * 0, so it is never NaN;
        at a kink of p = 1, sign(0) = 0 puts it between the one-sided slopes."""
        total = 0.0
        for w, ((d1, t1), (d2, t2)), levels, rate in self.terms:
            u = d1._toward(t1, lam).atoms[levels.i1] - d2._toward(t2, lam).atoms[levels.i2]
            total += w * float((levels.seg * np.abs(u) ** (self.p - 1.0) * np.sign(u) * rate).sum())
        return total


def objective_eval(plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, lam: float) -> float:
    """Sum over metric terms of w * W_p^p between the lambda-repaired
    conditional score distributions of the two groups."""
    if not 0.0 <= lam <= 1.0:
        raise DatasetError("lambda must lie in [0, 1]")
    return _RepairPath(plan, ds, obj)(lam)


def _sweep(plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective,
           steps: int) -> tuple[np.ndarray, list[float], int]:
    """The objective on an even lambda grid, and the index of its first minimum."""
    if steps < 2:
        raise DatasetError("grid search needs at least 2 steps")
    path = _RepairPath(plan, ds, obj)
    lams = np.linspace(0.0, 1.0, steps)
    vals = [path(lam) for lam in lams]
    return lams, vals, int(np.argmin(vals))  # argmin returns the first (smallest lambda) tie


def solve_exact(plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective,
                tol: float = 1e-6) -> LambdaSolution:
    """Bisection on the sign of the objective's slope over [0, 1].

    The objective is convex in lambda, so the bracket moves right only where
    the slope is negative, which keeps the smallest minimizer inside it.  It
    stops when narrower than tol, or when float spacing stops it shrinking,
    and returns the end with the lower objective (the smaller lambda on a
    tie), so lambda = 0 and 1 come back exactly.  Evaluations count the
    slopes plus the two ends.  ``fairrepair fit`` uses the default tol.
    """
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise DatasetError(f"tol must be finite and positive, got {tol}")
    path = _RepairPath(plan, ds, obj)
    a, b, width, evals = 0.0, 1.0, math.inf, 2
    while tol < b - a < width:
        width, mid, evals = b - a, 0.5 * (a + b), evals + 1
        a, b = (mid, b) if path.slope(mid) < 0.0 else (a, mid)
    value, lam = min((path(a), a), (path(b), b))  # the lower objective, then the smaller lambda
    return LambdaSolution(lam, value, "exact", evals)


def solve_probabilistic(plan: RepairPlan, ds: ScoredDataset, kind: MetricKind) -> LambdaSolution:
    """Closed-form lambda equalizing the label-conditioned mean scores.

    With normalized means a_g and mean shifts b_g, the repaired mean gap is
    affine in a shared lambda, so lambda = (a_g' - a_g) / (b_g - b_g')
    zeroes it exactly.  The raw value is clamped to [0, 1] with a flag when it
    falls outside; the reported objective is the disparity of the clamped solution.
    """
    _binary_groups(ds)
    prob = build_problem(plan, ds, kind)
    a, b = prob.base_means, prob.mean_shifts
    denom = float(b[0] - b[1])
    if abs(denom) <= 1e-12 * np.ptp(ds.scores) / plan.domain.width:  # 1e-12 of the normalized spread
        raise SolverError("groups are equally shifted on average; the closed-form lambda is undefined")
    raw = float(a[1] - a[0]) / denom
    lam = min(1.0, max(0.0, raw))
    obj = LambdaObjective(MetricCombo(((kind, 1.0),)))
    value = objective_eval(plan, ds, obj, lam)
    return LambdaSolution(lam, value, "probabilistic", 1, clamped=lam != raw)
