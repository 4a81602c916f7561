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

from .dataset import MetricCombo, MetricKind, ScoredDataset, subset_by_label
from .errors import DatasetError, SolverError
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
        if self.p < 1:
            raise DatasetError("order p must be >= 1")


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


class _ConditionalRepairCache:
    """Per-kind conditional scores and their full-repair targets.

    The lambda-repaired conditional distribution of a group is its conditional
    sample pushed through the monotone map (1-lam)*x + lam*T(x), so caching x
    and T(x) once makes each objective evaluation a cheap interpolation.
    """

    def __init__(self, plan: RepairPlan, ds: ScoredDataset):
        self.plan = plan
        self.ds = ds
        self._by_kind: dict[tuple[int | None, str], tuple[np.ndarray, np.ndarray]] = {}

    def arrays(self, kind: MetricKind, group: str) -> tuple[np.ndarray, np.ndarray]:
        key = (kind.label_condition, group)
        if key not in self._by_kind:
            sub = subset_by_label(self.ds, kind)
            x = np.sort(sub.group_scores(group))
            t = self.plan.total_repair_score(group, x)
            z = self.plan.domain.normalize(x)
            tz = self.plan.domain.normalize(t)
            self._by_kind[key] = (z, tz)
        return self._by_kind[key]

    def repaired_dist(self, kind: MetricKind, group: str, lam: float) -> EmpiricalDistribution:
        z, tz = self.arrays(kind, group)
        if z.size < 2:
            raise SolverError(f"group '{group}' has fewer than 2 conditioned rows")
        atoms = np.clip((1.0 - lam) * z + lam * tz, 0.0, 1.0)
        return EmpiricalDistribution.from_samples(atoms)


def _eval_with_cache(cache: _ConditionalRepairCache, obj: LambdaObjective, lam: float) -> float:
    g1, g2 = _binary_groups(cache.ds)
    total = 0.0
    for kind, w in obj.combo.terms:
        if w == 0.0:
            continue
        d1 = cache.repaired_dist(kind, g1, lam)
        d2 = cache.repaired_dist(kind, g2, lam)
        total += w * wasserstein(d1, d2, obj.p)
    if not math.isfinite(total):
        raise SolverError(f"objective is not finite at lambda={lam}")
    return total


def objective_eval(plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, lam: float) -> float:
    """Sum over metric terms of w * W_p^p between the lambda-repaired
    conditional score distributions of the two groups."""
    if not 0.0 <= lam <= 1.0:
        raise DatasetError("lambda must lie in [0, 1]")
    return _eval_with_cache(_ConditionalRepairCache(plan, ds), obj, lam)


def solve_grid(
    plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, steps: int = 101
) -> LambdaSolution:
    """Evaluate the objective on an even lambda grid; ties go to smaller lambda."""
    if steps < 2:
        raise DatasetError("grid search needs at least 2 steps")
    cache = _ConditionalRepairCache(plan, ds)
    lams = np.linspace(0.0, 1.0, steps)
    vals = np.array([_eval_with_cache(cache, obj, lam) for lam in lams])
    best = int(np.argmin(vals))  # argmin returns the first (smallest lambda) tie
    return LambdaSolution(float(lams[best]), float(vals[best]), "grid", steps)


def solve_exact(
    plan: RepairPlan, ds: ScoredDataset, obj: LambdaObjective, tol: float = 1e-6
) -> LambdaSolution:
    """Golden-section search over [0, 1].

    Convexity of the objective along the repair path makes bracketing valid;
    on flat stretches the <= comparison drags the bracket toward smaller
    lambda.  Terminates when the bracket is narrower than tol.
    """
    if tol <= 0:
        raise DatasetError("tol must be positive")
    cache = _ConditionalRepairCache(plan, ds)
    evals = 0

    def f(lam: float) -> float:
        nonlocal evals
        evals += 1
        return _eval_with_cache(cache, obj, lam)

    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
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


def conditional_means_and_shifts(
    plan: RepairPlan, ds: ScoredDataset, kind: MetricKind
) -> tuple[np.ndarray, np.ndarray]:
    """Per group of ``ds``, in order: E[score | cond, g] and E[t(score) | cond, g].

    Original units.  These are the coefficients of the affine repaired mean
    m_g(lam) = a_g + lam * b_g that the closed-form and lexicographic solvers use.
    """
    sub = subset_by_label(ds, kind)
    a = np.empty(len(ds.groups))
    b = np.empty(len(ds.groups))
    for i, g in enumerate(ds.groups):
        x = sub.group_scores(g)
        a[i] = x.mean()
        b[i] = plan.shift(g, x).mean()
    return a, b


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
    a, b = conditional_means_and_shifts(plan, ds, kind)
    denom = float(b[0] - b[1])
    if abs(denom) <= 1e-12:
        raise SolverError(
            "groups are equally shifted on average; the closed-form lambda is undefined"
        )
    raw = float(a[1] - a[0]) / denom
    lam = min(1.0, max(0.0, raw))
    obj = LambdaObjective(MetricCombo(((kind, 1.0),)))
    value = objective_eval(plan, ds, obj, lam)
    return LambdaSolution(lam, value, "probabilistic", 1, clamped=lam != raw, raw_lambda=raw)
