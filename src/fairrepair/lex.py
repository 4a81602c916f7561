"""Max-min and lexicographically fair repair vectors for n >= 2 groups.

The group loss is the sum of absolute gaps between label-conditioned mean
scores, and each group's mean is exactly affine in its own repair amount:
m_g(lam_g) = a_g + lam_g * b_g, a point of the interval I_g between a_g and
a_g + b_g.  Round k minimizes the sum of the k largest losses subject to the
earlier rounds' optima.  Round 1 alone is max-min fairness, an exact LP whose
tie rule, a pull toward lambda = 0, picks the least sum of lambdas among all
max-min optima, often a point not of the clip form below, so it stays an LP.

Rounds 2..n search the clip-form points m_g = clip(c, I_g), one common c;
every lexicographic optimum has that form.  Sketch: m has it unless some
m_g < m_h with m_g free to rise and m_h free to fall.  Move such a pair
together by a small d.  A group at or below m_g, or at or above m_h, keeps its
loss, one between loses 2d, and L_g, L_h change by d(P - Q - M - 2) and
d(Q - P - M - 2): P other groups lie at or below m_g, Q at or above m_h and M
between.  The changes sum to -2d(M + 2), so at most one rises.  If L_g does,
P >= Q + M + 2, so x -> sum_j |x - m_j| rises strictly from m_g to m_h: L_h,
which falls, exceeds L_g and every loss between, and no other loss moves.
Either way the sorted losses fall lexicographically.  Between consecutive
interval ends every L_g and lam_g is affine in c, so each round's optimum, and
among those the least sum of lambdas, lies at an end or where two losses
cross: O(n^3) candidates at most.  Every round is solved on the problem's own
scale, so the lambdas do not depend on the units of the scores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import MetricKind, ScoredDataset, _conditional_scores
from .errors import DatasetError
from .lp import linprog
from .repair import RepairPlan

__all__ = ["LexProblem", "LexSolution", "build_problem", "solve_maxmin", "solve_lexicographic"]


@dataclass(frozen=True)
class LexProblem:
    """Affine conditional-mean model of a repair problem, normalized units.

    ``LexProblem(groups, base_means, mean_shifts)``; :func:`build_problem`
    computes the coefficients from a plan and a labeled dataset.
    """

    groups: tuple[str, ...]
    base_means: np.ndarray   # a_g = E[z | condition, g], z the score normalized onto [0, 1]
    mean_shifts: np.ndarray  # b_g = E[T_g(z) - z | condition, g]

    @property
    def n(self) -> int:
        return len(self.groups)

    def losses(self, lambdas: np.ndarray) -> np.ndarray:
        """L_g = sum over other groups of |m_g - m_j|, with a_g - a_j formed first."""
        a, shift = self.base_means, np.asarray(lambdas, dtype=float) * self.mean_shifts
        return np.abs((a[:, None] - a[None, :]) + (shift[:, None] - shift[None, :])).sum(axis=1)


def build_problem(plan: RepairPlan, ds: ScoredDataset, kind: MetricKind) -> LexProblem:
    """The ``kind``-conditioned means and mean shifts of ``ds``'s groups under ``plan``."""
    if len(ds.groups) < 2:
        raise DatasetError("need at least 2 groups")
    # subset_by_label rejects an empty group; z = normalize(x) lies in [0, 1], so no sum overflows.
    z = [plan.domain.normalize(x) for x in _conditional_scores(ds, kind, min_rows=1)]
    a = np.array([x.mean() for x in z])
    b = np.array([(plan._full_repair(g, x) - x).mean() for g, x in zip(ds.groups, z)])
    return LexProblem(ds.groups, a, b)


@dataclass(frozen=True)
class LexSolution:
    lambdas: dict[str, float]
    epsilons: list[float]
    losses: dict[str, float]
    rounds: list[dict]
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


_PULL = 1e-6  # max-min's pull toward lambda = 0, per unit of the problem's scale: flat optima are deterministic


def _maxmin_lp(prob: LexProblem) -> np.ndarray:
    """Round 1: minimize t, plus _PULL per unit of lambda, with every loss <= t.

    Variables: lambdas (n, in [0,1]), t >= 0 (losses are nonnegative) and
    u_pair >= |m_i - m_j| per unordered pair; L_g is the sum of g's u.

    The pair gaps a_i - a_j and b are divided by the problem's scale
    s = ptp(a) + max|b|, so every pair gap is at most 2, the simplex's
    absolute tolerance is relative to s, and the pull toward lambda = 0 is
    _PULL * s in normalized units.  A gap is formed before it is divided, so
    it rounds relative to itself, not to |a_i| (which an offset can make >> s).
    """
    n = prob.n
    first, second = np.triu_indices(n, 1)  # pairs (i, j) with i < j
    npairs = first.size
    signed = np.eye(n)[first] - np.eye(n)[second]  # pair-group incidence, +1 on i and -1 on j
    s = float(np.ptp(prob.base_means) + np.max(np.abs(prob.mean_shifts))) or 1.0
    b = prob.mean_shifts / s

    # Columns: [lambdas (n) | t | u (npairs)].
    # u_ij >= +-(m_i - m_j):  +-(b_i lam_i - b_j lam_j) - u_ij <= -+(a_i - a_j)
    u_cols = np.hstack([np.zeros((npairs, 1)), -np.eye(npairs)])
    u_rows = np.stack([np.hstack([signed * b, u_cols]), np.hstack([-signed * b, u_cols])], axis=1)
    gap = (prob.base_means[first] - prob.base_means[second]) / s
    # L_g = sum of u over the pairs that contain g;  L_g <= t
    loads = np.hstack([np.zeros((n, n)), -np.ones((n, 1)), np.abs(signed).T])
    cost = np.concatenate([np.full(n, _PULL), [1.0], np.zeros(npairs)])
    # The last n rows are the bounds lam_g <= 1.
    A = np.vstack([u_rows.reshape(2 * npairs, -1), loads, np.eye(n, cost.size)])
    rhs = np.concatenate([np.stack([-gap, gap], axis=1).ravel(), np.zeros(n), np.ones(n)])
    return np.clip(linprog(cost, A, rhs)[:n], 0.0, 1.0)


def _clip_rounds(prob: LexProblem) -> np.ndarray:
    """Row k - 1 is round k's lambdas: of the clip-form candidates least on the
    k largest losses, the one with the least sum of lambdas.  Means are taken
    relative to the least a_g before they are divided by s, as the LP's gaps."""
    n = prob.n
    s = float(np.ptp(prob.base_means) + np.max(np.abs(prob.mean_shifts))) or 1.0
    a, b = (prob.base_means - prob.base_means.min()) / s, prob.mean_shifts / s
    lo, hi = np.minimum(a, a + b), np.maximum(a, a + b)
    # A repeated end adds an empty segment with no crossing, so no dedupe: np.unique imports numpy.ma (ot._union).
    ends = np.sort(np.concatenate([lo, hi]))
    at_ends = np.array([np.abs(m[:, None] - m).sum(axis=1) for m in np.clip(ends[:, None], lo, hi)])
    first, second = np.triu_indices(n, 1)
    diff = at_ends[:, first] - at_ends[:, second]  # L_g - L_h of every pair at every end
    seg, pair = np.nonzero(diff[:-1] * diff[1:] < 0)  # L_g - L_h changes sign inside a segment
    frac = np.concatenate([np.zeros(ends.size), diff[seg, pair] / (diff[seg, pair] - diff[seg + 1, pair])])
    seg = np.concatenate([np.arange(ends.size), seg])
    # Every loss is affine on a segment; the last end is a candidate with a zero step.
    step = np.diff(at_ends, axis=0, append=at_ends[-1:])
    profile = -np.sort(-(at_ends[seg] + frac[:, None] * step[seg]), axis=1)
    c = ends[seg] + frac * np.diff(ends, append=ends[-1])[seg]
    # (c - a) / b is -0.0 where c = a and b < 0; adding 0.0 makes it 0.0, so no sidecar reads -0.0.
    lam = np.clip(np.divide(c[:, None] - a, b, out=np.zeros((c.size, n)), where=b != 0), 0.0, 1.0) + 0.0
    # Tie tolerance, in units of s: a loss sums n - 1 gaps of at most 2, so each of the fewer than
    # 2n roundings in forming it and reading it at a crossing is at most n * eps.  A computed loss
    # is within 2n^2 * eps of its exact value, and two equal in exact arithmetic within 4n^2 * eps.
    tol = 4.0 * n * n * np.finfo(float).eps
    rounds, alive = [], np.ones(c.size, dtype=bool)
    for k in range(n):
        alive &= profile[:, k] <= profile[alive, k].min() + tol
        rounds.append(lam[alive][np.argmin(lam[alive].sum(axis=1))])
    return np.array(rounds)


def _solution(prob: LexProblem, rounds, method: str) -> LexSolution:
    epsilons, trace = [], []
    for k, lam in enumerate(rounds, start=1):
        loss = prob.losses(lam)
        eps_k = float(np.sort(loss)[::-1][:k].sum())  # sum of k largest
        epsilons.append(eps_k)
        lambdas = {g: float(v) for g, v in zip(prob.groups, lam)}
        losses = {g: float(v) for g, v in zip(prob.groups, loss)}
        trace.append({"round": k, "epsilon": eps_k, "lambdas": lambdas, "losses": losses})
    return LexSolution(lambdas, epsilons, losses, trace, method)


def solve_maxmin(prob: LexProblem) -> LexSolution:
    """Minimize the worst group loss (one round; epsilon_1 is its optimum)."""
    return _solution(prob, [_maxmin_lp(prob)], "maxmin")


def solve_lexicographic(prob: LexProblem) -> LexSolution:
    """n rounds; round 1 is max-min's LP, rounds 2..n the clip-form search.

    Round k's lambdas are lexicographically least on the k largest losses,
    so the total loss of the j worst-off groups keeps eps_j for every earlier
    round j; eps_k is the realized sum of the k largest losses.
    """
    return _solution(prob, [_maxmin_lp(prob), *_clip_rounds(prob)[1:]], "lexicographic")
