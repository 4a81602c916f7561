"""Max-min and lexicographically fair repair vectors for n >= 2 groups.

The group loss is the sum of absolute gaps between label-conditioned mean
scores, and each group's mean is exactly affine in its own repair amount:
m_g(lam_g) = a_g + lam_g * b_g.  Every loss and constraint is therefore
piecewise linear, which lets each optimization round be posed as an exact LP:
round k minimizes the sum of the k largest group losses subject to the bounds
inherited from earlier rounds.  Every such top-j sum takes the epigraph form
of Ogryczak & Tamir (Inf. Proc. Letters 85, 2003): the sum of the j largest
L_g is at most eps exactly when j*t + sum_g v_g <= eps for some t, v >= 0 with
v_g >= L_g - t, so a round LP has polynomially many rows for any number of
groups.  Round 1 alone is max-min fairness.  Later rounds keep the earlier
optima as exact bounds, and every round is solved on the problem's own scale,
so the lambdas do not depend on the units of the scores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .dataset import MetricKind, ScoredDataset, _conditional_scores
from .errors import DatasetError
from .lp import linprog
from .repair import RepairPlan

__all__ = ["LexProblem", "LexSolution", "build_problem", "solve_maxmin", "solve_lexicographic"]


@dataclass(frozen=True)
class LexProblem:
    """Affine conditional-mean model of a repair problem, original units.

    ``LexProblem(groups, base_means, mean_shifts)``; :func:`build_problem`
    computes the coefficients from a plan and a labeled dataset.
    """

    groups: tuple[str, ...]
    base_means: np.ndarray   # a_g = E[score | condition, g]
    mean_shifts: np.ndarray  # b_g = E[t(score) | condition, g]
    # A pull toward lambda = 0, per unit of the problem's scale: flat optima are deterministic.
    eps_stab: ClassVar[float] = 1e-6

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
    scores = _conditional_scores(ds, kind, min_rows=1)  # subset_by_label rejects an empty group
    with np.errstate(over="ignore", invalid="ignore"):  # a mean's sum can overflow
        a = np.array([x.mean() for x in scores])
        b = np.array([(plan.total_repair_score(g, x) - x).mean() for g, x in zip(ds.groups, scores)])
        top = len(a) ** 2 * (np.ptp(a) + np.max(np.abs(b)))  # bounds every sum of losses
    if not np.isfinite(top):  # also when a mean or a shift is not finite
        raise DatasetError(f"score domain [{ds.domain.lo}, {ds.domain.hi}] is too wide for {len(a)} "
                           "groups: their means or losses overflow in score units")
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


def _round_lp(prob: LexProblem, k: int, inherited: list[float]) -> np.ndarray:
    """One optimization round: minimize the sum of the k largest losses.

    Variables: lambdas (n, in [0,1]), u_pair >= |m_i - m_j| per unordered
    pair, and for each round j = 1..k a top-j epigraph block: t_j >= 0 and
    excesses v_jg >= L_g - t_j.  Block k's sum k*t_k + sum_g v_kg is the
    objective; block j < k's sum j*t_j + sum_g v_jg is bounded by eps_j.
    t_j >= 0 loses nothing because losses are nonnegative.

    The pair gaps a_i - a_j, b and every eps_j are divided by the problem's
    scale s = ptp(a) + max|b|, so every pair gap is at most 2, the simplex's
    absolute tolerance is relative to s, and eps_stab pulls toward lambda = 0
    by eps_stab * s in score units.  A gap is formed before it is divided, so
    it rounds relative to itself, not to |a_i| (which an offset can make >> s).
    """
    n = prob.n
    first, second = np.triu_indices(n, 1)  # pairs (i, j) with i < j
    npairs = first.size
    signed = np.eye(n)[first] - np.eye(n)[second]  # pair-group incidence, +1 on i and -1 on j
    s = float(np.ptp(prob.base_means) + np.max(np.abs(prob.mean_shifts))) or 1.0
    b = prob.mean_shifts / s
    nv = k * n

    # Columns: [lambdas (n) | t (k) | u (npairs) | v (k*n, block j's v_j in order)].
    # Ratio ties enter the smallest column, so the order steers the simplex; neither order wins
    # on every input (fit-lex's 9 groups at seeds 0-3: 991-1200 pivots here, 1008-1134 reversed).
    # u_ij >= +-(m_i - m_j):  +-(b_i lam_i - b_j lam_j) - u_ij <= -+(a_i - a_j)
    u_cols = np.hstack([np.zeros((npairs, k)), -np.eye(npairs), np.zeros((npairs, nv))])
    u_rows = np.stack([np.hstack([signed * b, u_cols]), np.hstack([-signed * b, u_cols])], axis=1)
    gap = (prob.base_means[first] - prob.base_means[second]) / s

    # L_g = sum of u over the pairs that contain g;  v_jg >= L_g - t_j
    excess = np.hstack([
        np.zeros((nv, n)),
        -np.kron(np.eye(k), np.ones((n, 1))),
        np.tile(np.abs(signed).T, (k, 1)),
        -np.eye(nv),
    ])
    # Row j - 1 is block j's sum j*t_j + sum_g v_jg, over the columns after the lambdas.
    top = np.hstack([
        np.diag(np.arange(1.0, k + 1)), np.zeros((k, npairs)), np.kron(np.eye(k), np.ones(n)),
    ])

    cost = np.concatenate([np.full(n, prob.eps_stab), top[-1]])
    # The last n rows are the bounds lam_g <= 1.
    A = np.vstack([u_rows.reshape(2 * npairs, -1), excess, np.hstack([np.zeros((k - 1, n)), top[:-1]]),
                   np.eye(n, cost.size)])
    rhs = np.concatenate([np.stack([-gap, gap], axis=1).ravel(), np.zeros(nv), np.divide(inherited, s), np.ones(n)])
    x = linprog(cost, A, rhs)
    return np.clip(x[:n], 0.0, 1.0)


def _solve_rounds(prob: LexProblem, n_rounds: int, method: str) -> LexSolution:
    epsilons, trace = [], []
    for k in range(1, n_rounds + 1):
        lam = _round_lp(prob, k, epsilons)
        loss = prob.losses(lam)
        eps_k = float(np.sort(loss)[::-1][:k].sum())  # sum of k largest
        epsilons.append(eps_k)
        lambdas = {g: float(v) for g, v in zip(prob.groups, lam)}
        losses = {g: float(v) for g, v in zip(prob.groups, loss)}
        trace.append({"round": k, "epsilon": eps_k, "lambdas": lambdas, "losses": losses})
    return LexSolution(lambdas, epsilons, losses, trace, method)


def solve_maxmin(prob: LexProblem) -> LexSolution:
    """Minimize the worst group loss (one round; epsilon_1 is its optimum)."""
    return _solve_rounds(prob, 1, "maxmin")


def solve_lexicographic(prob: LexProblem) -> LexSolution:
    """n rounds of constrained minimization; round 1 equals max-min.

    Each round k minimizes the total loss of the k worst-off groups subject
    to the j worst-off groups' total respecting eps_j exactly, for every
    earlier round j, then records eps_k as the realized sum of the k largest
    losses.
    """
    return _solve_rounds(prob, prob.n, "lexicographic")
