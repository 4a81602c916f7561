"""Max-min and lexicographically fair repair vectors for n >= 2 groups.

The group loss is the sum of absolute gaps between label-conditioned mean
scores, and each group's mean is exactly affine in its own repair amount:
m_g(lam_g) = a_g + lam_g * b_g.  Every loss and constraint is therefore
piecewise linear, which lets each optimization round be posed as an exact LP:
round k minimizes the sum of the k largest group losses (epigraph encoding)
subject to the bounds inherited from earlier rounds, enumerated explicitly
over subsets.  Round 1 alone is max-min fairness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dataset import MetricKind, ScoredDataset, _conditional_means
from .errors import DatasetError, SolverError
from .lp import linprog
from .metrics import _mean_gap_losses
from .repair import RepairPlan

__all__ = ["LexProblem", "LexSolution", "build_problem", "solve_maxmin", "solve_lexicographic"]

MAX_GROUPS = 12  # subset constraints are enumerated explicitly


@dataclass(frozen=True)
class LexProblem:
    """Affine conditional-mean model of a repair problem, original units.

    ``LexProblem(groups, base_means, mean_shifts)``; :func:`build_problem`
    computes the coefficients from a plan and a labeled dataset.
    """

    groups: tuple[str, ...]
    base_means: np.ndarray   # a_g = E[score | condition, g]
    mean_shifts: np.ndarray  # b_g = E[t(score) | condition, g]
    # Stabilization: alpha loosens inherited round bounds; eps_stab is a tiny
    # pull toward lambda = 0 that makes flat optima deterministic.
    alpha: ClassVar[float] = 1e-4
    eps_stab: ClassVar[float] = 1e-6

    @property
    def n(self) -> int:
        return len(self.groups)

    def means(self, lambdas: np.ndarray) -> np.ndarray:
        return self.base_means + np.asarray(lambdas, dtype=float) * self.mean_shifts

    def losses(self, lambdas: np.ndarray) -> np.ndarray:
        """L_g = sum over other groups of |m_g - m_j|."""
        return _mean_gap_losses(self.means(lambdas))


def build_problem(plan: RepairPlan, ds: ScoredDataset, kind: MetricKind) -> LexProblem:
    """The ``kind``-conditioned means and mean shifts of ``ds``'s groups under ``plan``."""
    if len(ds.groups) < 2:
        raise DatasetError("need at least 2 groups")
    if len(ds.groups) > MAX_GROUPS:
        raise DatasetError(f"at most {MAX_GROUPS} groups supported, got {len(ds.groups)}")
    return LexProblem(ds.groups, *_conditional_means(ds, kind, plan.shift))


@dataclass(frozen=True)
class LexSolution:
    lambdas: dict[str, float]
    epsilons: list[float]
    losses: dict[str, float]
    rounds: list[dict]
    method: str

    def lambda_vector(self, groups) -> np.ndarray:
        return np.array([self.lambdas[g] for g in groups])

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "lambdas": self.lambdas,
            "epsilons": self.epsilons,
            "losses": self.losses,
            "rounds": self.rounds,
        }


def _round_lp(prob: LexProblem, k: int, inherited: list[float]) -> np.ndarray:
    """One optimization round: minimize the sum of the k largest losses.

    Variables: lambdas (n, in [0,1]), u_pair >= |m_i - m_j| per unordered
    pair, epigraph scalar t (free), per-group excesses v_g >= L_g - t.
    Inherited bounds: for each earlier round j, every subset of j groups has
    summed loss at most eps_j + alpha.
    """
    n = prob.n
    first, second = np.triu_indices(n, 1)  # pairs in itertools.combinations order
    npairs = first.size
    signed = np.zeros((npairs, n))  # pair-group incidence, +1 on i and -1 on j
    signed[np.arange(npairs), first] = 1.0
    signed[np.arange(npairs), second] = -1.0
    a, b = prob.base_means, prob.mean_shifts

    # Columns: [lambdas (n) | u (npairs) | t | v (n)].
    # u_ij >= +-(m_i - m_j):  +-(b_i lam_i - b_j lam_j) - u_ij <= -+(a_i - a_j)
    u_cols = np.hstack([-np.eye(npairs), np.zeros((npairs, 1 + n))])
    u_rows = np.stack([np.hstack([signed * b, u_cols]), np.hstack([-signed * b, u_cols])], axis=1)
    gap = a[first] - a[second]

    # L_g = sum of u over the pairs that contain g;  v_g >= L_g - t
    loss = np.hstack([np.zeros((n, n)), np.abs(signed).T, np.zeros((n, 1 + n))])
    excess = loss - np.hstack([np.zeros((n, n + npairs)), np.ones((n, 1)), np.eye(n)])

    # Inherited subset bounds from earlier rounds (with alpha slack).
    members = [
        np.eye(n)[list(itertools.combinations(range(n), j))].sum(axis=1)
        for j in range(1, len(inherited) + 1)
    ]

    A = np.vstack([u_rows.reshape(2 * npairs, -1), excess, *(s @ loss for s in members)])
    rhs = np.concatenate([
        np.stack([-gap, gap], axis=1).ravel(),
        np.zeros(n),
        *(np.full(len(s), eps + prob.alpha) for s, eps in zip(members, inherited)),
    ])
    cost = np.concatenate([np.full(n, prob.eps_stab), np.zeros(npairs), [float(k)], np.ones(n)])
    bounds = [(0.0, 1.0)] * n + [(0.0, None)] * npairs + [(None, None)] + [(0.0, None)] * n
    x = linprog(cost, A, rhs, bounds)
    return np.clip(x[:n], 0.0, 1.0)


def _solve_rounds(prob: LexProblem, n_rounds: int, method: str) -> LexSolution:
    if prob.n > MAX_GROUPS:
        raise SolverError(f"at most {MAX_GROUPS} groups supported")
    epsilons: list[float] = []
    trace: list[dict] = []
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
    to every smaller subset respecting the bounds set by earlier rounds
    (within the alpha stabilization slack), then records eps_k as the
    realized sum of the k largest losses.
    """
    return _solve_rounds(prob, prob.n, "lexicographic")
