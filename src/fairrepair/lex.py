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

import numpy as np

from .dataset import MetricKind, ScoredDataset
from .errors import DatasetError, SolverError
from .lp import linprog
from .repair import RepairPlan
from .solver import conditional_means_and_shifts

__all__ = ["LexProblem", "LexSolution", "build_problem", "solve_maxmin", "solve_lexicographic"]

MAX_GROUPS = 12  # subset constraints are enumerated explicitly

# Stabilization: alpha loosens inherited round bounds; eps_stab is a tiny
# pull toward lambda = 0 that makes flat optima deterministic.
DEFAULT_ALPHA = 1e-4
DEFAULT_EPS_STAB = 1e-6


@dataclass(frozen=True)
class LexProblem:
    """Affine conditional-mean model of a repair problem, original units."""

    plan: RepairPlan
    kind: MetricKind
    groups: tuple[str, ...]
    base_means: np.ndarray   # a_g = E[score | condition, g]
    mean_shifts: np.ndarray  # b_g = E[t(score) | condition, g]
    alpha: float = DEFAULT_ALPHA
    eps_stab: float = DEFAULT_EPS_STAB

    @property
    def n(self) -> int:
        return len(self.groups)

    def means(self, lambdas: np.ndarray) -> np.ndarray:
        return self.base_means + np.asarray(lambdas, dtype=float) * self.mean_shifts

    def losses(self, lambdas: np.ndarray) -> np.ndarray:
        """L_g = sum over other groups of |m_g - m_j|."""
        m = self.means(lambdas)
        return np.abs(m[:, None] - m[None, :]).sum(axis=1)


def build_problem(
    plan: RepairPlan,
    ds: ScoredDataset,
    kind: MetricKind,
    alpha: float = DEFAULT_ALPHA,
    eps_stab: float = DEFAULT_EPS_STAB,
) -> LexProblem:
    if len(ds.groups) < 2:
        raise DatasetError("need at least 2 groups")
    if len(ds.groups) > MAX_GROUPS:
        raise DatasetError(f"at most {MAX_GROUPS} groups supported, got {len(ds.groups)}")
    a, b = conditional_means_and_shifts(plan, ds, kind)
    return LexProblem(plan, kind, ds.groups, a, b, alpha, eps_stab)


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
    pairs = list(itertools.combinations(range(n), 2))
    iu = {p: n + idx for idx, p in enumerate(pairs)}  # u columns
    it = n + len(pairs)                               # t column
    iv = {g: it + 1 + g for g in range(n)}            # v columns
    nvar = it + 1 + n

    a, b = prob.base_means, prob.mean_shifts
    rows, rhs = [], []

    def add_row(coeffs: dict[int, float], bound: float) -> None:
        row = np.zeros(nvar)
        for j, v in coeffs.items():
            row[j] = v
        rows.append(row)
        rhs.append(bound)

    # u_ij >= +-(m_i - m_j):  +-(b_i lam_i - b_j lam_j) - u_ij <= -+(a_i - a_j)
    for i, j in pairs:
        add_row({i: b[i], j: -b[j], iu[(i, j)]: -1.0}, a[j] - a[i])
        add_row({i: -b[i], j: b[j], iu[(i, j)]: -1.0}, a[i] - a[j])

    def loss_coeffs(group: int) -> dict[int, float]:
        out: dict[int, float] = {}
        for p in pairs:
            if group in p:
                out[iu[p]] = out.get(iu[p], 0.0) + 1.0
        return out

    # v_g >= L_g - t
    for g in range(n):
        coeffs = loss_coeffs(g)
        coeffs[it] = -1.0
        coeffs[iv[g]] = -1.0
        add_row(coeffs, 0.0)

    # Inherited subset bounds from earlier rounds (with alpha slack).
    for j, eps in enumerate(inherited, start=1):
        for subset in itertools.combinations(range(n), j):
            coeffs: dict[int, float] = {}
            for g in subset:
                for col, v in loss_coeffs(g).items():
                    coeffs[col] = coeffs.get(col, 0.0) + v
            add_row(coeffs, eps + prob.alpha)

    cost = np.zeros(nvar)
    cost[:n] = prob.eps_stab  # deterministic tie-break toward lambda = 0
    cost[it] = float(k)
    for g in range(n):
        cost[iv[g]] = 1.0

    bounds = [(0.0, 1.0)] * n + [(0.0, None)] * len(pairs) + [(None, None)] + [(0.0, None)] * n
    x = linprog(cost, np.array(rows), np.array(rhs), bounds)
    return np.clip(x[:n], 0.0, 1.0)


def _solve_rounds(prob: LexProblem, n_rounds: int, method: str) -> LexSolution:
    if prob.n > MAX_GROUPS:
        raise SolverError(f"at most {MAX_GROUPS} groups supported")
    lambdas = np.zeros(prob.n)
    epsilons: list[float] = []
    trace: list[dict] = []
    for k in range(1, n_rounds + 1):
        lambdas = _round_lp(prob, k, epsilons)
        losses = prob.losses(lambdas)
        eps_k = float(np.sort(losses)[::-1][:k].sum())  # sum of k largest
        epsilons.append(eps_k)
        trace.append(
            {
                "round": k,
                "epsilon": eps_k,
                "lambdas": {g: float(l) for g, l in zip(prob.groups, lambdas)},
                "losses": {g: float(l) for g, l in zip(prob.groups, losses)},
            }
        )
    losses = prob.losses(lambdas)
    return LexSolution(
        lambdas={g: float(l) for g, l in zip(prob.groups, lambdas)},
        epsilons=epsilons,
        losses={g: float(l) for g, l in zip(prob.groups, losses)},
        rounds=trace,
        method=method,
    )


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
