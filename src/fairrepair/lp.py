"""Small dense linear-programming core: a one-phase dual simplex.

Solves  min c.x  s.t.  A_ub x <= b_ub  and  x >= 0,  with c >= 0, at the
scale the lexicographic solver needs (hundreds of variables and constraints).
Nonnegative costs make the all-slack basis dual feasible whatever the signs of
b_ub, so Lemke's dual simplex (1954) reaches the optimum from it with no
phase 1, and the objective is bounded below by 0, so no LP is unbounded.  Each
pivot takes the most negative row out of the basis and is one outer-product
update of the tableau rows with a nonzero in the entering column.  After as
many pivots in a row that leave the objective unchanged as there are rows, the
leaving row becomes the infeasible row with the smallest basic column (Bland's
rule, 1977), which rules out cycling.  Deterministic by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

__all__ = ["linprog"]

_TOL = 1e-9


def linprog(c, A_ub, b_ub) -> np.ndarray:
    """Exact minimizer of c.x subject to A_ub x <= b_ub and x >= 0.

    c must be nonnegative.  Returns the optimal x; raises :class:`SolverError`
    on infeasible problems, and after 2000 + 200 * (rows + columns) pivots.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if not np.all(c >= 0.0):
        raise SolverError("costs must be nonnegative")
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    m = A_ub.shape[0]
    if b_ub.size != m:
        raise SolverError("one b_ub entry per A_ub row required")

    # Tableau [x | slacks | rhs] with the slacks basic; the bottom row holds
    # the reduced costs and, in its last entry, minus the objective.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A_ub
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b_ub
    T[m, :n] = c
    basis = n + np.arange(m)
    stalled = 0
    for _ in range(2000 + 200 * (m + n + m)):  # rows + columns
        infeasible = np.flatnonzero(T[:m, -1] < -_TOL)
        if not infeasible.size:
            x = np.zeros(n + m)
            x[basis] = T[:m, -1]
            return x[:n]
        if stalled < m:  # Dantzig: the most negative row
            row = infeasible[np.argmin(T[infeasible, -1])]
        else:  # Bland: the smallest basic column
            row = infeasible[np.argmin(basis[infeasible])]
        # Entering: least ratio c̄_j / -a_rj (within _TOL), then smallest column.
        cols = np.flatnonzero(T[row, :-1] < -_TOL)
        if not cols.size:
            raise SolverError("LP is infeasible")
        ratios = T[m, cols] / -T[row, cols]
        col = cols[np.flatnonzero(ratios <= ratios.min() + _TOL)[0]]
        # A zero reduced cost on the entering column leaves the objective unchanged.
        stalled = stalled + 1 if T[m, col] <= _TOL else 0
        _pivot(T, row, col)
        basis[row] = col
    raise SolverError("simplex iteration limit reached")


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Scale ``row`` to a 1 in ``col`` and eliminate ``col`` from the other rows.

    Only rows with a nonzero in ``col`` change: the others would subtract a
    zero multiple of the pivot row, which leaves every value equal (a -0.0
    could turn into 0.0, and no comparison tells them apart).
    """
    pivot_row = T[row] / T[row, col]
    rows = np.flatnonzero(T[:, col])
    T[rows] -= np.outer(T[rows, col], pivot_row)
    T[row] = pivot_row
