"""Small dense linear-programming core: two-phase simplex with Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub  and  0 <= x <= hi,  at the scale the
lexicographic solver needs (hundreds of variables and constraints).  Each
pivot is one outer-product update of the dense tableau.  Bland's rule (the
smallest entering column, then the least ratio with ties going to the smallest
basis index) makes the method immune to cycling on the degenerate
piecewise-linear round LPs.  Deterministic by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import LPError

__all__ = ["linprog"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = T[row] / T[row, col]
    T -= np.outer(T[:, col], pivot_row)
    T[row] = pivot_row
    basis[row] = col


def _simplex(T: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int) -> None:
    """Minimize the bottom-row objective in place (Bland's rule)."""
    m = T.shape[0] - 1
    for _ in range(max_iter):
        # Entering: smallest column index with a negative reduced cost.
        entering = np.flatnonzero(T[m, :ncols] < -_PIVOT_TOL)
        if not entering.size:
            return
        col = entering[0]
        # Leaving: least ratio (within _PIVOT_TOL), then smallest basis index.
        rows = np.flatnonzero(T[:m, col] > _PIVOT_TOL)
        if not rows.size:
            raise LPError("LP is unbounded")
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios <= ratios.min() + _PIVOT_TOL]
        _pivot(T, basis, ties[np.argmin(basis[ties])], col)
    raise LPError("simplex iteration limit reached")


def linprog(c, A_ub=None, b_ub=None, bounds=None) -> np.ndarray:
    """Exact minimizer of c.x subject to A_ub x <= b_ub and bounds.

    bounds is a sequence of (lo, hi) per variable; lo must be 0.0 and hi is a
    float or None.  Returns the optimal x; raises :class:`LPError` on
    infeasible or unbounded problems, and when a phase takes more than
    2000 + 200 * (rows + columns) pivots.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if A_ub is None:
        A_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    if b_ub.size != A_ub.shape[0]:
        raise LPError("one b_ub entry per A_ub row required")
    if bounds is None:
        bounds = [(0.0, None)] * n
    if len(bounds) != n:
        raise LPError("one (lo, hi) bound pair per variable required")
    if any(lo != 0.0 for lo, _ in bounds):
        raise LPError("lower bounds other than 0 are not supported")
    # A finite upper bound becomes an extra row on the variable's column.
    capped = [j for j, (_, hi) in enumerate(bounds) if hi is not None]
    caps = [float(bounds[j][1]) for j in capped]
    mu = A_ub.shape[0]
    m = mu + len(caps)

    # Orient every row to b >= 0.  "<=" rows take a slack column (initially
    # basic); flipped rows become ">=" and take surplus + artificial columns.
    b = np.concatenate([b_ub, caps])
    ge = b < 0
    ge_rows = np.flatnonzero(ge)
    le_rows = np.flatnonzero(~ge)
    n_art = ge_rows.size

    # Column layout: [x | slacks | surpluses | artificials | rhs]
    ncols = n + le_rows.size + 2 * n_art
    T = np.zeros((m + 1, ncols + 1))
    T[:mu, :n] = A_ub
    T[mu + np.arange(len(caps)), capped] = 1.0
    T[:m, -1] = b
    T[ge_rows] *= -1.0
    basis = np.empty(m, dtype=int)
    basis[le_rows] = n + np.arange(le_rows.size)  # slacks
    basis[ge_rows] = ncols - n_art + np.arange(n_art)  # artificials
    T[np.arange(m), basis] = 1.0
    T[ge_rows, basis[ge_rows] - n_art] = -1.0  # surplus
    max_iter = 2000 + 200 * (m + ncols)

    if n_art:
        # Phase 1: minimize the sum of artificials (cost 1 on each artificial,
        # then zero out the reduced costs of the basic artificial columns).
        T[m, ncols - n_art:ncols] = 1.0
        for i in ge_rows:
            T[m] -= T[i]
        _simplex(T, basis, ncols, max_iter)
        if T[m, -1] < -_FEAS_TOL:
            raise LPError("LP is infeasible")
        # Pivot leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and dropped.
        ncols -= n_art
        drop = []
        for i in np.flatnonzero(basis >= ncols):
            piv = np.flatnonzero(np.abs(T[i, :ncols]) > _PIVOT_TOL)
            if piv.size:
                _pivot(T, basis, i, piv[0])
            else:
                drop.append(i)
        # The artificial columns come last, so deleting them renumbers nothing.
        T = np.delete(np.delete(T, drop, axis=0), np.s_[ncols:-1], axis=1)
        basis = np.delete(basis, drop)
        m -= len(drop)

    # Phase 2: install the real objective row and optimize.
    T[m, :] = 0.0
    T[m, :n] = c
    for i in range(m):
        bj = basis[i]
        if T[m, bj] != 0.0:
            T[m] -= T[m, bj] * T[i]
    _simplex(T, basis, ncols, max_iter)

    x = np.zeros(ncols)
    x[basis] = T[:m, -1]
    return x[:n]
