import json

import numpy as np
import pytest

from fairrepair import SolverError, lex, lp, solve_lexicographic
from fairrepair.lex import LexProblem
from fairrepair.lp import linprog

ROW_SPARSE_PIVOT = lp._pivot
INF = np.inf


def _capped(A, b, upper):
    """``(A, b)`` with a row x_i <= upper_i appended for each finite cap."""
    upper = np.asarray(upper, dtype=float)
    capped = np.flatnonzero(upper < INF)
    A = np.vstack([np.reshape(A, (-1, upper.size)), np.eye(upper.size)[capped]])
    return A, np.concatenate([np.reshape(b, -1), upper[capped]])


def _feasible(x, A, b, upper, tol=1e-7):
    if A is not None and len(A):
        assert np.all(np.asarray(A) @ x <= np.asarray(b) + tol)
    assert np.all(x >= -tol) and np.all(x <= np.asarray(upper) + tol)


def test_box_corner():
    # x + y >= 1, x <= 0.7, y <= 0.8, min x + 2y -> the corner (0.7, 0.3)
    c = [1.0, 2.0]
    A = [[-1.0, -1.0]]
    b = [-1.0]
    upper = [0.7, 0.8]
    x = linprog(c, *_capped(A, b, upper))
    _feasible(x, A, b, upper)
    assert np.allclose(x, [0.7, 0.3], atol=1e-9)


def test_classic_two_variable():
    # The dual of max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 (optimum
    # (2, 6), value 36): min 4a + 12b + 18c st a + 3c >= 3, 2b + 2c >= 5.
    c = [4.0, 12.0, 18.0]
    A = [[-1.0, 0.0, -3.0], [0.0, -2.0, -2.0]]
    b = [-3.0, -5.0]
    x = linprog(c, A, b)
    assert np.allclose(x, [0.0, 1.5, 1.0], atol=1e-9)
    assert float(np.dot(c, x)) == pytest.approx(36.0, abs=1e-9)


def test_negative_rhs_row_leaves_the_basis():
    # x + y >= 2, x, y in [0, 3], min x + 2y -> (2, 0).  The slack basis is
    # infeasible on the first row, and one dual pivot brings x in.
    c = [1.0, 2.0]
    A = [[-1.0, -1.0]]
    b = [-2.0]
    upper = [3.0, 3.0]
    x = linprog(c, *_capped(A, b, upper))
    _feasible(x, A, b, upper)
    assert np.allclose(x, [2.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    with pytest.raises(SolverError, match="infeasible"):
        linprog([0.0], [[1.0]], [-1.0])
    with pytest.raises(SolverError, match="infeasible"):
        # x >= 2 and x <= 1
        linprog([1.0], [[-1.0], [1.0]], [-2.0, 1.0])


def test_degenerate_cycling_guard():
    # The dual of Beale's cycling example (min c.x st A x <= b, x >= 0, value
    # -0.05): min b.y st -A^T y <= c, y >= 0, value 0.05.  The most-negative-row
    # rule alone cycles on it; the fallback to Bland's rule must terminate.
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    A_dual = -np.array(A).T
    y = linprog(b, A_dual, c)
    _feasible(y, A_dual, c, [INF] * 3)
    assert float(np.dot(b, y)) == pytest.approx(0.05, abs=1e-9)


def test_epigraph_max_reduction(rng):
    """min over z of max_i (a_i + b_i z), z in [0,1]: LP vs dense scan."""
    for _ in range(20):
        a = rng.normal(size=4)
        bb = rng.normal(size=4)
        # variables: z, t >= 0; minimize t st t >= a_i + b_i z + shift, where
        # the shift keeps the max positive
        shift = 1.0 + np.abs(a).max() + np.abs(bb).max()
        c = [0.0, 1.0]
        A = [[bi, -1.0] for bi in bb]
        rhs = [-ai - shift for ai in a]
        x = linprog(c, *_capped(A, rhs, [1.0, INF]))
        zs = np.linspace(0, 1, 20001)
        oracle = np.min(np.max(a[:, None] + bb[:, None] * zs[None, :], axis=0))
        assert x[1] - shift == pytest.approx(oracle, abs=1e-4)


def test_random_lps_against_vertex_enumeration(rng):
    """Small random LPs in a box, with nonnegative costs and right-hand sides
    of mixed sign: the optimum matches brute force over the basic feasible
    points assembled from constraint intersections, and a draw with no
    feasible point is reported infeasible."""
    import itertools

    outcomes = set()
    for _ in range(40):
        n = 2
        m = 4
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = rng.random(n)
        upper = [2.0] * n
        # enumerate candidate vertices: intersections of all constraint pairs
        rows = [*A, *np.eye(n), *(-np.eye(n))]
        rhs = [*b, *([2.0] * n), *([0.0] * n)]
        best = np.inf
        for i, j in itertools.combinations(range(len(rows)), 2):
            M = np.array([rows[i], rows[j]])
            if abs(np.linalg.det(M)) < 1e-9:
                continue
            v = np.linalg.solve(M, [rhs[i], rhs[j]])
            if np.all(A @ v <= b + 1e-9) and np.all(v >= -1e-9) and np.all(v <= 2.0 + 1e-9):
                best = min(best, float(c @ v))
        outcomes.add(np.isfinite(best))
        if not np.isfinite(best):
            with pytest.raises(SolverError, match="infeasible"):
                linprog(c, *_capped(A, b, upper))
            continue
        x = linprog(c, *_capped(A, b, upper))
        _feasible(x, A, b, upper)
        assert float(c @ x) == pytest.approx(best, abs=1e-7)
    assert outcomes == {True, False}  # both kinds of draw occurred


def test_against_highs(rng):
    """Seeded random LPs, continuous and integer-rounded (degenerate), with
    nonnegative costs, right-hand sides of mixed sign and a mix of upper
    bounds 1 and none: the optimal value matches HiGHS, given the same bounds
    as (lo, hi) pairs, to 1e-9, and both solvers call the same problems
    infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    outcomes = []
    for trial in range(200):
        n, m = rng.integers(1, 9, size=2)
        if trial % 2:
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            b = rng.integers(-3, 4, size=m).astype(float)
            c = rng.integers(0, 4, size=n).astype(float)
        else:
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            c = rng.random(n) * (rng.random(n) < 0.8)
        upper = np.where(rng.random(n) < 0.5, 1.0, INF)
        bounds = [(0.0, hi) for hi in upper]
        res = optimize.linprog(c, A, b, bounds=bounds, method="highs",
                               options={"primal_feasibility_tolerance": 1e-10,
                                        "dual_feasibility_tolerance": 1e-10})
        assert res.status in (0, 2), res.message
        outcomes.append(res.status)
        if res.status == 2:
            with pytest.raises(SolverError, match="infeasible"):
                linprog(c, *_capped(A, b, upper))
            continue
        x = linprog(c, *_capped(A, b, upper))
        _feasible(x, A, b, upper)
        assert float(c @ x) == pytest.approx(res.fun, abs=1e-9)
    assert 0 < outcomes.count(2) < len(outcomes)  # both kinds of problem occurred


def test_duplicate_negative_rhs_rows():
    # Two identical x >= 1 rows: once one leaves the basis, the other's
    # slack is basic at zero, and no row needs to be dropped.
    x = linprog([1.0], [[-1.0], [-1.0], [1.0]], [-1.0, -1.0, 1.0])
    assert x.tolist() == [1.0]


@pytest.mark.parametrize("c, A, b, message", [
    ([1.0], [[1.0]], [1.0, 2.0], "one b_ub entry per A_ub row"),
    ([-1.0], [[1.0]], [1.0], "costs must be nonnegative"),
    ([np.nan], [[1.0]], [1.0], "costs must be nonnegative"),
], ids=["b_ub_length", "negative_cost", "nan_cost"])
def test_malformed_problem_rejected(c, A, b, message):
    with pytest.raises(SolverError, match=message):
        linprog(c, A, b)


def _dense_pivot(T, row, col):
    """Oracle for ``lp._pivot``: every row, zero in the pivot column or not, is updated."""
    pivot_row = T[row] / T[row, col]
    T -= np.outer(T[:, col], pivot_row)
    T[row] = pivot_row


def _lex_under(pivot, prob, monkeypatch):
    """The JSON of ``solve_lexicographic(prob)`` with ``pivot`` as the simplex
    update, and the bytes of each round LP's solution."""
    solutions = []

    def recording_linprog(*args):
        x = linprog(*args)
        solutions.append(x.tobytes())  # tells -0.0 from 0.0
        return x

    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(lex, "linprog", recording_linprog)
    return json.dumps(solve_lexicographic(prob).to_dict()), solutions


def test_row_sparse_pivots_match_dense_ones_bit_for_bit(rng, monkeypatch):
    """Updating only the rows with a nonzero in the pivot column takes the same
    pivots and returns the same bytes as updating the whole tableau, on 120
    max-min LPs (a lexicographic solve poses one)."""
    for trial in range(120):
        n = int(rng.integers(3, 8))
        a, b = rng.random(n), rng.normal(scale=0.3, size=n)
        if trial % 3 == 0:  # tied means and unshifted groups: degenerate rounds
            a, b = np.round(a, 1), np.where(rng.random(n) < 0.3, 0.0, np.round(b, 1))
        prob = LexProblem(tuple(f"g{i}" for i in range(n)), a, b)
        sparse = _lex_under(ROW_SPARSE_PIVOT, prob, monkeypatch)
        dense = _lex_under(_dense_pivot, prob, monkeypatch)
        assert len(sparse[1]) == 1
        assert sparse == dense
