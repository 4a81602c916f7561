import numpy as np
import pytest

from fairrepair import LPError
from fairrepair.lp import linprog


def _feasible(x, A, b, bounds, tol=1e-7):
    if A is not None and len(A):
        assert np.all(np.asarray(A) @ x <= np.asarray(b) + tol)
    for xi, (lo, hi) in zip(x, bounds):
        if lo is not None:
            assert xi >= lo - tol
        if hi is not None:
            assert xi <= hi + tol


def test_box_corner():
    c = [-1.0, -1.0]
    A = [[1.0, 1.0]]
    b = [1.0]
    bounds = [(0.0, 0.7), (0.0, 0.8)]
    x = linprog(c, A, b, bounds)
    _feasible(x, A, b, bounds)
    assert x.sum() == pytest.approx(1.0, abs=1e-9)


def test_classic_two_variable():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36
    c = [-3.0, -5.0]
    A = [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]
    b = [4.0, 12.0, 18.0]
    x = linprog(c, A, b, [(0.0, None)] * 2)
    assert np.allclose(x, [2.0, 6.0], atol=1e-9)


def test_negative_rhs_needs_phase_one():
    # x + y >= 2, x, y in [0, 3], min x + 2y -> (2, 0)
    c = [1.0, 2.0]
    A = [[-1.0, -1.0]]
    b = [-2.0]
    bounds = [(0.0, 3.0), (0.0, 3.0)]
    x = linprog(c, A, b, bounds)
    _feasible(x, A, b, bounds)
    assert np.allclose(x, [2.0, 0.0], atol=1e-9)


def test_infeasible_detected():
    with pytest.raises(LPError, match="infeasible"):
        linprog([0.0], [[1.0]], [-1.0], bounds=[(0.0, None)])
    with pytest.raises(LPError, match="infeasible"):
        # x >= 2 and x <= 1
        linprog([1.0], [[-1.0], [1.0]], [-2.0, 1.0], bounds=[(0.0, None)])


def test_unbounded_detected():
    with pytest.raises(LPError, match="unbounded"):
        linprog([-1.0], None, None, bounds=[(0.0, None)])


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; Bland's rule must terminate.
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    x = linprog(c, A, b, [(0.0, None)] * 4)
    _feasible(x, A, b, [(0.0, None)] * 4)
    assert float(np.dot(c, x)) == pytest.approx(-0.05, abs=1e-9)


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
        x = linprog(c, A, rhs, bounds=[(0.0, 1.0), (0.0, None)])
        zs = np.linspace(0, 1, 20001)
        oracle = np.min(np.max(a[:, None] + bb[:, None] * zs[None, :], axis=0))
        assert x[1] - shift == pytest.approx(oracle, abs=1e-4)


def test_random_lps_against_vertex_enumeration(rng):
    """Small random bounded LPs: simplex optimum matches brute-force over
    basic feasible points assembled from constraint intersections."""
    import itertools

    for _ in range(15):
        n = 2
        m = 4
        A = rng.normal(size=(m, n))
        b = rng.random(m) + 0.5
        c = rng.normal(size=n)
        bounds = [(0.0, 2.0)] * n
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
        x = linprog(c, A, b, bounds)
        _feasible(x, A, b, bounds)
        assert float(c @ x) == pytest.approx(best, abs=1e-7)


def test_phase_one_pivots_leftover_artificial_out():
    # Two identical ">=" rows: phase 1 ends with an artificial basic at zero,
    # which must be pivoted onto a real column before phase 2.
    x = linprog([1.0], [[-1.0], [-1.0], [1.0]], [-1.0, -1.0, 1.0], bounds=[(0.0, None)])
    assert x.tolist() == [1.0]


@pytest.mark.parametrize("A, b, bounds, message", [
    ([[1.0]], [1.0, 2.0], [(0.0, None)], "one b_ub entry per A_ub row"),
    ([[1.0]], [1.0], [(0.0, None), (0.0, None)], "one .* bound pair per variable"),
    ([[1.0]], [1.0], [(0.5, None)], "lower bounds other than 0 are not supported"),
    ([[1.0]], [1.0], [(None, None)], "lower bounds other than 0 are not supported"),
    ([[1.0]], [1.0], [(None, 2.0)], "lower bounds other than 0 are not supported"),
], ids=["b_ub_length", "bounds_length", "lower_bound", "free", "free_upper_bound"])
def test_malformed_problem_rejected(A, b, bounds, message):
    with pytest.raises(LPError, match=message):
        linprog([1.0], A, b, bounds)
