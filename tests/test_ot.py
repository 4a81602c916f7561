import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fairrepair import (
    DatasetError,
    EmpiricalDistribution,
    RepairPlan,
    barycenter_quantile,
    wasserstein,
)
from fairrepair import ot

from conftest import UNIT, random_distribution

D_HIGH = [0.2, 0.4, 0.6, 0.8]
D_LOW = [0.1, 0.2, 0.3, 0.4]


def dist(values):
    return EmpiricalDistribution.from_samples(values)


def to_barycenter(dists, w, source_index, x):
    """Full repair of source group x through a plan: F_beta^-1(F_source(x)).

    A plan weighs each group by its total count, so each distribution's counts
    are scaled to make the weights proportional to the positive integers ``w``;
    scaling leaves every level k/n as it was.
    """
    totals = [int(d.counts.sum()) for d in dists]
    scaled = [EmpiricalDistribution(d.atoms, d.counts * (wi * math.prod(totals) // t))
              for d, wi, t in zip(dists, w, totals)]
    groups = tuple(f"g{i}" for i in range(len(dists)))
    plan = RepairPlan(UNIT, groups, dict(zip(groups, scaled)), {g: 1.0 for g in groups})
    assert np.array_equal(plan.group_weights, np.asarray(w) / sum(w))
    return plan.total_repair_score(groups[source_index], x)


# -- cdf / quantile ----------------------------------------------------------


def test_cdf_counts_mass_at_or_below():
    d = dist(D_HIGH)
    assert d.cdf(0.4) == 0.5  # 2 of 4 atoms <= 0.4
    assert d.cdf(0.1) == 0.0  # below the smallest atom
    assert d.cdf(0.8) == 1.0  # at the largest atom
    assert d.cdf(0.5) == 0.5  # right-continuity between atoms


def test_cdf_monotone(rng):
    d = EmpiricalDistribution(*random_distribution(rng, max_atoms=8))
    xs = np.sort(rng.random(50))
    vals = d.cdf(xs)
    assert np.all(np.diff(vals) >= 0)


def test_quantile_examples():
    d = dist(D_LOW)
    assert d.quantile(0.25) == 0.1  # F(0.1) = 0.25, infimum attained
    assert d.quantile(1.0) == 0.4   # last order statistic
    assert dist(D_HIGH).quantile(0.5) == 0.4
    assert d.quantile(0.0) == 0.1   # convention: minimum atom


def test_quantile_rejects_out_of_range():
    with pytest.raises(DatasetError):
        dist(D_LOW).quantile(1.5)
    with pytest.raises(DatasetError):
        dist(D_LOW).quantile(-0.1)
    # A NaN level is not in [0, 1] either; it used to return the largest atom.
    for level in (np.nan, [0.25, np.nan, 0.75]):
        with pytest.raises(DatasetError, match="must lie in"):
            dist(D_LOW).quantile(level)
        with pytest.raises(DatasetError, match="must lie in"):
            barycenter_quantile([dist(D_LOW), dist(D_HIGH)], [0.5, 0.5], level)
    # Nor is a level one ulp outside it: the check has no tolerance.
    for level in (1 + 2**-52, -5e-324):
        with pytest.raises(DatasetError, match="must lie in"):
            dist(D_LOW).quantile(level)
        with pytest.raises(DatasetError, match="must lie in"):
            barycenter_quantile([dist(D_LOW), dist(D_HIGH)], [0.5, 0.5], level)


def test_quantile_nondecreasing(rng):
    d = EmpiricalDistribution(*random_distribution(rng, max_atoms=7))
    a = np.sort(rng.random(40))
    assert np.all(np.diff(d.quantile(a)) >= -0.0)


def test_quantile_cdf_identity_at_atoms(rng):
    for _ in range(30):
        d = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        for a in d.atoms:
            assert d.quantile(d.cdf(a)) == a


def test_cdf_rejects_nan():
    # A NaN argument used to return 1.0.
    for x in (np.nan, [0.25, np.nan]):
        with pytest.raises(DatasetError, match="NaN"):
            dist(D_LOW).cdf(x)


def test_ties_merge():
    d = dist([0.3, 0.7, 0.3, 0.3])
    assert d.n_atoms == 2
    assert d.counts.tolist() == [3, 1]
    assert d.breakpoints.tolist() == [0.75, 1.0]
    assert EmpiricalDistribution([0.7, 0.3, 0.3], [2, 5, 4]).counts.tolist() == [9, 2]


def test_constructor_contracts():
    with pytest.raises(DatasetError, match="positive integers"):
        EmpiricalDistribution([0.5], [0.9])      # counts are integers
    with pytest.raises(DatasetError, match="positive integers"):
        EmpiricalDistribution([0.2, 0.4], [1.0, 1.0])
    with pytest.raises(DatasetError, match="positive integers"):
        EmpiricalDistribution([0.2, 0.4], [True, True])
    with pytest.raises(DatasetError):
        EmpiricalDistribution([0.2, 1.4], [1, 1])  # atom outside [0, 1]
    for atom in (1 + 2**-52, -5e-324):  # one ulp outside [0, 1], no tolerance
        with pytest.raises(DatasetError, match=r"lie in \[0, 1\]"):
            EmpiricalDistribution([0.2, atom], [1, 1])
    for counts in ([1, -1], [1, 0], [1.0, float("nan")]):
        with pytest.raises(DatasetError, match="positive integers"):
            EmpiricalDistribution([0.2, 0.4], counts)
    with pytest.raises(DatasetError):
        EmpiricalDistribution.from_samples([0.5])
    with pytest.raises(DatasetError, match="needs at least one atom"):
        EmpiricalDistribution([], [])


def test_equality_compares_merged_atoms_and_counts():
    d = EmpiricalDistribution([0.3, 0.7], [2, 1])
    assert d == EmpiricalDistribution([0.7, 0.3, 0.3], [1, 1, 1])  # the same after merging
    assert d != EmpiricalDistribution([0.3, 0.7], [1, 2])
    assert d != EmpiricalDistribution([0.3, 0.6], [2, 1])
    assert d != (d.atoms, d.counts)


def test_counts_total_at_most_two_to_the_53():
    assert EmpiricalDistribution([0.2, 0.4], [2**53 - 1, 1]).breakpoints[-1] == 1.0
    for counts in ([2**53, 1],                             # the float sum rounds this to 2**53
                   np.full(4, 2**62, dtype=np.int64),     # an int64 sum would wrap negative
                   np.array([2**64 - 1, 1], dtype=np.uint64)):
        with pytest.raises(DatasetError, match=r"at most 2\*\*53"):
            EmpiricalDistribution(np.linspace(0, 1, len(counts)), counts)


@pytest.mark.parametrize("sizes", [(3, 6), (5, 10)])
def test_levels_are_exact_rationals(sizes):
    """Each level is float(Fraction(k, n)) bit for bit, and the plan's map reads the
    barycenter at those exact levels: oracle in rational arithmetic."""
    rng = np.random.default_rng(sum(sizes))
    dists = [dist(rng.random(n)) for n in sizes]
    for d, n in zip(dists, sizes):
        assert d.breakpoints.tolist() == [float(Fraction(k, n)) for k in range(1, n + 1)]
    groups = ("a", "b")
    plan = RepairPlan(UNIT, groups, dict(zip(groups, dists)), {g: 1.0 for g in groups})
    w = [n / sum(sizes) for n in sizes]

    def quantile(d, n, level):  # inf{t : F(t) >= level}, compared as rationals
        return d.atoms[min(k for k in range(n) if Fraction(k + 1, n) >= level)]

    for g, d, n in zip(groups, dists, sizes):
        for k in range(n):
            level = Fraction(k + 1, n)
            expected = 0.0
            for wi, other, m in zip(w, dists, sizes):
                expected = expected + wi * quantile(other, m, level)
            assert plan.total_repair_score(g, d.atoms[k]) == expected


def test_exact_levels_at_scale():
    """Groups of 5e4 and 1e5 rows: level k/5e4 is level 2k/1e5, so the larger
    group's quantile there is its atom 2k - 1 (1-based 2k).  With float weights
    1/n and a float cumsum, 28,655 of the 50,000 lookups picked another atom."""
    rng = np.random.default_rng(5)
    small, large = dist(rng.random(50_000)), dist(rng.random(100_000))
    picked = np.searchsorted(large.breakpoints, small.breakpoints, side="left")
    assert np.count_nonzero(picked != 2 * np.arange(1, 50_001) - 1) == 0
    groups = ("small", "large")
    plan = RepairPlan(UNIT, groups, dict(zip(groups, (small, large))), {g: 1.0 for g in groups})
    w = plan.group_weights
    expected = (0.0 + w[0] * small.atoms) + w[1] * large.atoms[1::2]
    assert np.array_equal(plan.total_repair_score("small", small.atoms), expected)


# -- wasserstein -------------------------------------------------------------


def test_wasserstein_identity():
    d = dist(D_HIGH)
    assert wasserstein(d, d, 1.0) == 0.0
    assert wasserstein(d, d, 2.0) == 0.0


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_wasserstein_rejects_bad_order(p):
    with pytest.raises(DatasetError, match="order p"):
        wasserstein(dist(D_HIGH), dist(D_LOW), p)


def test_wasserstein_uniform_shift_example():
    # equal-size uniform case: mean |sorted difference| = (0.1+0.2+0.3+0.4)/4
    assert wasserstein(dist(D_HIGH), dist(D_LOW), 1.0) == pytest.approx(0.25, abs=1e-15)


def test_wasserstein_point_masses():
    assert wasserstein(dist([0.0, 0.0]), dist([1.0, 1.0]), 1.0) == 1.0


@pytest.mark.parametrize("a, b", [
    ([0.1, 0.1, 0.3], [0.1, 0.2, 0.2]),  # ties within and across the arrays
    ([0.0, 0.5, 1.0], [0.0, 0.7, 1.0]),  # equal ends
    ([0.1, 0.2], [0.3, 0.4]),  # disjoint
    ([0.3, 0.4], [0.1, 0.2]),
    ([0.0, 1.0], [0.2, 0.4, 0.6]),  # nested
    ([0.5], [0.5]),  # one element each
    ([0.5], [0.2, 0.5, 0.9]),
    ([-0.0, 0.5], [0.0, 0.5]),
], ids=["ties", "equal-ends", "disjoint", "disjoint-reversed", "nested", "one-equal", "one-in-three", "signed-zero"])
def test_union_is_numpys_sorted_set_union(a, b):
    a, b = np.array(a), np.array(b)
    assert_union_is_numpys(a, b)
    assert_union_is_numpys(b, a)


def test_union_is_numpys_on_random_sorted_arrays(rng):
    for _ in range(200):
        # Few distinct values, so ties within and across the arrays are common.
        a, b = (np.sort(rng.choice(rng.random(8), rng.integers(1, 12))) for _ in range(2))
        assert_union_is_numpys(a, b)


def assert_union_is_numpys(a, b):
    got, want = ot._union(a, b), np.union1d(a, b)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_wasserstein_reuses_levels_only_for_their_breakpoints(rng):
    d1 = EmpiricalDistribution(*random_distribution(rng))
    d2 = EmpiricalDistribution(*random_distribution(rng))
    levels = ot._levels(d1, d2)
    moved = d1._toward(np.linspace(0.0, 1.0, d1.n_atoms), 0.4)  # same breakpoints array
    for p in (1.0, 2.0):
        assert wasserstein(moved, d2, p, levels) == wasserstein(moved, d2, p)
    same_levels = EmpiricalDistribution(d1.atoms, d1.counts)  # equal, but a new array
    for a, b in ((same_levels, d2), (d2, d1), (d1, d1)):
        with pytest.raises(DatasetError, match="levels were built for other distributions"):
            wasserstein(a, b, 1.0, levels)


def test_wasserstein_symmetry_and_nonnegativity(rng):
    for _ in range(20):
        d1 = EmpiricalDistribution(*random_distribution(rng))
        d2 = EmpiricalDistribution(*random_distribution(rng))
        for p in (1.0, 2.0):
            w12 = wasserstein(d1, d2, p)
            assert w12 >= 0
            assert w12 == pytest.approx(wasserstein(d2, d1, p), abs=1e-14)


def test_wasserstein_zero_iff_identical(rng):
    d1 = EmpiricalDistribution(*random_distribution(rng))
    same = EmpiricalDistribution(d1.atoms, d1.counts)
    assert wasserstein(d1, same, 1.0) == 0.0
    other = EmpiricalDistribution(np.clip(d1.atoms + 0.01, 0, 1), d1.counts)
    assert wasserstein(d1, other, 1.0) > 0


def test_wasserstein_triangle_inequality(rng):
    # on W_p (p-th root), not W_p^p
    for _ in range(25):
        a, b, c = (EmpiricalDistribution(*random_distribution(rng)) for _ in range(3))
        for p in (1.0, 2.0):
            dab = wasserstein(a, b, p) ** (1 / p)
            dbc = wasserstein(b, c, p) ** (1 / p)
            dac = wasserstein(a, c, p) ** (1 / p)
            assert dac <= dab + dbc + 1e-12


def test_jensen_ordering_w1_below_w2(rng):
    for _ in range(25):
        d1 = EmpiricalDistribution(*random_distribution(rng))
        d2 = EmpiricalDistribution(*random_distribution(rng))
        w1 = wasserstein(d1, d2, 1.0)
        w2 = np.sqrt(wasserstein(d1, d2, 2.0))
        assert w1 <= w2 + 1e-12


def test_fast_path_matches_partition_integral(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        x = rng.random(n)
        y = rng.random(n)
        for p in (1.0, 2.0, 3.0):
            exact = wasserstein(dist(x), dist(y), p)
            # equal sizes: the optimal coupling pairs order statistics
            fast = float(np.mean(np.abs(np.sort(x) - np.sort(y)) ** p))
            assert abs(exact - fast) <= 1e-12


# -- barycenter --------------------------------------------------------------


def test_barycenter_quantile_examples():
    d1, d2 = dist(D_HIGH), dist(D_LOW)
    # degenerate weight recovers the source quantiles
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert barycenter_quantile([d1, d2], [1.0, 0.0], q) == d1.quantile(q)
    assert barycenter_quantile([d1, d2], [0.5, 0.5], 0.25) == pytest.approx(0.15)
    # identical inputs: idempotent for any weights
    for q in (0.1, 0.5, 1.0):
        assert barycenter_quantile([d1, d1], [0.3, 0.7], q) == pytest.approx(d1.quantile(q), abs=1e-15)


def test_barycenter_weight_validation():
    d1, d2 = dist(D_HIGH), dist(D_LOW)
    with pytest.raises(DatasetError):
        barycenter_quantile([d1, d2], [0.6, 0.6], 0.5)
    with pytest.raises(DatasetError):
        barycenter_quantile([d1, d2], [1.0, float("nan")], 0.5)
    with pytest.raises(DatasetError):
        barycenter_quantile([d1], [1.0], 0.5)
    with pytest.raises(DatasetError, match="one weight per distribution required"):
        barycenter_quantile([d1, d2], [1.0], 0.5)


def test_barycenter_quantile_nondecreasing(rng):
    dists = [EmpiricalDistribution(*random_distribution(rng)) for _ in range(3)]
    w = np.array([0.2, 0.5, 0.3])
    q = np.linspace(0, 1, 101)
    vals = barycenter_quantile(dists, w, q)
    assert np.all(np.diff(vals) >= -1e-15)


def _materialize_barycenter(dists, w):
    """Barycenter as an explicit distribution on the merged quantile grid.

    Every merged level is a multiple of 1/L, L the least common multiple of the
    inputs' totals, so the barycenter's counts are its segment lengths times L.
    """
    q = np.union1d(np.concatenate([d.breakpoints for d in dists]), [1.0])
    atoms = barycenter_quantile(dists, w, q)
    counts = np.rint(np.diff(q, prepend=0.0) * math.lcm(*(int(d.counts.sum()) for d in dists)))
    return EmpiricalDistribution(atoms, counts.astype(np.int64))


def _transport_cost(candidate, dists, w, p=2.0):
    return sum(wi * wasserstein(candidate, d, p) for wi, d in zip(w, dists))


def test_barycenter_optimality_against_brute_force(rng):
    """The closed-form barycenter beats every discrete candidate measure.

    Oracle: candidates are all weightings (on a simplex grid) of the merged
    atom set; the quadratic transport cost of the closed-form barycenter must
    be minimal among them.
    """
    levels = 4  # simplex grid resolution
    for trial in range(8):
        d1 = EmpiricalDistribution(*random_distribution(rng, max_atoms=4))
        d2 = EmpiricalDistribution(*random_distribution(rng, max_atoms=4))
        wv = rng.random()
        w = np.array([wv, 1 - wv])
        beta = _materialize_barycenter([d1, d2], w)
        best = _transport_cost(beta, [d1, d2], w)

        support = np.union1d(d1.atoms, d2.atoms)
        for combo in itertools.product(range(levels + 1), repeat=support.size):
            if sum(combo) != levels:
                continue
            counts = np.array(combo)
            keep = counts > 0
            cand = EmpiricalDistribution(support[keep], counts[keep])
            assert best <= _transport_cost(cand, [d1, d2], w) + 1e-9


# -- transport (tabulated by RepairPlan) -----------------------------------------


def test_transport_examples():
    d1, d2 = dist(D_HIGH), dist(D_LOW)
    w = [1, 1]
    assert to_barycenter([d1, d2], w, 0, 0.2) == pytest.approx(0.15)
    # all weight on the source: identity at atoms.  Every plan group has a
    # positive count, so this case is read off the definition Q_bary o F.
    for a in d1.atoms:
        assert barycenter_quantile([d1, d2], [1.0, 0.0], d1.cdf(a)) == a
    # identical distributions: nothing to move, at atoms
    for a in d1.atoms:
        assert to_barycenter([d1, d1], w, 0, a) == a


def test_transport_monotone(rng):
    for _ in range(10):
        d1 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        d2 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        w = rng.integers(1, 10, 2)
        xs = np.sort(rng.random(30))
        out = to_barycenter([d1, d2], w, 0, xs)
        assert np.all(np.diff(out) >= -1e-15)


def test_transport_map_stays_in_unit_interval(rng):
    for _ in range(10):
        d1 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        d2 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        w = rng.integers(1, 10, 2)
        out = to_barycenter([d1, d2], w, 0, rng.random(40))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
    for bad in (1.5, np.nan):  # NaN used to map to a finite score
        with pytest.raises(DatasetError, match="outside plan domain"):
            to_barycenter([d1, d2], w, 0, bad)


def test_transport_map_pushes_source_onto_target(rng):
    # equal-size samples share quantile levels, so pushing the source atoms
    # through T reproduces the barycenter exactly
    src, other = dist(rng.random(40)), dist(rng.random(40))
    pushed = EmpiricalDistribution(to_barycenter([src, other], [3, 7], 0, src.atoms), src.counts)
    assert wasserstein(pushed, _materialize_barycenter([src, other], [0.3, 0.7]), 1.0) <= 1e-12


def test_transport_out_of_sample_hits_barycenter_extremes():
    d1, d2 = dist(D_HIGH), dist(D_LOW)
    w = [0.5, 0.5]
    lo = to_barycenter([d1, d2], [1, 1], 0, 0.0)   # below every atom
    hi = to_barycenter([d1, d2], [1, 1], 0, 1.0)   # above every atom
    assert lo == pytest.approx(barycenter_quantile([d1, d2], w, 0.0))
    assert hi == pytest.approx(barycenter_quantile([d1, d2], w, 1.0))
