import itertools

import numpy as np
import pytest

from fairrepair import (
    DatasetError,
    EmpiricalDistribution,
    RepairPlan,
    barycenter_quantile,
    wasserstein,
)

from conftest import UNIT, random_distribution

D_HIGH = [0.2, 0.4, 0.6, 0.8]
D_LOW = [0.1, 0.2, 0.3, 0.4]


def dist(values):
    return EmpiricalDistribution.from_samples(values)


def to_barycenter(dists, w, source_index, x):
    """Full repair of source group x through a plan: F_beta^-1(F_source(x))."""
    groups = tuple(f"g{i}" for i in range(len(dists)))
    plan = RepairPlan(UNIT, groups, np.asarray(w, dtype=float), dict(zip(groups, dists)),
                      {g: 1.0 for g in groups})
    return plan.total_repair_score(groups[source_index], x)


# -- cdf / quantile ----------------------------------------------------------


def test_cdf_counts_mass_at_or_below():
    d = dist(D_HIGH)
    assert d.cdf(0.4) == 0.5  # 2 of 4 atoms <= 0.4
    assert d.cdf(0.1) == 0.0  # below the smallest atom
    assert d.cdf(0.8) == 1.0  # at the largest atom
    assert d.cdf(0.5) == 0.5  # right-continuity between atoms


def test_cdf_monotone(rng):
    atoms, w = random_distribution(rng, max_atoms=8)
    d = EmpiricalDistribution(atoms, w)
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


def test_quantile_nondecreasing(rng):
    atoms, w = random_distribution(rng, max_atoms=7)
    d = EmpiricalDistribution(atoms, w)
    a = np.sort(rng.random(40))
    assert np.all(np.diff(d.quantile(a)) >= -0.0)


def test_quantile_cdf_identity_at_atoms(rng):
    for _ in range(30):
        atoms, w = random_distribution(rng, max_atoms=6)
        d = EmpiricalDistribution(atoms, w)
        for a in d.atoms:
            assert d.quantile(d.cdf(a)) == a


def test_ties_merge():
    d = dist([0.3, 0.3, 0.3, 0.7])
    assert d.n_atoms == 2
    assert np.allclose(d.weights, [0.75, 0.25])


def test_constructor_contracts():
    with pytest.raises(DatasetError):
        EmpiricalDistribution([0.5], [0.9])      # weights must sum to 1
    with pytest.raises(DatasetError):
        EmpiricalDistribution([0.2, 1.4], [0.5, 0.5])  # atom outside [0, 1]
    with pytest.raises(DatasetError):
        EmpiricalDistribution([0.2, 0.4], [0.5, -0.5])
    with pytest.raises(DatasetError):
        EmpiricalDistribution([0.2, 0.4], [1.0, float("nan")])
    with pytest.raises(DatasetError):
        EmpiricalDistribution.from_samples([0.5])


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
    same = EmpiricalDistribution(d1.atoms, d1.weights)
    assert wasserstein(d1, same, 1.0) == 0.0
    other = EmpiricalDistribution(np.clip(d1.atoms + 0.01, 0, 1), d1.weights)
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


def test_barycenter_quantile_nondecreasing(rng):
    dists = [EmpiricalDistribution(*random_distribution(rng)) for _ in range(3)]
    w = np.array([0.2, 0.5, 0.3])
    q = np.linspace(0, 1, 101)
    vals = barycenter_quantile(dists, w, q)
    assert np.all(np.diff(vals) >= -1e-15)


def _materialize_barycenter(dists, w):
    """Barycenter as an explicit distribution on the merged quantile grid."""
    grids = np.concatenate([d.breakpoints for d in dists])
    q = np.union1d(grids, [1.0])
    atoms = barycenter_quantile(dists, w, q)
    weights = np.diff(q, prepend=0.0)
    keep = weights > 0
    return EmpiricalDistribution(np.asarray(atoms)[keep], weights[keep])


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
            weights = np.array(combo, dtype=float) / levels
            keep = weights > 0
            if keep.sum() == 0:
                continue
            cand = EmpiricalDistribution(support[keep], weights[keep])
            assert best <= _transport_cost(cand, [d1, d2], w) + 1e-9


# -- transport (tabulated by RepairPlan) -----------------------------------------


def test_transport_examples():
    d1, d2 = dist(D_HIGH), dist(D_LOW)
    w = [0.5, 0.5]
    assert to_barycenter([d1, d2], w, 0, 0.2) == pytest.approx(0.15)
    # all weight on the source: identity at atoms
    for a in d1.atoms:
        assert to_barycenter([d1, d2], [1.0, 0.0], 0, a) == a
    # identical distributions: nothing to move, at atoms
    for a in d1.atoms:
        assert to_barycenter([d1, d1], w, 0, a) == a


def test_transport_monotone(rng):
    for _ in range(10):
        d1 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        d2 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        wv = rng.random()
        xs = np.sort(rng.random(30))
        out = to_barycenter([d1, d2], [wv, 1 - wv], 0, xs)
        assert np.all(np.diff(out) >= -1e-15)


def test_transport_map_stays_in_unit_interval(rng):
    for _ in range(10):
        d1 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        d2 = EmpiricalDistribution(*random_distribution(rng, max_atoms=6))
        wv = rng.random()
        out = to_barycenter([d1, d2], [wv, 1 - wv], 0, rng.random(40))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
    with pytest.raises(DatasetError):
        to_barycenter([d1, d2], [wv, 1 - wv], 0, 1.5)


def test_transport_map_pushes_source_onto_target(rng):
    # equal-size samples share quantile levels, so pushing the source atoms
    # through T reproduces the barycenter exactly
    src, other = dist(rng.random(40)), dist(rng.random(40))
    w = [0.3, 0.7]
    pushed = EmpiricalDistribution(to_barycenter([src, other], w, 0, src.atoms), src.weights)
    assert wasserstein(pushed, _materialize_barycenter([src, other], w), 1.0) <= 1e-12


def test_transport_out_of_sample_hits_barycenter_extremes():
    d1, d2 = dist(D_HIGH), dist(D_LOW)
    w = [0.5, 0.5]
    lo = to_barycenter([d1, d2], w, 0, 0.0)   # below every atom
    hi = to_barycenter([d1, d2], w, 0, 1.0)   # above every atom
    assert lo == pytest.approx(barycenter_quantile([d1, d2], w, 0.0))
    assert hi == pytest.approx(barycenter_quantile([d1, d2], w, 1.0))
