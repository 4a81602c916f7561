import numpy as np
import pytest

import base64
import json

from fairrepair import (
    PR,
    DatasetError,
    EmpiricalDistribution,
    RepairPlan,
    ScoreDomain,
    ScoredDataset,
    ThresholdGrid,
    barycenter_quantile,
    fit_plan,
    load_plan,
    rate_curve,
    save_plan,
    wasserstein,
)

from conftest import (UNIT, group_shares, make_dataset, random_binary_dataset, random_distribution, traced_peak,
                      two_equal_groups)

BINARY = {"A": [0.2, 0.4, 0.6, 0.8], "B": [0.1, 0.2, 0.3, 0.4]}


def binary_plan():
    return fit_plan(make_dataset(BINARY))


# -- fitting -------------------------------------------------------------------


def test_fit_equal_groups_half_weights():
    plan = binary_plan()
    assert plan.group_weights.tolist() == [0.5, 0.5]
    assert plan.groups == ("A", "B")
    assert all(plan.lambdas[g] == 1.0 for g in plan.groups)


def test_fit_single_group_rejected():
    ds = make_dataset({"A": [0.1, 0.2, 0.3]})
    with pytest.raises(DatasetError, match="repair needs at least 2 distinct groups"):
        fit_plan(ds)
    fitted = EmpiricalDistribution.from_samples(ds.scores)
    with pytest.raises(DatasetError, match="repair needs at least 2 distinct groups"):
        RepairPlan(UNIT, ("A",), {"A": fitted}, {"A": 1.0})


def test_fit_four_groups():
    ds = make_dataset({g: list(np.linspace(0.1 * i, 0.5 + 0.1 * i, 5)) for i, g in enumerate("abcd")})
    plan = fit_plan(ds)
    assert len(plan.fitted) == 4
    assert abs(plan.group_weights.sum() - 1.0) < 1e-12


def test_group_weights_are_the_proportions(rng):
    """Derived from the fitted counts, the group weights are the groups' shares of the rows bit for bit."""
    ds = make_dataset({g: list(rng.random(n)) for g, n in zip("abc", (7, 300, 4001))})
    assert fit_plan(ds).group_weights.tobytes() == group_shares(ds).tobytes()


def test_fit_is_label_free():
    labeled = make_dataset(BINARY, {"A": [1, 0, 1, 0], "B": [1, 1, 0, 0]})
    unlabeled = make_dataset(BINARY)
    p1, p2 = fit_plan(labeled), fit_plan(unlabeled)
    for g in p1.groups:
        assert np.array_equal(p1.fitted[g].atoms, p2.fitted[g].atoms)


# -- total repair and the shift t(x) = T_g(x) - x ------------------------------------------------------


def test_total_repair_binary_example():
    plan = binary_plan()
    assert plan.total_repair_score("A", 0.2) == pytest.approx(0.15)
    assert plan.total_repair_score("A", 0.2) - 0.2 == pytest.approx(-0.05)


def test_total_repair_identity_for_identical_groups():
    ds = make_dataset({"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]})
    plan = fit_plan(ds)
    for x in (0.2, 0.4, 0.6):
        assert plan.total_repair_score("A", x) == pytest.approx(x, abs=1e-15)
        assert plan.total_repair_score("A", x) - x == pytest.approx(0.0, abs=1e-15)


def test_dominant_group_barely_moves():
    # 999:1-style proportions: the heavy group nearly owns the barycenter
    heavy = list(np.linspace(0.3, 0.7, 999))
    light = [0.05, 0.1]
    ds = make_dataset({"H": heavy, "L": light})
    plan = fit_plan(ds)
    xs = np.asarray(heavy[10:990:100])
    assert np.max(np.abs(plan.total_repair_score("H", xs) - xs)) < 0.01


def test_shift_bounded_by_domain_width():
    plan = binary_plan()
    xs = np.linspace(0, 1, 21)
    assert np.all(np.abs(plan.total_repair_score("A", xs) - xs) <= 1.0)


def test_unknown_group_rejected():
    plan = binary_plan()
    with pytest.raises(DatasetError, match="not in plan"):
        plan.total_repair_score("Z", 0.5)
    with pytest.raises(DatasetError, match="not in plan"):
        plan.repaired_score("Z", 0.5)


def test_compiled_map_matches_composition_oracle(rng):
    """The tabulated map equals Q_bary(F_g(x)) evaluated directly, bit for bit,
    including points below the smallest and above the largest fitted atom."""
    for domain in (UNIT, ScoreDomain(-20.0, 80.0)):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            dists = [EmpiricalDistribution(*random_distribution(rng, max_atoms=8)) for _ in range(k)]
            totals = np.array([d.counts.sum() for d in dists])
            w = totals / totals.sum()
            groups = tuple(f"g{i}" for i in range(k))
            plan = RepairPlan(domain, groups, dict(zip(groups, dists)), {g: 1.0 for g in groups})
            for g, d in zip(groups, dists):
                z = np.concatenate((
                    [0.0, d.atoms[0] / 2, (1.0 + d.atoms[-1]) / 2, 1.0],
                    d.atoms, np.nextafter(d.atoms, 0.0), rng.random(50),
                ))
                x = domain.denormalize(z)
                reference = domain.denormalize(
                    np.clip(barycenter_quantile(dists, w, d.cdf(domain.normalize(x))), 0.0, 1.0)
                )
                assert np.array_equal(plan.total_repair_score(g, x), reference)
                assert plan.total_repair_score(g, float(x[1])) == reference[1]


@pytest.mark.parametrize("domain", [UNIT, ScoreDomain(0, 100), ScoreDomain(-3, 7.5)],
                         ids=["0:1", "0:100", "-3:7.5"])
def test_full_repair_stays_in_domain_when_weights_sum_above_one(domain):
    """Group sizes 2, 2, 3, 3, 3 give weights that sum to 1 + 2**-52, so the
    barycenter's top quantile reads an ulp above 1 unless the table is clipped."""
    groups = {f"g{k}": [domain.lo] + [domain.hi] * (n - 1) for k, n in enumerate((2, 2, 3, 3, 3))}
    plan = fit_plan(make_dataset(groups, domain=domain))
    assert plan.group_weights.sum() > 1
    for g, scores in groups.items():
        assert plan.total_repair_score(g, scores).max() == domain.hi
        assert plan.total_repair_score(g, domain.hi) - domain.hi == 0.0


# -- apply -----------------------------------------------------------------------


def test_apply_lambda_zero_is_identity():
    ds = make_dataset(BINARY)
    plan = fit_plan(ds).with_lambdas({"A": 0.0, "B": 0.0})
    out = plan.apply(ds)
    assert np.array_equal(out.scores, ds.scores)


def test_apply_lambda_one_equals_total_repair():
    ds = make_dataset(BINARY)
    plan = fit_plan(ds)
    out = plan.apply(ds)
    for g in ds.groups:
        assert np.allclose(np.sort(out.group_scores(g)),
                           np.sort(plan.total_repair_score(g, ds.group_scores(g))))


def test_apply_half_lambda_affine_formula():
    ds = make_dataset(BINARY)
    plan = fit_plan(ds).with_lambdas({"A": 0.5, "B": 0.5})
    assert plan.repaired_score("A", 0.2) == pytest.approx(0.175)  # 0.2 + 0.5 * (-0.05)


def test_apply_passes_labels_through():
    labels = {"A": [1, 0, 1, 0], "B": [0, 1, 0, 1]}
    ds = make_dataset(BINARY, labels)
    out = fit_plan(ds).apply(ds)
    assert np.array_equal(out.labels, ds.labels)
    assert out.groups == ds.groups


def test_apply_rejects_unknown_group_and_domain_mismatch():
    ds = make_dataset(BINARY)
    plan = fit_plan(ds)
    other = make_dataset({"A": [0.2, 0.4], "C": [0.5, 0.6]})
    with pytest.raises(DatasetError, match="not in plan"):
        plan.apply(other)
    scaled = make_dataset({"A": [20.0, 40.0], "B": [10.0, 30.0]}, domain=ScoreDomain(0, 100))
    with pytest.raises(DatasetError, match="domain"):
        plan.apply(scaled)


def test_apply_stays_in_domain(rng):
    ds = random_binary_dataset(rng)
    out = fit_plan(ds).apply(ds)
    assert out.scores.min() >= 0.0 and out.scores.max() <= 1.0


# -- repaired distributions -------------------------------------------------------


def test_repaired_distribution_lambda_zero_is_fitted():
    plan = binary_plan()
    d = plan.repaired_distribution("A", 0.0)
    assert np.array_equal(d.atoms, plan.fitted["A"].atoms)


def test_repaired_distribution_half_lambda_atom():
    plan = binary_plan()
    d = plan.repaired_distribution("A", 0.5)
    assert d.atoms[0] == pytest.approx(0.175)


def test_total_repair_collapses_groups():
    # both groups' lambda=1 images sit on the shared barycenter
    ds = make_dataset(BINARY)
    plan = fit_plan(ds)
    dA = plan.repaired_distribution("A", 1.0)
    dB = plan.repaired_distribution("B", 1.0)
    assert wasserstein(dA, dB, 1.0) < 1e-12  # equal-count groups share quantile levels


def test_repaired_distribution_lambda_out_of_range():
    with pytest.raises(DatasetError):
        binary_plan().repaired_distribution("A", 1.5)


def test_reweighted_barycenter_equivalence(rng):
    """Binary lambda-repair equals the two-measure barycenter with weights
    (1 - lam + lam * p_g, lam * (1 - p_g)), atom for atom."""
    for _ in range(10):
        ds = random_binary_dataset(rng, n_per_group=(40, 60))
        plan = fit_plan(ds)
        lam = float(rng.random())
        for gi, g in enumerate(plan.groups):
            other = plan.groups[1 - gi]
            p_g = plan.group_weights[gi]
            w = (1.0 - lam + lam * p_g, lam * (1.0 - p_g))
            d = plan.fitted[g]
            expected = (
                w[0] * d.atoms
                + w[1] * np.asarray(plan.fitted[other].quantile(d.breakpoints))
            )
            got = plan.repaired_distribution(g, lam)
            merged = EmpiricalDistribution(expected, d.counts)
            assert np.max(np.abs(got.atoms - merged.atoms)) <= 1e-12


def test_geodesic_constant_speed(rng):
    """W1 along the repair path scales linearly in |lam2 - lam1|."""
    for _ in range(5):
        ds = random_binary_dataset(rng, n_per_group=(50, 80))
        plan = fit_plan(ds)
        for g in plan.groups:
            base = plan.fitted[g]
            beta_g = plan.repaired_distribution(g, 1.0)
            full = wasserstein(base, beta_g, 1.0)
            for l1, l2 in ((0.0, 0.25), (0.25, 0.75), (0.5, 1.0), (0.0, 1.0), (0.75, 1.0)):
                d1 = plan.repaired_distribution(g, l1)
                d2 = plan.repaired_distribution(g, l2)
                assert wasserstein(d1, d2, 1.0) == pytest.approx(abs(l2 - l1) * full, abs=1e-9)


def test_repair_preserves_within_group_order(rng):
    ds = random_binary_dataset(rng)
    plan = fit_plan(ds)
    xs = np.sort(rng.random(50))
    for lam in (0.0, 0.3, 0.7, 1.0):
        for g in plan.groups:
            out = plan.with_lambdas({g: lam}).repaired_score(g, xs)
            assert np.all(np.diff(out) >= 0.0)


def test_sdp_at_full_repair(rng):
    """Max PR gap over a fine grid after lambda=1 repair, bounded by atom mass."""
    ds = random_binary_dataset(rng, n_per_group=(300, 500))
    plan = fit_plan(ds)
    repaired = plan.apply(ds)
    grid = ThresholdGrid.linspace(ds.domain, 1001)
    curve = rate_curve(repaired, PR, grid)
    gap = np.max(np.abs(curve.values["a"] - curve.values["b"]))
    assert gap <= 2.0 / min(ds.group_scores(g).size for g in ds.groups)


# -- serialization ------------------------------------------------------------------


def test_plan_roundtrip(tmp_path):
    ds = make_dataset(BINARY, domain=UNIT)
    plan = fit_plan(ds).with_lambdas({"A": 0.25, "B": 0.75})
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    back = load_plan(path)
    assert back.groups == plan.groups
    assert np.array_equal(back.group_weights, plan.group_weights)
    assert back.lambdas == plan.lambdas
    for g in plan.groups:
        assert np.array_equal(back.fitted[g].atoms, plan.fitted[g].atoms)
        assert np.array_equal(back.fitted[g].counts, plan.fitted[g].counts)
    # bit-reproducible application
    assert np.array_equal(back.apply(ds).scores, plan.apply(ds).scores)


def test_with_lambdas_validates_range():
    plan = binary_plan()
    with pytest.raises(DatasetError, match="lambda"):
        plan.with_lambdas({"A": 1.5})
    with pytest.raises(DatasetError, match="lambdas"):
        plan.with_lambdas({"Z": 0.5})  # not a plan group
    updated = plan.with_lambdas({"A": 0.25})
    assert updated.lambdas == {"A": 0.25, "B": 1.0}
    assert plan.lambdas["A"] == 1.0  # original untouched


def test_plan_rejects_wrong_version(tmp_path):
    path = tmp_path / "plan.json"
    save_plan(binary_plan(), path)
    data = path.read_text().replace('"format_version": 3', '"format_version": 99')
    path.write_text(data)
    with pytest.raises(DatasetError, match="format_version"):
        load_plan(path)


def test_format_version_1_plan_asks_for_a_refit(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "format_version": 1, "domain": {"lo": 0.0, "hi": 1.0}, "groups": ["A", "B"],
        "group_weights": [0.5, 0.5], "lambdas": {"A": 1.0, "B": 1.0},
        "fitted": {g: {"atoms": [0.2, 0.4], "weights": [0.5, 0.5]} for g in "AB"},
    }))
    with pytest.raises(DatasetError, match=r"format_version 1;.*re-run `fairrepair fit`"):
        load_plan(path)


def test_total_repair_rejects_nan():
    # A NaN score used to come back as a finite repaired score.
    plan = binary_plan()
    for x in (np.nan, [0.2, np.nan]):
        with pytest.raises(DatasetError, match="outside plan domain"):
            plan.total_repair_score("A", x)
        with pytest.raises(DatasetError, match="outside plan domain"):
            plan.repaired_score("A", x)


def test_out_of_sample_scores_map_to_barycenter_extremes():
    ds = make_dataset({"A": [0.3, 0.4, 0.5], "B": [0.5, 0.6, 0.7]})
    plan = fit_plan(ds)
    dists = [plan.fitted[g] for g in plan.groups]
    lo = barycenter_quantile(dists, plan.group_weights, 0.0)
    hi = barycenter_quantile(dists, plan.group_weights, 1.0)
    assert plan.total_repair_score("A", 0.0) == pytest.approx(lo)
    assert plan.total_repair_score("A", 0.99) == pytest.approx(hi)


def _group_weights_key(data):
    data["group_weights"] = [0.5, 0.5]  # format_version 1's key: derived from the counts now


def _nan_count(data):
    # A NaN's float64 bytes read as int64 are far above 2**53.
    nan_first = np.r_[np.nan, np.ones(len(BINARY["A"]) - 1)]
    data["fitted"]["A"]["counts"] = base64.b64encode(nan_first.astype("<f8").tobytes()).decode("ascii")


def _extra_fitted_group(data):
    data["fitted"]["Z"] = data["fitted"]["A"]


def _extra_lambda_group(data):
    data["lambdas"]["Z"] = 0.5


def _missing_domain(data):
    del data["domain"]


def _missing_atoms(data):
    del data["fitted"]["B"]["atoms"]


def _fitted_not_an_object(data):
    data["fitted"] = [1, 2]


def _bad_number(data):
    data["domain"]["hi"] = "high"


def _groups_as_string(data):
    data["groups"] = "".join(data["groups"])  # "AB" iterates into ('A', 'B')


def _unknown_top_level_key(data):
    data["note"] = 1


def _unknown_domain_key(data):
    data["domain"]["step"] = 0.1


def _unknown_fitted_key(data):
    data["fitted"]["A"]["note"] = 1


@pytest.mark.parametrize("corrupt", [
    _group_weights_key, _nan_count, _extra_fitted_group, _extra_lambda_group,
    _missing_domain, _missing_atoms, _fitted_not_an_object, _bad_number,
    _groups_as_string, _unknown_top_level_key, _unknown_domain_key, _unknown_fitted_key,
], ids=lambda f: f.__name__.strip("_"))
def test_load_plan_rejects_malformed_plan(tmp_path, corrupt):
    path = tmp_path / "plan.json"
    save_plan(binary_plan(), path)
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    with pytest.raises(DatasetError):
        load_plan(path)


def test_load_plan_rejects_non_object_and_non_utf8(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("[1, 2]")
    with pytest.raises(DatasetError, match="JSON object"):
        load_plan(path)
    path.write_bytes(b'{"format_version": 2, "groups": ["\xff"]}')
    with pytest.raises(DatasetError, match="not valid plan JSON"):
        load_plan(path)


def test_fit_plan_memory_per_row():
    """tracemalloc peaks per row of fit_plan at 2e5 rows in two equal groups.

    The peak is in the second group's EmpiricalDistribution.  The first
    group's atoms, counts and levels are kept (24 B per its row, 12 B a row),
    and the second's normalized scores and from_samples' counts of 1 are alive
    (16 B per its row, 8 B).  So are four of the constructor's 8-byte arrays,
    as it drops each temporary once used: the sorted counts, merge index,
    merged atoms and merged counts (32 B per its row, 16 B).  That is 36 B, and
    the 38 B bound leaves less room than one more 8-byte value per row of a
    group (4 B), such as the sort order kept to the end.
    """
    n = 200_000
    ds = two_equal_groups(n)
    assert traced_peak(lambda: fit_plan(ds)) / n <= 38


def test_save_plan_memory_per_atom(tmp_path):
    """tracemalloc peaks per atom of save_plan on a plan of 2e5 distinct atoms
    in two equal groups.

    to_dict holds every group's atoms and counts as base64 text: 4/3
    characters per byte of 16 B an atom, 21.3 B.  json.dump writes each text
    as a quoted copy, and the text file encodes that copy to bytes; for one
    group's atoms each copy is 4/3 of 8 B per its atom, 5.3 B an atom.  That is 32 B,
    and the 34 B bound leaves less room than one more 8-byte value per atom of
    a group (4 B), such as a kept copy of its atoms; the whole JSON text built
    before the write would add 21.3 B.
    """
    n = 200_000
    plan = fit_plan(two_equal_groups(n))
    assert traced_peak(lambda: save_plan(plan, tmp_path / "plan.json")) / n <= 34


def test_apply_memory_per_row():
    """tracemalloc peaks per row of RepairPlan.apply at 2e5 rows in two equal
    groups, with the full-repair table already built.

    apply holds its output (8 B a row) and one group's row mask (1 B).  A
    group's pass peaks in _geodesic with five float arrays of the group's rows
    alive: the scores, their full repair T, (1 - lambda) x, lambda T and the
    sum, 20 B a row for half the rows.  That is 29 B, or 25 B where numpy adds
    into the temporary (1 - lambda) x in place, as it does for arrays this
    large.  replace_scores then copies the output: 16 B, plus at most 3 B of
    masks from its checks.  The 30 B bound leaves less room than one more
    8-byte value a row, such as a copy of the scores or of the group index.
    """
    n = 200_000
    ds = two_equal_groups(n)
    plan = fit_plan(ds).with_lambdas({"a": 0.3, "b": 0.7})
    plan.total_repair_score("a", [0.5])  # builds the table
    assert traced_peak(lambda: plan.apply(ds)) / n <= 30


def test_full_repair_table_memory_per_row():
    """tracemalloc peaks per row of the full-repair table's first use at 2e5
    rows in two equal groups.

    Each group's table is the clipped barycenter quantile at 0 and at the
    group's levels: 8 B per its row, 4 B a row.  While the second group's is
    built, the first's is kept (4 B), and the second's levels q (4 B) and the
    running sum (4 B) are alive.  A group's quantile lookup then holds two more
    arrays (8 B): the clipped levels and their index, the index and the atoms
    gathered, or those atoms and their weighted copy; adding that copy to the
    sum holds the same two, the copy and the new sum.  That is 20 B, and the
    22 B bound leaves less room than one more 8-byte value per row of a group
    (4 B), such as a kept copy of the levels.
    """
    n = 200_000
    plan = fit_plan(two_equal_groups(n))
    assert traced_peak(lambda: plan.total_repair_score("a", [0.5])) / n <= 22


def test_load_plan_memory_per_atom(tmp_path):
    """tracemalloc peaks per atom of load_plan on a plan of 2e5 distinct atoms
    in two equal groups.

    The parsed JSON keeps every group's base64 text until the plan is built:
    4/3 characters per byte of 16 B an atom, 21.3 B.  The peak is in the
    second group's EmpiricalDistribution.  The first group's atoms, counts
    and levels are kept (24 B per its atom, 12 B an atom), and the second's
    decoded atoms and counts (16 B per its atom, 8 B) and its count check's
    mask (0.5 B) are alive.  So are four of the constructor's 8-byte arrays,
    as it drops each temporary once used: the sorted counts, merge index,
    merged atoms and merged counts (32 B per its atom, 16 B).  That is 57.8 B,
    and the 60 B bound leaves less room than one more 8-byte value per atom of
    a group (4 B), such as the sort order kept to the end.
    """
    n = 200_000
    save_plan(fit_plan(two_equal_groups(n)), tmp_path / "plan.json")
    assert traced_peak(lambda: load_plan(tmp_path / "plan.json")) / n <= 60
