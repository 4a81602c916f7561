import dataclasses
import json

import numpy as np
import pytest

from fairrepair import (
    FNR,
    FPR,
    NR,
    PR,
    TNR,
    TPR,
    DatasetError,
    ScoredDataset,
    ThresholdGrid,
    distributional_disparity,
    rate_curve,
    subset_by_label,
)
from fairrepair.metrics import _write_curves

from conftest import UNIT, make_dataset, random_binary_dataset

GRID = ThresholdGrid.linspace(UNIT, 101)


def test_grid_contracts():
    g = ThresholdGrid.linspace(UNIT, 11)
    assert g.count == 11
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    with pytest.raises(DatasetError):
        ThresholdGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DatasetError):
        ThresholdGrid.linspace(UNIT, 1)


def test_tpr_rate_counts_positives_at_threshold():
    ds = make_dataset({"A": [0.2, 0.6, 0.9], "B": [0.1, 0.5]},
                      {"A": [1, 1, 0], "B": [1, 1]})
    curve = rate_curve(ds, TPR, GRID)
    i = np.searchsorted(GRID.points, 0.5)
    assert GRID.points[i] == 0.5
    assert curve.values["A"][i] == 0.5  # 1 of 2 positives >= 0.5


def test_pr_at_domain_lo_is_one():
    ds = make_dataset({"A": [0.2, 0.6], "B": [0.3, 0.5]})
    curve = rate_curve(ds, PR, GRID)
    for g in ds.groups:
        assert curve.values[g][0] == 1.0


def test_tnr_above_max_score_is_one():
    ds = make_dataset({"A": [0.2, 0.6], "B": [0.3, 0.5]}, {"A": [0, 0], "B": [0, 0]})
    grid = ThresholdGrid(np.array([0.0, 0.61, 1.0]))
    curve = rate_curve(ds, TNR, grid)
    for g in ds.groups:
        assert curve.values[g][1] == 1.0


def test_tie_at_threshold_counts_positive():
    ds = make_dataset({"A": [0.5, 0.7], "B": [0.5, 0.6]})
    grid = ThresholdGrid(np.array([0.0, 0.5, 1.0]))
    curve = rate_curve(ds, PR, grid)
    assert curve.values["A"][1] == 1.0  # score == tau predicted positive


def test_complement_identity(rng):
    ds = random_binary_dataset(rng)
    for pos, neg in ((PR, NR), (TPR, FNR), (FPR, TNR)):
        c1 = rate_curve(ds, pos, GRID)
        c0 = rate_curve(ds, neg, GRID)
        for g in ds.groups:
            assert np.allclose(c1.values[g] + c0.values[g], 1.0, atol=1e-15)


def test_positive_rates_monotone_nonincreasing(rng):
    ds = random_binary_dataset(rng)
    for kind in (PR, TPR, FPR):
        curve = rate_curve(ds, kind, GRID)
        for g in ds.groups:
            assert np.all(np.diff(curve.values[g]) <= 1e-15)
    for kind in (NR, TNR, FNR):
        curve = rate_curve(ds, kind, GRID)
        for g in ds.groups:
            assert np.all(np.diff(curve.values[g]) >= -1e-15)


# -- distributional disparity -------------------------------------------------


def test_identical_groups_have_zero_disparity():
    ds = make_dataset({"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]})
    rep = distributional_disparity(ds, PR, 1.0, GRID)
    assert rep.expected_gap == 0.0
    assert rep.exact_gap == 0.0
    assert rep.max_gap == 0.0


def test_pr_disparity_matches_wasserstein_example():
    ds = make_dataset({"A": [0.2, 0.4, 0.6, 0.8], "B": [0.1, 0.2, 0.3, 0.4]})
    rep = distributional_disparity(ds, PR, 1.0, ThresholdGrid.linspace(UNIT, 1001))
    assert rep.exact_gap == pytest.approx(0.25, abs=1e-15)
    assert rep.expected_gap == pytest.approx(0.25, abs=2e-3)


def test_three_groups_give_three_pairs():
    ds = make_dataset({"A": [0.1, 0.2], "B": [0.3, 0.4], "C": [0.5, 0.6]})
    rep = distributional_disparity(ds, PR, 1.0, GRID)
    assert len(rep.pairs) == 3
    assert {(p.group_a, p.group_b) for p in rep.pairs} == {("A", "B"), ("A", "C"), ("B", "C")}


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_disparity_rejects_bad_order(p):
    ds = make_dataset({"A": [0.1, 0.2], "B": [0.3, 0.4]})
    with pytest.raises(DatasetError, match="order p"):
        distributional_disparity(ds, PR, p, GRID)


def test_disparity_needs_two_groups():
    ds = make_dataset({"A": [0.1, 0.2]})
    with pytest.raises(DatasetError):
        distributional_disparity(ds, PR, 1.0, GRID)


def test_expected_gap_bounded_by_max_gap_power(rng):
    for p in (1.0, 2.0):
        ds = random_binary_dataset(rng)
        rep = distributional_disparity(ds, PR, p, GRID)
        assert rep.expected_gap <= rep.max_gap**p + 1e-12


def tied_or_untied_dataset(rng, tied):
    """Two groups of 200 and 300 rows on UNIT; tied scores sit on 21 levels."""
    ds = random_binary_dataset(rng, n_per_group=(200, 300))
    return ds.replace_scores(np.round(ds.scores * 20) / 20) if tied else ds


def test_expected_gap_is_w1_at_p1(rng):
    """At p = 1 the mean rate gap over every threshold is W_1: the same integral."""
    for tied in (False, True):
        for kind in (PR, TPR, FNR):
            rep = distributional_disparity(tied_or_untied_dataset(rng, tied), kind, 1.0, GRID)
            assert rep.expected_gap == pytest.approx(rep.exact_gap, rel=1e-12, abs=0)
    g = rng.integers(2, size=100_000)  # continuous: every row is its own atom
    s = np.clip(rng.normal(np.array([0.35, 0.65])[g], 0.13), 0.0, 1.0)
    ds = ScoredDataset(s, np.array(["a", "b"])[g], (rng.random(g.size) < s).astype(int), UNIT)
    rep = distributional_disparity(ds, TPR, 1.0, GRID)
    assert rep.expected_gap == pytest.approx(rep.exact_gap, rel=1e-12, abs=0)


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("kind", [PR, TPR, FNR], ids=str)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_gaps_match_rate_curves_on_every_merged_score(rng, tied, kind, p):
    """Oracle: rate curves read at every merged conditional score, summed by hand.

    gamma_g is constant on (u_i, u_{i+1}], so the integral over the unit domain
    is sum_i (u_{i+1} - u_i) |gamma_a(u_{i+1}) - gamma_b(u_{i+1})|^p, and the
    supremum is the largest gap at a merged score.
    """
    ds = tied_or_untied_dataset(rng, tied)
    u = np.unique(subset_by_label(ds, kind).scores)
    curve = rate_curve(ds, kind, ThresholdGrid(u))
    gap = np.abs(curve.values["a"] - curve.values["b"])
    rep = distributional_disparity(ds, kind, p, GRID)
    assert rep.expected_gap == pytest.approx(np.sum(np.diff(u) * gap[1:] ** p), rel=1e-12, abs=0)
    assert rep.max_gap == pytest.approx(gap.max(), rel=1e-12, abs=0)


def test_report_json_shape():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]})
    rep = distributional_disparity(ds, PR, 1.0, GRID)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["metric"] == "pr"
    assert set(payload["pairs"][0]) == {"groups", "expected_gap", "exact_gap", "max_gap"}
    # The report keeps the rate curve its gaps came from, outside the summary.
    assert "curve" not in payload and "curve" not in repr(rep)
    assert dataclasses.replace(rep, curve=None) == rep
    want = rate_curve(ds, PR, GRID)
    assert rep.curve.grid is GRID and rep.curve.values.keys() == want.values.keys()
    assert all(np.array_equal(rep.curve.values[g], want.values[g]) for g in want.values)


def test_curve_csv_format(tmp_path):
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]})
    curve = rate_curve(ds, PR, ThresholdGrid(np.array([0.0, 0.5, 1.0])))
    path = tmp_path / "curve.csv"
    with open(path, "w") as fh:
        _write_curves(fh, (curve,))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,group,metric,value"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].split(",")[1:3] == ["A", "pr"]
