import csv

import numpy as np
import pytest

from fairrepair import (
    PR,
    TPR,
    DatasetError,
    MetricCombo,
    ScoreDomain,
    load_csv,
    parse_combo,
    parse_metric,
    subset_by_label,
    validate_dataset,
    write_csv,
)
from fairrepair.dataset import FNR, FPR, NR, TNR

from conftest import UNIT, make_dataset, random_binary_dataset


def test_symmetric_counts_give_half_half():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]})
    assert ds.groups == ("A", "B")
    assert np.allclose(ds.proportions, [0.5, 0.5])


def test_count_ratio_proportions():
    # 4 A-rows vs 2 B-rows: p = (2/3, 1/3)
    ds = make_dataset({"A": [0.2, 0.4, 0.5, 0.6], "B": [0.1, 0.3]})
    assert np.allclose(ds.proportions, [2 / 3, 1 / 3])
    assert abs(ds.proportions.sum() - 1.0) < 1e-12


def test_score_out_of_domain_rejected():
    with pytest.raises(DatasetError, match="out of domain"):
        validate_dataset([(1.2, "A"), (0.1, "A"), (0.5, "B"), (0.6, "B")], UNIT)


def test_zero_rows_rejected():
    with pytest.raises(DatasetError, match="zero rows"):
        validate_dataset([], UNIT)


def test_single_row_group_rejected():
    with pytest.raises(DatasetError, match="at least 2"):
        validate_dataset([(0.2, "A"), (0.4, "A"), (0.1, "B")], UNIT)


def test_non_binary_label_rejected():
    with pytest.raises(DatasetError, match="non-binary label"):
        validate_dataset([(0.2, "A", 2), (0.4, "A", 0)], UNIT)


def test_nan_score_rejected():
    with pytest.raises(DatasetError):
        validate_dataset([(float("nan"), "A"), (0.4, "A")], UNIT)


def test_groups_ordered_lexicographically():
    ds = validate_dataset([(0.1, "z"), (0.2, "z"), (0.3, "m"), (0.4, "m"), (0.5, "a"), (0.6, "a")], UNIT)
    assert ds.groups == ("a", "m", "z")


def test_domain_requires_hi_above_lo():
    with pytest.raises(DatasetError):
        ScoreDomain(1.0, 1.0)
    with pytest.raises(DatasetError, match="has width inf"):  # finite bounds, infinite width
        ScoreDomain(-1e308, 1e308)
    assert ScoreDomain(0.0, 1e308).width == 1e308


def test_domain_normalization_roundtrip():
    dom = ScoreDomain(0.0, 100.0)
    x = np.array([0.0, 25.0, 100.0])
    assert np.allclose(dom.denormalize(dom.normalize(x)), x)
    assert np.allclose(dom.normalize(x), [0.0, 0.25, 1.0])


def test_rows_accessor_roundtrip():
    rows = [(0.2, "A", 1), (0.4, "A", 0), (0.1, "B", None), (0.3, "B", None)]
    ds = validate_dataset(rows, UNIT)
    got = [
        (float(s), ds.groups[g], None if l < 0 else int(l))
        for s, g, l in zip(ds.scores, ds.group_indices, ds.labels)
    ]
    assert got == rows


# -- subset_by_label ---------------------------------------------------------


def _labeled():
    return make_dataset(
        {"A": [0.2, 0.4, 0.7], "B": [0.1, 0.5, 0.9]},
        {"A": [1, 0, 1], "B": [1, 0, 0]},
    )


def test_unconditional_subset_is_identity():
    ds = _labeled()
    sub = subset_by_label(ds, PR)
    assert sub is ds


def test_tpr_subset_keeps_positive_rows_only():
    sub = subset_by_label(_labeled(), TPR)
    assert np.all(sub.labels == 1)
    assert len(sub) == 3
    assert sorted(sub.group_scores("A")) == [0.2, 0.7]


def test_subset_partitions_rows():
    ds = _labeled()
    y1 = subset_by_label(ds, TPR)
    y0 = subset_by_label(ds, FPR)
    assert len(y1) + len(y0) == len(ds)
    merged = np.sort(np.concatenate([y1.scores, y0.scores]))
    assert np.array_equal(merged, np.sort(ds.scores))


def test_derived_datasets_match_the_constructor():
    """subset_by_label and replace_scores give the arrays validate_dataset builds."""
    ds = random_binary_dataset(np.random.default_rng(3), n_per_group=(40, 30))

    def same(got, rows):
        want = validate_dataset(rows, ds.domain)
        assert got.groups == want.groups
        for a, b in ((got.scores, want.scores), (got.labels, want.labels),
                     (got.group_indices, want.group_indices), (got.proportions, want.proportions)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    rows = list(zip(ds.scores, (ds.groups[g] for g in ds.group_indices), ds.labels))
    same(subset_by_label(ds, TPR), [r for r in rows if r[2] == 1])
    new = ds.scores[::-1].copy()
    same(ds.replace_scores(new), [(s, g, l) for s, (_, g, l) in zip(new, rows)])
    with pytest.raises(DatasetError, match="score out of domain"):
        ds.replace_scores(new + 1.0)


def test_conditioning_on_unlabeled_data_errors():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]})
    with pytest.raises(DatasetError, match="unlabeled"):
        subset_by_label(ds, TPR)
    # unconditional is fine
    assert subset_by_label(ds, PR) is ds


def test_group_emptied_by_conditioning_errors():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]}, {"A": [1, 0], "B": [0, 0]})
    with pytest.raises(DatasetError, match="empty under Y=1"):
        subset_by_label(ds, TPR)


# -- metric selectors --------------------------------------------------------


def test_metric_kind_table():
    assert (PR.label_condition, PR.predicted_class) == (None, 1)
    assert (TPR.label_condition, TPR.predicted_class) == (1, 1)
    assert (FPR.label_condition, FPR.predicted_class) == (0, 1)
    assert (NR.label_condition, NR.predicted_class) == (None, 0)
    assert (TNR.label_condition, TNR.predicted_class) == (0, 0)
    assert (FNR.label_condition, FNR.predicted_class) == (1, 0)


def test_parse_metric_and_combo():
    assert parse_metric("TPR") is TPR
    combo = parse_combo("tpr:1,fpr:0.5")
    assert combo.kinds == [TPR, FPR]
    assert combo.terms[1][1] == 0.5
    assert parse_combo("pr").single_kind is PR


def test_combo_rejects_negative_weight_and_empty():
    with pytest.raises(DatasetError):
        parse_combo("tpr:-1")
    with pytest.raises(DatasetError):
        MetricCombo(())
    with pytest.raises(DatasetError):
        parse_metric("accuracy")
    with pytest.raises(DatasetError, match="finite sum, got inf"):
        parse_combo("tpr:1e308,fpr:1e308")
    assert parse_combo("tpr:1e308,fpr:0").terms[0][1] == 1e308
    for text in ("tpr:0", "tpr:0,fpr:0"):  # every rate weighted 0 leaves nothing to minimize
        with pytest.raises(DatasetError, match="positive, finite sum, got 0.0"):
            parse_combo(text)


# -- CSV ---------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    ds = _labeled()
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    back = load_csv(path, UNIT)
    assert back.groups == ds.groups
    assert np.array_equal(back.scores, ds.scores)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_without_label_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("score,group\n0.1,A\n0.2,A\n0.3,B\n0.4,B\n")
    ds = load_csv(path, UNIT)
    assert not ds.is_labeled
    assert len(ds) == 4


def test_csv_missing_score_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("score,group\n0.1,A\n,A\n0.3,B\n0.4,B\n")
    with pytest.raises(DatasetError, match="missing score"):
        load_csv(path, UNIT)


@pytest.mark.parametrize("content, message", [
    ("score,group\n0.1,A\n0.2,A\nnan,B\n0.4,B\n", ":4: score out of domain: nan"),
    ("score,group\n0.1,A\n0.2,A\n0.3,B,extra\n0.4,B\n", ":4: 3 cells but the header has 2"),
    ("score,group,group\n0.1,A,A\n", "header repeats a column"),
], ids=["nan-score", "extra-cell", "duplicate-header"])
def test_csv_malformed_rows_rejected_with_line(tmp_path, content, message):
    path = tmp_path / "data.csv"
    path.write_text(content)
    with pytest.raises(DatasetError, match=message):
        load_csv(path, UNIT)


def test_csv_skips_blank_lines_and_pads_short_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("score,group,label\n0.1,A,1\n\n0.2,A\n0.3,B,0\n0.4,B,1\n")
    ds = load_csv(path, UNIT)
    assert len(ds) == 4
    assert ds.labels.tolist() == [1, -1, 0, 1]


def test_csv_roundtrip_keeps_partial_labels(tmp_path):
    ds = make_dataset({"A": [0.1, 0.2], "B": [0.3, 0.4]}, {"A": [1, None], "B": [0, 1]})
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    assert path.read_text().splitlines()[2] == "0.2,A,"
    assert load_csv(path, UNIT).labels.tolist() == ds.labels.tolist() == [1, -1, 0, 1]


def test_write_csv_keeps_old_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    write_csv(_labeled(), path)
    before = path.read_bytes()

    class HeaderThenFail:  # stands in for csv.writer
        def __init__(self, fh):
            self.fh = fh

        def writerow(self, row):
            self.fh.write(",".join(row) + "\r\n")

        def writerows(self, rows):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(csv, "writer", HeaderThenFail)
    with pytest.raises(OSError):
        write_csv(make_dataset({"A": [0.1, 0.2], "B": [0.3, 0.4]}), path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob(".tmp-*"))
