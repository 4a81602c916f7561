import io
import os
import re
import sys

import numpy as np
import pytest

from fairrepair import (
    PR,
    TPR,
    DatasetError,
    MetricCombo,
    MetricKind,
    ScoreDomain,
    ScoredDataset,
    load_csv,
    parse_combo,
    parse_metric,
    subset_by_label,
    validate_dataset,
    write_csv,
)
from fairrepair.dataset import FNR, FPR, NR, TNR, _read_scored_csv

from conftest import (UNIT, csv_writer_bytes, group_shares, make_dataset, random_binary_dataset, traced_peak,
                      two_equal_groups)


def test_symmetric_counts_give_half_half():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]})
    assert ds.groups == ("A", "B")
    assert np.allclose(group_shares(ds), [0.5, 0.5])


def test_count_ratio_proportions():
    # 4 A-rows vs 2 B-rows: p = (2/3, 1/3)
    ds = make_dataset({"A": [0.2, 0.4, 0.5, 0.6], "B": [0.1, 0.3]})
    assert np.allclose(group_shares(ds), [2 / 3, 1 / 3])
    assert abs(group_shares(ds).sum() - 1.0) < 1e-12


def test_score_out_of_domain_rejected():
    with pytest.raises(DatasetError, match="out of domain"):
        validate_dataset([(1.2, "A"), (0.1, "A"), (0.5, "B"), (0.6, "B")], UNIT)


@pytest.mark.parametrize("scores, groups, labels", [
    ([0.1, 0.2, 0.3], ["a", "a", "b", "b"], [-1] * 4),
    ([0.1, 0.2, 0.3, 0.4], ["a", "a", "b"], [-1] * 4),
    ([0.1, 0.2, 0.3, 0.4], ["a", "a", "b", "b"], [-1] * 3),
    ([[0.1, 0.2], [0.3, 0.4]], ["a", "b"], [-1] * 2),
], ids=["scores", "groups", "labels", "2-d-scores"])
def test_unequal_length_inputs_rejected(scores, groups, labels):
    with pytest.raises(DatasetError, match="scores, groups and labels must be equal-length 1-d sequences"):
        ScoredDataset(scores, groups, labels, UNIT)


def test_zero_rows_rejected():
    with pytest.raises(DatasetError, match="zero rows"):
        validate_dataset([], UNIT)


def test_single_row_group_rejected():
    with pytest.raises(DatasetError, match="at least 2"):
        validate_dataset([(0.2, "A"), (0.4, "A"), (0.1, "B")], UNIT)


def test_non_binary_label_rejected():
    with pytest.raises(DatasetError, match="non-binary label"):
        validate_dataset([(0.2, "A", 2), (0.4, "A", 0)], UNIT)


@pytest.mark.parametrize("label, shown", [(0.5, "0.5"), (1.9, "1.9"), (float("nan"), "nan"), (-0.5, "-0.5"),
                                          ("x", "could not convert string to float: 'x'")])
def test_fractional_or_nan_label_rejected_not_truncated(label, shown):
    rows = [(0.2, "A", 1), (0.4, "A", label), (0.1, "B", 0), (0.3, "B", 0)]
    with pytest.raises(DatasetError, match=f"non-binary label: {shown}"):
        validate_dataset(rows, UNIT)
    scores, groups, labels = zip(*rows)
    with pytest.raises(DatasetError, match=f"non-binary label: {shown}"):
        ScoredDataset(scores, groups, labels, UNIT)


def test_nan_score_rejected():
    with pytest.raises(DatasetError):
        validate_dataset([(float("nan"), "A"), (0.4, "A")], UNIT)


def test_non_numeric_score_rejected():
    rows = [("a", "A"), (0.1, "A"), (0.5, "B"), (0.6, "B")]
    with pytest.raises(DatasetError, match="non-numeric score: could not convert string to float: 'a'"):
        validate_dataset(rows, UNIT)
    scores, groups = zip(*rows)
    with pytest.raises(DatasetError, match="non-numeric score"):
        ScoredDataset(scores, groups, [-1] * 4, UNIT)


@pytest.mark.parametrize("groups, shown", [
    ([1, 1, 2, 2], "1|2"),  # would save a plan that load_plan rejects
    ([None, None, "b", "b"], "None"),
    (["a", "a", 1, 1], "1"),
    (["", "", "b", "b"], "''"),
    ([["a"], ["a"], "b", "b"], r"\['a'\]"),  # unhashable: set() raised a bare TypeError
], ids=["integers", "none", "mixed", "empty", "unhashable"])
def test_group_names_must_be_non_empty_strings(groups, shown):
    scores = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(DatasetError, match=f"group names must be non-empty strings, got ({shown})$"):
        ScoredDataset(scores, groups, [-1] * 4, UNIT)
    with pytest.raises(DatasetError, match="group names must be non-empty strings"):
        validate_dataset(zip(scores, groups), UNIT)  # not coerced: None stays None, not 'None'


def test_short_row_rejected():
    with pytest.raises(DatasetError, match=r"row \(0.2,\) needs a score and a group"):
        validate_dataset([(0.1, "A"), (0.2,), (0.5, "B"), (0.6, "B")], UNIT)


@pytest.mark.parametrize("row, shown", [(0.1, "0.1"), ({0.1, "A"}, r"\{")], ids=["number", "set"])
def test_row_that_is_not_a_sequence_rejected(row, shown):
    with pytest.raises(DatasetError, match=f"row {shown}.* needs a score and a group"):
        validate_dataset([row, (0.2, "A"), (0.5, "B"), (0.6, "B")], UNIT)  # was a bare TypeError


def test_groups_ordered_lexicographically():
    ds = validate_dataset([(0.1, "z"), (0.2, "z"), (0.3, "m"), (0.4, "m"), (0.5, "a"), (0.6, "a")], UNIT)
    assert ds.groups == ("a", "m", "z")
    assert ds.group_scores("m").tolist() == [0.3, 0.4]
    with pytest.raises(DatasetError, match="unknown group 'b'"):
        ds.group_scores("b")


def test_domain_requires_hi_above_lo():
    with pytest.raises(DatasetError):
        ScoreDomain(1.0, 1.0)
    with pytest.raises(DatasetError, match="score domain bounds must be finite"):
        ScoreDomain(float("inf"), 1.0)
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
                     (got.group_indices, want.group_indices)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    rows = list(zip(ds.scores, (ds.groups[g] for g in ds.group_indices), ds.labels))
    same(subset_by_label(ds, TPR), [r for r in rows if r[2] == 1])
    new = ds.scores[::-1].copy()
    same(ds.replace_scores(new), [(s, g, l) for s, (_, g, l) in zip(new, rows)])
    with pytest.raises(DatasetError, match="score out of domain"):
        ds.replace_scores(new + 1.0)


@pytest.mark.parametrize("label_type", [int, float])
def test_dataset_never_shares_its_callers_arrays(label_type):
    """The constructor and replace_scores copy what they are given: writing to
    the caller's arrays afterwards changes no dataset."""
    scores, new = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.6, 0.7, 0.8])
    labels = np.array([1, 0, -1, 1], dtype=label_type)
    ds = ScoredDataset(scores, ["A", "A", "B", "B"], labels, UNIT)
    repaired = ds.replace_scores(new)
    scores[:], labels[:], new[:] = 0.9, 0, 0.9  # still the caller's arrays, and still writable
    assert ds.scores.tolist() == [0.1, 0.2, 0.3, 0.4] and repaired.scores.tolist() == [0.5, 0.6, 0.7, 0.8]
    assert ds.labels.tolist() == repaired.labels.tolist() == [1, 0, -1, 1]


def test_conditioning_on_unlabeled_data_errors():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]})
    with pytest.raises(DatasetError, match="unlabeled"):
        subset_by_label(ds, TPR)
    # unconditional is fine
    assert subset_by_label(ds, PR) is ds


def test_group_emptied_by_conditioning_errors():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]}, {"A": [1, 0], "B": [0, 0]})
    with pytest.raises(DatasetError, match=re.escape("group 'B' has 0 row(s) under Y=1, needs at least 1")):
        subset_by_label(ds, TPR)


# -- metric selectors --------------------------------------------------------


def test_metric_kind_table():
    assert (PR.label_condition, PR.predicted_class) == (None, 1)
    assert (TPR.label_condition, TPR.predicted_class) == (1, 1)
    assert (FPR.label_condition, FPR.predicted_class) == (0, 1)
    assert (NR.label_condition, NR.predicted_class) == (None, 0)
    assert (TNR.label_condition, TNR.predicted_class) == (0, 0)
    assert (FNR.label_condition, FNR.predicted_class) == (1, 0)
    with pytest.raises(DatasetError, match="label_condition must be 0, 1 or None"):
        MetricKind("x", 2, 1)
    with pytest.raises(DatasetError, match="predicted_class must be 0 or 1"):
        MetricKind("x", None, None)


def test_parse_metric_and_combo():
    assert parse_metric("TPR") is TPR
    combo = parse_combo("tpr:1,fpr:0.5")
    assert combo.kinds == [TPR, FPR]
    assert combo.terms[1][1] == 0.5
    assert parse_combo("pr").single_kind is PR
    assert parse_combo(" tpr,,fpr:2, ").terms == ((TPR, 1.0), (FPR, 2.0))  # empty parts are skipped


def test_combo_rejects_negative_weight_and_empty():
    with pytest.raises(DatasetError):
        parse_combo("tpr:-1")
    with pytest.raises(DatasetError, match="bad metric weight in 'tpr:abc'"):
        parse_combo("fpr,tpr:abc")
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


def test_combo_rejects_a_metric_named_twice():
    """A repeated metric would be reported, and its curves written, twice."""
    for text in ("tpr,tpr", "tpr,TPR:2", "fpr:1,pr,fpr:0"):
        with pytest.raises(DatasetError, match="metric '(tpr|fpr)' is named twice"):
            parse_combo(text)
    assert parse_combo("tpr,fpr,pr").kinds == [TPR, FPR, PR]


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
    # A truncated row used to become a third group named ''.
    ("score,group,label\n0.1,A,1\n0.2,A,0\n0.3\n0.4,B,1\n0.5,B,0\n", ":4: missing group"),
    ("score,group\n0.1,A\n0.2, \n0.3,B\n0.4,B\n", ":3: missing group"),
    ("score,group\n0.1,A\nx,A\n0.3,B\n0.4,B\n", ":3: bad score 'x'"),
    ("score,group,label\n0.1,A,1\n0.2,A,x\n0.3,B,0\n0.4,B,1\n", ":3: bad label 'x'"),
    ("score,group,label\n0.1,A,1\n0.2,A,0\n0.3,B,2\n0.4,B,1\n", ":4: non-binary label: 2"),
    # A bad label is reported only once every score has been read and checked.
    ("score,group,label\n0.1,A,x\n0.2,A,1\nbad,B,0\n0.4,B,1\n", ":4: bad score 'bad'"),
    ("score,group,label\n0.1,A,x\n0.2,A,1\n1.5,B,0\n0.4,B,1\n", ":4: score out of domain: 1.5"),
    # The domain is checked on the line that holds the score, so a later bad record is not reached.
    ("score,group\n0.1,A\n1.5,A\n0.3,B\nx,B\n", ":3: score out of domain: 1.5"),
    # The dataset checks name the file too (apply accepts both inputs).
    ("score,group,label\n", "data.csv: dataset has zero rows"),
    ("score,group\n0.1,A\n0.2,A\n0.3,B\n", r"data.csv: group 'B' has 1 row\(s\), needs at least 2"),
], ids=["nan-score", "extra-cell", "duplicate-header", "truncated-row", "blank-group", "bad-score", "bad-label",
        "non-binary-label", "score-before-label", "domain-before-label", "domain-before-later-score", "header-only",
        "one-row-group"])
def test_csv_malformed_rows_rejected_with_line(tmp_path, content, message):
    path = tmp_path / "data.csv"
    path.write_text(content)
    with pytest.raises(DatasetError, match=message) as err:
        load_csv(path, UNIT)
    assert str(err.value).startswith(f"{path}:")


def test_csv_read_memory_per_row(tmp_path):
    """tracemalloc peaks per row at 5e4 rows of a two-group labeled CSV.

    The reader keeps three 8-byte values a row: the float score and the
    row's index into the distinct group cells and into the distinct label
    cells.  With an array's growth slack (up to 1/16) that is 25.5 B.
    load_csv adds two: the row's index into the sorted group names and its
    int label, so 41.5 B, plus up to 3 B of boolean masks from the checks.
    Each bound leaves less room than one more 8-byte value a row (a line
    number, or a copy of a column), so keeping one fails the test.
    """
    rng = np.random.default_rng(0)
    n = 50_000
    groups = rng.integers(0, 2, n)
    path = tmp_path / "data.csv"
    write_csv(ScoredDataset(rng.random(n), np.array(["a", "b"])[groups].tolist(), rng.integers(0, 2, n), UNIT),
              path)
    for read, bound in ((_read_scored_csv, 32), (load_csv, 50)):
        peak = traced_peak(lambda: read(path, UNIT))
        assert peak / n <= bound, (read.__name__, peak / n)


def test_replace_scores_memory_per_row():
    """replace_scores copies the caller's scores (8 B a row) and keeps the
    dataset's group index and labels; its checks add up to 3 B of boolean
    masks.  The 12 B bound leaves less room than one more 8-byte value a row,
    such as the copy np.bincount makes of a read-only group index."""
    rng = np.random.default_rng(0)
    n = 50_000
    ds = ScoredDataset(rng.random(n), np.array(["a", "b"])[rng.integers(0, 2, n)].tolist(), rng.integers(0, 2, n),
                       UNIT)
    new = rng.random(n)
    peak = traced_peak(lambda: ds.replace_scores(new))
    assert peak / n <= 12, peak / n


def test_write_csv_memory_per_row(tmp_path):
    """tracemalloc peaks per row of write_csv at 2e5 labeled rows in two equal
    groups.

    The label codes (labels + 1) are kept for the whole write: 8 B a row.  Rows
    are formatted 16384 at a time.  While join builds its list of a chunk's
    lines, each chunk row holds its float (24 B) and its slots in the three
    cells' lists (24 B), and its line, a str of about 22 characters (71 B), with
    its slot in the list (8 B): 127 B.  The cells' lists are dropped as their
    iterators run out, before join makes the chunk's text (24 B a chunk row).
    So a chunk costs 2.1 MB, 10.4 B a row, and the peak is 18.4 B a row.  The
    20 B bound leaves less room than one more 8-byte value a row, such as a copy
    of the scores.
    """
    n = 200_000
    ds = two_equal_groups(n)
    assert traced_peak(lambda: write_csv(ds, tmp_path / "out.csv")) / n <= 20


def test_csv_labels_and_groups_are_stripped(tmp_path):
    """Label cells ' 1 ' and '+1' read as 1; group cells A, ' A ' and "A" are one group."""
    path = tmp_path / "data.csv"
    path.write_text('score,group,label\n0.1,A, 1 \n0.2, A ,+1\n0.3,"A",0\n0.4,B,\n0.5,B,1\n')
    ds = load_csv(path, UNIT)
    assert ds.groups == ("A", "B")
    assert ds.group_indices.tolist() == [0, 0, 0, 1, 1]
    assert ds.labels.tolist() == [1, 1, 0, -1, 1]


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


# Cells that csv.writer quotes, or that look as if it might.  Python 3.10's
# csv module cannot write NUL, so those cases need 3.11.
NUL = "\0" if sys.version_info >= (3, 11) else ""
ODD_CELLS = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", " lead", "trail ", "naïve ☃", '"', ",",
             f"nul{NUL}"]
ODD_SCORES = [0.0, 5e-324, 1e-05, 0.1]


def _check_write_csv(tmp_path, groups, scores, labels):
    """write_csv writes the bytes csv.writer would."""
    ds = ScoredDataset(scores, groups, [-1 if y is None else y for y in labels], UNIT)
    path = tmp_path / "out.csv"
    write_csv(ds, path)
    labeled = any(y is not None for y in labels)
    header = ["score", "group"] + ["label"] * labeled
    rows = [[repr(float(x)), g] + ["" if y is None else str(y)] * labeled
            for x, g, y in zip(scores, groups, labels)]
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def _check_round_trip(tmp_path, header, rows):
    """Read ``rows`` as written by csv.writer, write them back in chunks of 3: only the score cells change."""
    path = tmp_path / "in.csv"
    path.write_bytes(csv_writer_bytes(header, rows))
    table = _read_scored_csv(path, UNIT)
    buf = io.StringIO(newline="")
    table.write(buf, table.scores, chunk=3)
    si = header.index("score")
    expected = [row[:si] + [repr(float(row[si]))] + row[si + 1:] for row in rows]
    assert buf.getvalue().encode("utf-8") == csv_writer_bytes(header, expected)


@pytest.mark.parametrize("labeled", [False, True])
def test_write_csv_matches_csv_writer(tmp_path, labeled):
    groups = [g for g in ODD_CELLS for _ in range(2)]
    scores = [ODD_SCORES[i % len(ODD_SCORES)] for i in range(len(groups))]
    labels = [(None, 0, 1)[i % 3] if labeled else None for i in range(len(groups))]
    _check_write_csv(tmp_path, groups, scores, labels)


def test_scored_csv_writes_every_cell_back_as_csv_writer_would(tmp_path):
    """Read then write: the score column is rewritten, every other cell comes back as read."""
    header = ["id", "label", "score", "note", "group"]
    rows = [[f"r{i}", ["", " 1 ", "0", "x,y"][i % 4], repr(ODD_SCORES[i % 4]), cell, cell.strip() or "g"]
            for i, cell in enumerate(ODD_CELLS + ["", "plain"])]
    _check_round_trip(tmp_path, header, rows)


def test_csv_writer_property(tmp_path):
    """write_csv, and reading then writing a table with extra columns, match csv.writer."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(st.characters(codec="utf-8", exclude_characters="" if NUL else "\0"), max_size=6)
    cell = st.sampled_from(ODD_CELLS) | text
    score = st.sampled_from(ODD_SCORES) | st.floats(0, 1)
    label = st.sampled_from([None, 0, 1])

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.lists(st.tuples(score, cell.filter(str.strip), label), min_size=1, max_size=8),
                      st.lists(cell, min_size=1, max_size=8))
    def check(rows, notes):
        rows = rows + rows  # every group gets two rows
        _check_write_csv(tmp_path, [g for _, g, _ in rows], [x for x, _, _ in rows], [y for _, _, y in rows])
        _check_round_trip(tmp_path, ["note", "score", "group", "label"],
                          [[n, repr(x), g, "" if y is None else f" {y}"] for n, (x, g, y) in zip(notes, rows)])

    check()


def test_write_csv_keeps_old_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    write_csv(_labeled(), path)
    before = path.read_bytes()

    real_fdopen = os.fdopen

    def fdopen(*args, **kwargs):  # a file that takes the header, then runs out of space
        fh = real_fdopen(*args, **kwargs)
        calls = []

        def write(text):
            calls.append(text)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return type(fh).write(fh, text)

        fh.write = write
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen)
    with pytest.raises(OSError):
        write_csv(make_dataset({"A": [0.1, 0.2], "B": [0.3, 0.4]}), path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob(".tmp-*"))
