import json
import re

import numpy as np
import pytest

from fairrepair import (
    DatasetError,
    JointSpec,
    ScoreDomain,
    SpecError,
    bundled_spec,
    sample,
    split,
    write_csv,
)

from conftest import UNIT, group_shares, make_dataset


def tiny_spec(label_prob=1.0):
    return JointSpec(
        domain=UNIT,
        groups=("g",),
        proportions=np.array([1.0]),
        support=np.array([0.5]),
        pmf={"g": np.array([1.0])},
        label1_prob={"g": np.array([label_prob])},
    )


def two_group_spec():
    return JointSpec(
        domain=UNIT,
        groups=("a", "b"),
        proportions=np.array([0.4, 0.6]),
        support=np.linspace(0.05, 0.95, 10),
        pmf={
            "a": np.full(10, 0.1),
            "b": np.concatenate([np.full(5, 0.06), np.full(5, 0.14)]),
        },
        label1_prob={
            "a": np.linspace(0.1, 0.9, 10),
            "b": np.linspace(0.2, 0.8, 10),
        },
    )


def test_degenerate_spec_yields_constant_rows():
    ds = sample(tiny_spec(), 50, seed=3)
    assert np.all(ds.scores == 0.5)
    assert np.all(ds.labels == 1)
    assert ds.groups == ("g",)


def test_sample_size_precondition():
    with pytest.raises(SpecError, match="n >="):
        sample(two_group_spec(), 3, seed=0)


def test_spec_validation():
    with pytest.raises(SpecError):
        JointSpec(UNIT, ("a",), np.array([0.5]), np.array([0.5]),
                  {"a": np.array([1.0])}, {"a": np.array([0.5])})  # props != 1
    with pytest.raises(SpecError):
        JointSpec(UNIT, ("a",), np.array([1.0]), np.array([0.5]),
                  {"a": np.array([0.7])}, {"a": np.array([0.5])})  # pmf != 1
    with pytest.raises(SpecError):
        JointSpec(UNIT, ("a",), np.array([1.0]), np.array([0.5]),
                  {"a": np.array([1.0])}, {"a": np.array([1.5])})  # bad prob
    with pytest.raises(SpecError, match="one proportion per group required"):
        JointSpec(UNIT, ("a", "b"), np.array([1.0]), np.array([0.5]),
                  {g: np.array([1.0]) for g in "ab"}, {g: np.array([0.5]) for g in "ab"})


def test_sample_error_names_the_sample():
    with pytest.raises(DatasetError, match=re.escape("group 'b' has 1 row(s) in the sample, needs at least 2")):
        sample(two_group_spec(), 4, seed=0)


def test_sample_counts_every_spec_group():
    """A spec group that draws no row is reported, not dropped from the sample."""
    spec = two_group_spec()
    lopsided = JointSpec(spec.domain, spec.groups, np.array([0.999, 0.001]), spec.support, spec.pmf, spec.label1_prob)
    with pytest.raises(DatasetError, match=re.escape("group 'b' has 0 row(s) in the sample, needs at least 2")):
        sample(lopsided, 200, seed=0)


def test_seed_determinism_byte_identical(tmp_path):
    spec = two_group_spec()
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(sample(spec, 500, seed=11), p1)
    write_csv(sample(spec, 500, seed=11), p2)
    assert p1.read_bytes() == p2.read_bytes()
    write_csv(sample(spec, 500, seed=12), p2)
    assert p1.read_bytes() != p2.read_bytes()


def test_group_proportions_converge():
    ds = sample(two_group_spec(), 100_000, seed=5)
    shares = group_shares(ds)
    assert abs(shares[0] - 0.4) <= 0.01
    assert abs(shares[1] - 0.6) <= 0.01


def test_conditional_means_converge_to_spec():
    spec = two_group_spec()
    ds = sample(spec, 200_000, seed=9)
    for g in spec.groups:
        expected = float(spec.support @ spec.pmf[g])
        got = ds.group_scores(g).mean()
        # 3-sigma binomial-style bound on the mean of a bounded variable
        n_g = ds.group_scores(g).size
        assert abs(got - expected) <= 3.0 * 0.5 / np.sqrt(n_g)


def test_bundled_spec_protocol_shape():
    ds = sample(bundled_spec(), 8000, seed=1)
    assert len(ds) == 8000
    assert len(ds.groups) == 4
    labeled, holdout = split(ds, 0.5, seed=1)
    assert len(labeled) == 4000 and len(holdout) == 4000


def test_split_deterministic_and_partitioning():
    ds = sample(two_group_spec(), 1000, seed=2)
    l1, h1 = split(ds, 0.5, seed=7)
    l2, h2 = split(ds, 0.5, seed=7)
    assert np.array_equal(l1.scores, l2.scores)
    assert np.array_equal(h1.labels, h2.labels)
    merged = np.sort(np.concatenate([l1.scores, h1.scores]))
    assert np.array_equal(merged, np.sort(ds.scores))
    l3, _ = split(ds, 0.5, seed=8)
    assert not np.array_equal(l1.scores, l3.scores)


def test_split_preserves_groups_or_errors():
    ds = make_dataset({"A": [0.1, 0.2, 0.3, 0.35], "B": [0.5, 0.6]})
    with pytest.raises(DatasetError):
        # 1/6 fraction leaves at most one row on the small side -> some group
        # must vanish or fall under the 2-row floor
        split(ds, 1 / 6, seed=0)
    with pytest.raises(DatasetError):
        split(ds, 1.5, seed=0)
    for fraction in (0.01, 0.99):  # rounds to 0 or 6 of the 6 rows
        with pytest.raises(DatasetError, match="split fraction leaves one side empty"):
            split(ds, fraction, seed=0)


@pytest.mark.parametrize("fraction, seed, message", [
    (0.3, 10, "group 'B' has 0 row(s) in the labeled part"),
    (0.3, 0, "group 'B' has 1 row(s) in the labeled part"),
    (0.7, 4, "group 'B' has 0 row(s) in the holdout part"),
    (0.7, 0, "group 'B' has 1 row(s) in the holdout part"),
])
def test_split_error_names_the_part(fraction, seed, message):
    ds = make_dataset({"A": [0.1, 0.2, 0.3, 0.35, 0.4, 0.45], "B": [0.5, 0.6, 0.7, 0.8]})
    with pytest.raises(DatasetError, match=re.escape(f"{message}, needs at least 2")):
        split(ds, fraction, seed)


def test_bundled_spec_loads_and_roundtrips(tmp_path):
    spec = bundled_spec()
    assert len(spec.groups) == 4
    assert spec.domain == ScoreDomain(0.0, 100.0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    back = JointSpec.from_json(path)
    assert back.groups == spec.groups
    assert np.array_equal(back.support, spec.support)
    for g in spec.groups:
        assert np.array_equal(back.pmf[g], spec.pmf[g])
