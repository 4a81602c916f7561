"""Property tests of the paper's identities, each against an independent oracle."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fairrepair import (
    PR,
    TPR,
    EmpiricalDistribution,
    RepairPlan,
    ScoreDomain,
    ThresholdGrid,
    distributional_disparity,
    fit_plan,
    load_plan,
    save_plan,
    write_csv,
)
from fairrepair.cli import main

from conftest import UNIT, make_dataset

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = dict(deadline=None, database=None)


@st.composite
def scored_groups(draw, domain=UNIT, max_groups=5, max_rows=40, tied=st.booleans(), max_levels=6):
    """{group: scores} with 2 to ``max_groups`` groups, either tied or continuous."""
    n_groups = draw(st.integers(2, max_groups))
    tied = draw(tied)
    levels = np.linspace(domain.lo, domain.hi, draw(st.integers(2, max_levels)))
    groups = {}
    for k in range(n_groups):
        rows = draw(st.integers(2, max_rows))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        if tied:
            scores = rng.choice(levels, size=rows)
        else:
            scores = domain.lo + rng.random(rows) * domain.width
        groups[f"g{k}"] = scores.tolist()
    return groups


@st.composite
def fitted_plans(draw):
    domain = draw(st.sampled_from([UNIT, ScoreDomain(0, 100)]))
    plan = fit_plan(make_dataset(draw(scored_groups(domain)), domain=domain))
    lambdas = draw(st.lists(st.floats(0.0, 1.0), min_size=len(plan.groups), max_size=len(plan.groups)))
    return plan.with_lambdas(dict(zip(plan.groups, lambdas)))


@st.composite
def counted_plans(draw, max_atoms=20):
    """A plan on drawn atoms and integer counts: tied atoms merge and sum their
    counts, and a group's total may reach 2**53."""
    domain = draw(st.sampled_from([UNIT, ScoreDomain(0, 100)]))
    atom = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
    fitted = {}
    for k in range(draw(st.integers(2, 4))):
        atoms = draw(st.lists(atom, min_size=1, max_size=max_atoms))
        counts = st.integers(1, 2**53 // max_atoms)
        fitted[f"g{k}"] = EmpiricalDistribution(atoms, draw(st.lists(counts, min_size=len(atoms),
                                                                    max_size=len(atoms))))
    lambdas = draw(st.lists(st.floats(0.0, 1.0), min_size=len(fitted), max_size=len(fitted)))
    return RepairPlan(domain, tuple(fitted), fitted, dict(zip(fitted, lambdas)))


# -- plan round trip ----------------------------------------------------------


def test_plan_round_trip_is_exact(tmp_path):
    """save -> load -> save writes the same bytes, and the loaded plan maps the same."""

    @hypothesis.settings(max_examples=100, **SETTINGS)
    @hypothesis.given(st.one_of(fitted_plans(), counted_plans()))
    @hypothesis.example(fit_plan(make_dataset({"a": [0, 40, 100], "b": [10, 20, 30]},
                                              domain=ScoreDomain(0, 100))))
    def check(plan):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_plan(plan, first)
        loaded = load_plan(first)
        save_plan(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.group_weights.tobytes() == plan.group_weights.tobytes()
        for g in plan.groups:
            assert loaded._targets_of(g).tobytes() == plan._targets_of(g).tobytes()
            assert loaded.fitted[g].atoms.tobytes() == plan.fitted[g].atoms.tobytes()
            assert loaded.fitted[g].counts.tobytes() == plan.fitted[g].counts.tobytes()
            assert loaded.fitted[g].breakpoints.tobytes() == plan.fitted[g].breakpoints.tobytes()

    check()


# -- apply --------------------------------------------------------------------


def test_apply_identity_domain_and_monotone():
    """lambda = 0 is the identity; outputs stay in the domain and keep each group's order.

    Monotone up to rounding: x + lam * (T(x) - x) rounds three times, so each
    output is off by at most u * (2 * width + max |bound|), with u = 2**-53,
    and two nearly equal inputs can come out up to twice that apart in the
    wrong order.  Near 0 that is many ulps of the output itself.
    """

    @hypothesis.settings(max_examples=100, **SETTINGS)
    @hypothesis.given(fitted_plans(), st.data())
    def check(plan, data):
        domain = plan.domain
        g = data.draw(st.sampled_from(plan.groups))
        x = np.sort(data.draw(st.lists(st.floats(domain.lo, domain.hi), min_size=1, max_size=30)))
        assert np.array_equal(plan.with_lambdas({g: 0.0}).repaired_score(g, x), x)
        out = plan.repaired_score(g, x)
        assert np.all((out >= domain.lo) & (out <= domain.hi))
        tol = 2 * 2.0**-53 * (2 * domain.width + max(abs(domain.lo), abs(domain.hi)))
        assert np.all(out[1:] >= out[:-1] - tol)

    check()


# -- full repair on tied scores ----------------------------------------------------


def test_full_repair_gap_is_below_the_largest_atom_share():
    """After full repair the PR gap on tied fit data is below max_g m_g.

    m_g is group g's largest atom share; the proof is in RepairPlan's
    docstring and holds for the map T_g = Q_bary o F_g.  ``apply`` computes
    x + (T(x) - x), which can round two tied targets an ulp apart, so its
    gap can reach the bound: one two-group case on 0:1 reads m_g0 = 0.5.
    """

    @hypothesis.settings(max_examples=100, **SETTINGS)
    @hypothesis.given(st.sampled_from([UNIT, ScoreDomain(0, 100), ScoreDomain(-3, 7.5)]), st.data())
    def check(domain, data):
        groups = data.draw(scored_groups(domain, max_rows=60, tied=st.just(True), max_levels=40))
        ds = make_dataset(groups, domain=domain)
        plan = fit_plan(ds)
        bound = max(d.counts.max() / d.counts.sum() for d in plan.fitted.values())
        # total_repair_score leaves the domain by an ulp at times; clipping keeps ties and order.
        full = {g: np.clip(plan.total_repair_score(g, s), domain.lo, domain.hi) for g, s in groups.items()}
        assert distributional_disparity(make_dataset(full, domain=domain), PR).max_gap < bound
        assert distributional_disparity(plan.apply(ds), PR).max_gap <= bound

    check()


# -- W_1 ------------------------------------------------------------------------


def right_endpoint_sum(a, b, grid, width):
    """sum_i (g_{i+1} - g_i) * |gamma_a(g_{i+1}) - gamma_b(g_{i+1})| / width, gamma = P(score >= tau)."""
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        total += (hi - lo) * abs(np.mean(a >= hi) - np.mean(b >= hi))
    return total / width


def test_exact_gap_is_the_right_endpoint_sum():
    """On a grid holding every score and both domain ends, W_1 is a right-endpoint sum."""

    @hypothesis.settings(max_examples=100, **SETTINGS)
    @hypothesis.given(st.sampled_from([UNIT, ScoreDomain(0, 100)]), st.data())
    def check(domain, data):
        groups = data.draw(scored_groups(domain, max_groups=2))
        kind = data.draw(st.sampled_from([PR, TPR]))
        labels = {g: [1] * len(s) for g, s in groups.items()}
        if kind is TPR:  # the label condition drops rows; two stay in each group
            labels = {g: [1, 1] + data.draw(st.lists(st.integers(0, 1), min_size=len(s) - 2,
                                                     max_size=len(s) - 2))
                      for g, s in groups.items()}
        ds = make_dataset(groups, labels, domain)
        grid = np.union1d(ds.scores, [domain.lo, domain.hi])
        report = distributional_disparity(ds, kind, 1.0, ThresholdGrid(grid))
        a, b = ([s for s, y in zip(groups[g], labels[g]) if y == 1] for g in ("g0", "g1"))
        oracle = right_endpoint_sum(np.array(a), np.array(b), grid, domain.width)
        assert report.exact_gap == pytest.approx(oracle, rel=0, abs=1e-13)

    check()


# -- byte fuzz --------------------------------------------------------------------


def test_csv_and_plan_bytes_keep_exit_code_contract(tmp_path):
    """Mutated CSV and plan bytes through apply, evaluate and fit: exit 0/2/3/4,
    no traceback, no NaN written."""
    data = tmp_path / "data.csv"
    write_csv(make_dataset({"a": [0.1, 0.3, 0.6, 0.8], "b": [0.2, 0.5, 0.9, 0.4]},
                           {"a": [0, 1, 1, 0], "b": [1, 0, 1, 1]}), data)
    plan = tmp_path / "plan.json"
    assert main(["fit", "--input", str(data), "--output", str(plan), "--metric", "tpr"]) == 0
    sources = {"csv": data.read_bytes(), "plan": plan.read_bytes()}

    def no_nan(token):
        raise AssertionError(f"{token} in JSON output")

    flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4)
    runs = st.sampled_from([("csv", "apply"), ("csv", "evaluate"), ("csv", "fit"), ("plan", "apply")])

    @hypothesis.settings(max_examples=150, **SETTINGS)
    @hypothesis.given(runs, flips)
    @hypothesis.example(("csv", "fit"), [(18, ord("n")), (19, ord("a")), (20, ord("n"))])  # a NaN score
    @hypothesis.example(("plan", "apply"), [(0, 0xFF)])
    def check(run, flips):
        source, command = run
        content = bytearray(sources[source])
        for pos, byte in flips:
            content[pos % len(content)] = byte
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "in").write_bytes(content)
        csv_in, plan_in = (out / "in", plan) if source == "csv" else (data, out / "in")
        argv = {
            "apply": ["apply", "--input", str(csv_in), "--plan", str(plan_in), "--output",
                      str(out / "out.csv")],
            "evaluate": ["evaluate", "--input", str(csv_in), "--output", str(out / "out.json")],
            "fit": ["fit", "--input", str(csv_in), "--output", str(out / "out.json")],
        }[command] + ["--metric", "tpr"] * (command != "apply")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (bytes(content), err.getvalue())
        assert "Traceback" not in err.getvalue()
        for path in out.glob("out*.json"):
            json.loads(path.read_text(), parse_constant=no_nan)
        for path in out.glob("out*.csv"):  # the repaired CSV and the curve CSV
            with open(path, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            numeric = [header.index(c) for c in ("score", "threshold", "value") if c in header]
            assert all(math.isfinite(float(r[k])) for r in rows for k in numeric)

    check()
