import base64
import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from fairrepair import (
    LambdaObjective,
    ScoreDomain,
    ScoredDataset,
    bundled_spec,
    fit_plan,
    load_csv,
    load_plan,
    objective_eval,
    parse_combo,
    sample,
    save_plan,
    split,
    validate_dataset,
    write_csv,
)
from fairrepair import cli, repair
from fairrepair.cli import main

from conftest import UNIT, csv_writer_bytes, make_dataset, random_binary_dataset

BINARY = {"A": [0.2, 0.4, 0.6, 0.8], "B": [0.1, 0.2, 0.3, 0.4]}
MAX_COUNT = 2**31 - 1  # the largest row, grid or step count the CLI accepts


def write_dataset(tmp_path, name="data.csv", groups=BINARY, labels=None, domain=UNIT):
    ds = make_dataset(groups, labels, domain)
    path = tmp_path / name
    write_csv(ds, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_subprocess(*argv, timeout=30, **env):
    """Run the CLI from src/ in a fresh interpreter, with extra environment
    variables; fail if it does not exit 0 within `timeout` seconds."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "fairrepair.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr


# -- evaluate ---------------------------------------------------------------


def test_evaluate_identical_groups_zero_gaps(tmp_path):
    path = write_dataset(tmp_path, groups={"A": [0.2, 0.4], "B": [0.2, 0.4]})
    out = tmp_path / "report.json"
    assert run("evaluate", "--input", path, "--output", out) == 0
    report = json.loads(out.read_text())["reports"][0]
    assert report["expected_gap"] == 0.0
    assert report["max_gap"] == 0.0
    assert (tmp_path / "report.curves.csv").exists()


def test_evaluate_binary_example_gap(tmp_path):
    path = write_dataset(tmp_path)
    out = tmp_path / "report.json"
    assert run("evaluate", "--input", path, "--output", out, "--metric", "pr", "--grid", "1001") == 0
    report = json.loads(out.read_text())["reports"][0]
    assert report["exact_gap"] == pytest.approx(0.25, abs=1e-12)
    curves = (tmp_path / "report.curves.csv").read_text().splitlines()
    assert curves[0] == "threshold,group,metric,value"
    assert len(curves) == 1 + 1001 * 2


def test_evaluate_combo_reports_weighted_total(tmp_path):
    data = labeled_binary(tmp_path)
    out = tmp_path / "report.json"
    assert run("evaluate", "--input", data, "--output", out, "--metric", "tpr:1,fpr:0.5") == 0
    payload = json.loads(out.read_text())
    assert [r["metric"] for r in payload["reports"]] == ["tpr", "fpr"]
    expected = payload["reports"][0]["expected_gap"] + 0.5 * payload["reports"][1]["expected_gap"]
    assert payload["weighted_expected_gap"] == pytest.approx(expected)


def test_evaluate_unlabeled_tpr_is_validation_error(tmp_path, capsys):
    path = write_dataset(tmp_path)
    out = tmp_path / "report.json"
    assert run("evaluate", "--input", path, "--output", out, "--metric", "tpr") == 2
    assert "unlabeled" in capsys.readouterr().err


def test_evaluate_curves_quote_group_names(tmp_path):
    """A group name with a comma, a quote, CR or LF stays one cell of the curve CSV."""
    groups = {"a,b": [0.2, 0.4, 0.6], 'q"r': [0.1, 0.3, 0.5], "c\rr": [0.3, 0.5, 0.7], "l\nf": [0.2, 0.3, 0.4]}
    path = write_dataset(tmp_path, groups=groups)
    assert run("evaluate", "--input", path, "--output", tmp_path / "report.json", "--grid", "5") == 0
    with open(tmp_path / "report.curves.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "group", "metric", "value"]
    assert len(rows) == 1 + 4 * 5
    assert all(len(row) == 4 for row in rows)
    assert {row[1] for row in rows[1:]} == set(groups)


def test_evaluate_curves_onto_report_is_validation_error(tmp_path, capsys, monkeypatch):
    """--curves naming the --output file (by any path) would overwrite the
    report, so evaluate exits 2 before it reads the input or writes a file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for curves in ("report.json", tmp_path / "report.json", "sub/../report.json"):
        assert run("evaluate", "--input", "nope.csv", "--output", "report.json", "--curves", curves) == 2
        assert "--curves and --output name the same file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


# Each names one file twice, as an input and an output, by another path where
# it can; before outputs were checked against inputs, each overwrote its input
# with exit 0.
SAME_FILE = {
    "fit-input": (("fit", "--input", "d.csv", "--output", "sub/../d.csv", "--solver", "none"),
                  "--output and --input"),
    "fit-sidecar": (("fit", "--input", "p.json.solution.json", "--output", "p.json"),
                    "<output>.solution.json and --input"),
    "fit-config": (("fit", "--input", "d.csv", "--output", "c.json", "--config", "c.json"),
                   "--output and --config"),
    "evaluate-input": (("evaluate", "--input", "d.csv", "--output", "link.csv"), "--output and --input"),
    "evaluate-curves": (("evaluate", "--input", "d.csv", "--output", "r.json", "--curves", "d.csv"),
                        "--curves and --input"),
    "lambda-sweep": (("lambda-sweep", "--input", "d.csv", "--output", "./d.csv"), "--output and --input"),
    "apply-input": (("apply", "--input", "d.csv", "--plan", "p.json", "--output", "d.csv"),
                    "--output and --input"),
    "apply-plan": (("apply", "--input", "d.csv", "--plan", "p.json", "--output", "p.json"),
                   "--output and --plan"),
    "generate-spec": (("generate", "--spec", "c_meta.json", "--output", "c"), "<output>_meta.json and --spec"),
}


@pytest.mark.parametrize("case", list(SAME_FILE))
def test_output_naming_an_input_is_validation_error(tmp_path, capsys, monkeypatch, case):
    """No command writes over a file it reads: it exits 2 before it reads a
    file, and every file keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    data = write_dataset(tmp_path, "d.csv")
    assert run("fit", "--input", data, "--output", "p.json", "--solver", "none") == 0
    (tmp_path / "p.json.solution.json").write_bytes(data.read_bytes())
    (tmp_path / "c.json").write_text(json.dumps({"solver": "none"}))
    (tmp_path / "c_meta.json").write_text(json.dumps(CUSTOM_SPEC))
    (tmp_path / "link.csv").symlink_to(data)
    (tmp_path / "sub").mkdir()
    before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
    argv, flags = SAME_FILE[case]
    assert run(*argv) == 2
    assert f"{flags} name the same file" in capsys.readouterr().err
    assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before


def test_evaluate_missing_input_is_io_error(tmp_path):
    assert run("evaluate", "--input", tmp_path / "nope.csv", "--output", tmp_path / "r.json") == 4


def test_json_errors_flag(tmp_path, capsys):
    code = run("evaluate", "--input", tmp_path / "nope.csv", "--output", tmp_path / "r.json",
               "--json-errors")
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 4 and "message" in err and "error" in err


# -- fit ----------------------------------------------------------------------


def labeled_binary(tmp_path, rng=None):
    rng = rng or np.random.default_rng(5)
    ds = random_binary_dataset(rng, n_per_group=(150, 200), label_offsets=(-0.15, 0.15))
    path = tmp_path / "labeled.csv"
    write_csv(ds, path)
    return path


def test_fit_exact_tpr_writes_plan_and_solution(tmp_path):
    data = labeled_binary(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path,
               "--solver", "exact", "--metric", "tpr") == 0
    plan = load_plan(plan_path)
    lams = set(plan.lambdas.values())
    assert len(lams) == 1  # scalar lambda duplicated per group
    assert 0.0 <= lams.pop() <= 1.0
    solution = json.loads((tmp_path / "plan.json.solution.json").read_text())
    assert solution["method"] == "exact"


def test_fit_lex_writes_epsilon_sidecar(tmp_path):
    rng = np.random.default_rng(0)
    groups = {g: list(np.clip(rng.normal(m, 0.1, 40), 0, 1))
              for g, m in zip("abcd", (0.3, 0.45, 0.6, 0.7))}
    labels = {g: list((rng.random(40) < 0.5).astype(int)) for g in groups}
    data = write_dataset(tmp_path, "four.csv", groups, labels)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path,
               "--solver", "lex", "--metric", "tpr") == 0
    plan = load_plan(plan_path)
    assert len(plan.lambdas) == 4
    solution = json.loads((tmp_path / "plan.json.solution.json").read_text())
    assert solution["method"] == "lexicographic"
    assert len(solution["epsilons"]) == 4


def test_fit_builds_the_target_table_once(tmp_path, monkeypatch):
    """A plan tabulates one barycenter quantile per group, on first use, and
    with_lambdas, save_plan and load_plan reuse or defer that table."""
    calls = []
    real = repair.barycenter_quantile

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repair, "barycenter_quantile", counting)
    groups = {"a": [0.1, 0.3, 0.5, 0.6], "b": [0.2, 0.4, 0.7, 0.8], "c": [0.35, 0.5, 0.9, 0.95]}
    data = write_dataset(tmp_path, "three.csv", groups, {g: [0, 1, 0, 1] for g in groups})
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "lex", "--metric", "tpr") == 0
    assert len(calls) == 3
    plan = load_plan(plan_path)
    shifted = plan.with_lambdas({"a": 0.5})
    save_plan(shifted, tmp_path / "shifted.json")
    load_plan(tmp_path / "shifted.json")
    assert len(calls) == 3
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 0
    assert len(calls) == 6
    ds = load_csv(data, UNIT)
    plan.apply(ds)
    assert len(calls) == 9
    shifted.apply(ds)  # shares plan's table
    assert len(calls) == 9


def test_fit_exact_objective_is_evaluate_exact_gap_after_apply(tmp_path):
    """The objective fit reports is the disparity evaluate measures on the
    repaired data: two routes to the same W_1."""
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        ds = random_binary_dataset(rng, n_per_group=(1800, 2200), label_offsets=(-0.15, 0.15))
        data, plan_path, repaired = tmp_path / "data.csv", tmp_path / "plan.json", tmp_path / "repaired.csv"
        write_csv(ds, data)
        assert run("fit", "--input", data, "--output", plan_path, "--solver", "exact", "--metric", "tpr") == 0
        assert run("apply", "--input", data, "--plan", plan_path, "--output", repaired) == 0
        assert run("evaluate", "--input", repaired, "--output", tmp_path / "after.json", "--metric", "tpr") == 0
        objective = json.loads((tmp_path / "plan.json.solution.json").read_text())["objective"]
        gap = json.loads((tmp_path / "after.json").read_text())["reports"][0]["exact_gap"]
        assert objective > 0.0
        assert gap == pytest.approx(objective, rel=1e-12, abs=0.0)


def test_fit_probabilistic_rejects_three_groups(tmp_path, capsys):
    """Both binary solvers give lambda-sweep's message, as a DatasetError."""
    groups = {"a": [0.1, 0.2], "b": [0.3, 0.4], "c": [0.5, 0.6]}
    labels = {g: [0, 1] for g in groups}
    data = write_dataset(tmp_path, "three.csv", groups, labels)
    for solver in ("probabilistic", "exact"):
        code = run("fit", "--input", data, "--output", tmp_path / "p.json",
                   "--solver", solver, "--metric", "tpr", "--json-errors")
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "DatasetError", "message": "binary solver needs exactly 2 groups, got 3", "exit_code": 2}
    assert not list(tmp_path.glob("p.json*"))


def test_fit_solver_error_exits_three(tmp_path, capsys):
    # identical groups: the closed-form denominator vanishes -> solver error
    data = write_dataset(tmp_path, groups={"A": [0.2, 0.4], "B": [0.2, 0.4]},
                         labels={"A": [1, 0], "B": [1, 0]})
    code = run("fit", "--input", data, "--output", tmp_path / "p.json",
               "--solver", "probabilistic", "--metric", "tpr")
    assert code == 3
    assert "equally shifted" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["0:1", "0:1e308", "-1e308:1"])
def test_probabilistic_lambda_does_not_depend_on_the_domain(tmp_path, capsys, domain):
    """The closed form reads normalized means, as every other solver does, and
    its degeneracy tolerance scales with the scores' normalized spread.

    On 0:1e308 each score x normalizes to a subnormal z = x / 1e308, a
    multiple of u = 2**-1074.  Each group's mean a_g = sum(z) / 3 rounds once
    (the sum of subnormals is exact): off by at most u/2.  Each full-repair
    target 0.5 * q_a + 0.5 * q_b rounds each half by at most u/2, and the
    shift b_g = sum(T - z) / 3 rounds once more, so b_g is off by at most 3u/2.
    On the rounded scores the barycenter property is exact: a_0 + b_0 =
    a_1 + b_1, so with D = a_1 - a_0 = b_0 - b_1 the closed form is D / D = 1.
    Rounded, the numerator is off by at most u and the denominator by 3u,
    |D| >= 0.2 / 1e308 - u, and the last division rounds by 2**-53: that
    bounds |lambda - 1|.

    On -1e308:1 every score normalizes to 1.0: the groups are equal on the
    normalized axis, so the closed form is undefined (exit 3), evaluate reads
    no gap, and the exact solver returns lambda = 0.
    """
    groups, labels = {"a": [0.1, 0.5, 0.9], "b": [0.2, 0.3, 0.4]}, {"a": [1, 1, 1], "b": [1, 1, 1]}
    data = write_dataset(tmp_path, groups=groups, labels=labels)
    flags = ("--input", data, "--metric", "tpr", f"--domain={domain}")
    sidecar = tmp_path / "p.json.solution.json"
    code = run("fit", *flags, "--output", tmp_path / "p.json", "--solver", "probabilistic")
    if domain == "0:1":
        assert code == 0 and json.loads(sidecar.read_text())["lambda"] == 1.0
    elif domain == "0:1e308":
        u = 2.0 ** -1074
        d = 0.2 / 1e308 - u
        assert code == 0
        assert abs(json.loads(sidecar.read_text())["lambda"] - 1.0) <= 4 * u / (d - 3 * u) + 2.0 ** -53
    else:
        assert code == 3 and "equally shifted" in capsys.readouterr().err
        assert run("evaluate", *flags, "--output", tmp_path / "r.json") == 0
        report = json.loads((tmp_path / "r.json").read_text())["reports"][0]
        assert report["exact_gap"] == report["max_gap"] == 0.0
        assert run("fit", *flags, "--output", tmp_path / "p.json", "--solver", "exact") == 0
        assert json.loads(sidecar.read_text())["lambda"] == 0.0


def test_fit_lex_on_a_wide_domain(tmp_path):
    """Bundled-spec seed 1's labeled split, its scores and domain scaled by
    1e10.  With a slack of 1e-4 score units on the inherited round bounds, a
    later round's LP was infeasible here (exit 3)."""
    labeled, _ = split(sample(bundled_spec(), 8000, seed=1), 0.5, seed=1)
    groups = [labeled.groups[i] for i in labeled.group_indices]
    wide = validate_dataset(zip(labeled.scores * 1e10, groups, labeled.labels), ScoreDomain(0.0, 1e12))
    write_csv(wide, tmp_path / "wide.csv")
    assert run("fit", "--input", tmp_path / "wide.csv", "--output", tmp_path / "p.json", "--solver", "lex",
               "--metric", "fpr", "--domain=0:1e12") == 0
    assert len(json.loads((tmp_path / "p.json.solution.json").read_text())["epsilons"]) == 4


def test_fit_lex_near_a_large_common_offset(tmp_path):
    """Four groups of 8 scores, half labeled 1, within 1 of lo on -1e10:1e10: their means share
    an offset of -1e10 and differ by less than 1.  With each pair gap formed
    after scaling, the gaps rounded relative to 1e10, and a later round's LP
    was infeasible here (exit 3)."""
    rng = np.random.default_rng(0)
    lo = -1e10
    groups = {g: lo + rng.random(8) for g in "abcd"}
    data = write_dataset(tmp_path, groups=groups, labels=dict.fromkeys(groups, [1, 0] * 4),
                         domain=ScoreDomain(lo, 1e10))
    assert run("fit", "--input", data, "--output", tmp_path / "p.json", "--solver", "lex", "--metric", "tpr",
               f"--domain={lo!r}:1e10") == 0
    epsilons = json.loads((tmp_path / "p.json.solution.json").read_text())["epsilons"]
    assert len(epsilons) == 4 and all(map(math.isfinite, epsilons))


# In score units these means and losses overflowed: lex and maxmin once exited
# 0 with bare NaN tokens in the sidecar, and later every solver refused the
# domain (exit 2).  In normalized units every number lies in [0, 1].
@pytest.mark.parametrize("solver, n_groups", [("lex", 3), ("maxmin", 3), ("probabilistic", 2)])
def test_mean_model_fits_on_the_widest_domain(tmp_path, capsys, solver, n_groups):
    lo = -1.7976931348623157e308
    domain = ScoreDomain(lo, 0.5)
    groups = {f"g{i}": lo * np.linspace(1.0, 0.0, 20) ** (i + 1) for i in range(n_groups)}
    data = write_dataset(tmp_path, groups=groups, labels=dict.fromkeys(groups, [1, 0] * 10), domain=domain)
    capsys.readouterr()
    assert run("fit", "--input", data, "--output", tmp_path / "p.json", "--solver", solver, "--metric", "tpr",
               f"--domain={lo!r}:0.5") == 0
    assert capsys.readouterr().err == ""
    floats = []  # every float token in the sidecar, NaN and Infinity included
    json.loads((tmp_path / "p.json.solution.json").read_text(),
               parse_float=lambda v: floats.append(float(v)), parse_constant=lambda v: floats.append(float(v)))
    assert floats and all(map(math.isfinite, floats))


def test_domain_with_fewer_floats_than_grid_points_is_validation_error(tmp_path, capsys):
    """1e300:1.0000000000000002e300 holds two floats, so --grid 2 works and
    the default 101 points exit 2, naming both flags."""
    hi = 1.0000000000000002e300
    data = write_dataset(tmp_path, groups={"A": [1e300, hi], "B": [hi, hi]}, domain=ScoreDomain(1e300, hi))
    argv = ("evaluate", "--input", data, "--output", tmp_path / "r.json", f"--domain=1e300:{hi!r}")
    assert run(*argv) == 2
    assert "--domain holds fewer distinct floats than --grid's 101 points" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))
    assert run(*argv, "--grid", "2") == 0


# Group 'a' has a single row under Y=1: too few for its TPR score distribution.
ONE_POSITIVE = ({"a": [0.2, 0.4, 0.6], "b": [0.1, 0.5, 0.9]}, {"a": [1, 0, 0], "b": [1, 1, 0]})


@pytest.mark.parametrize("command", [
    ("evaluate",),
    ("fit", "--solver", "exact"),
    ("fit", "--solver", "probabilistic"),
    ("lambda-sweep",),
], ids=lambda c: "-".join(c).replace("--solver-", ""))
def test_too_few_conditioned_rows_is_validation_error(tmp_path, capsys, command):
    data = write_dataset(tmp_path, groups=ONE_POSITIVE[0], labels=ONE_POSITIVE[1])
    assert run(*command, "--input", data, "--output", tmp_path / "out", "--metric", "tpr") == 2
    assert "group 'a' has 1 row(s) under Y=1" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("solver", ["lex", "maxmin"])
def test_mean_solvers_take_one_conditioned_row(tmp_path, solver):
    data = write_dataset(tmp_path, groups=ONE_POSITIVE[0], labels=ONE_POSITIVE[1])
    assert run("fit", "--input", data, "--output", tmp_path / "p.json", "--solver", solver,
               "--metric", "tpr") == 0


# No row of group 'a', then no row of any group, has label 1.
NO_POSITIVE = {"a_only": {"a": [0, 0, 0], "b": [1, 1, 0]}, "every_group": {"a": [0, 0, 0], "b": [0, 0, 0]}}


@pytest.mark.parametrize("command", [("evaluate",), ("fit", "--solver", "lex")], ids=["evaluate", "fit-lex"])
@pytest.mark.parametrize("case", sorted(NO_POSITIVE))
def test_group_without_conditioned_rows_is_one_error_line(tmp_path, capsys, command, case):
    """subset_by_label counts before it builds the subset, so an empty group or
    an empty subset is a validation error that names the group."""
    data = write_dataset(tmp_path, groups=ONE_POSITIVE[0], labels=NO_POSITIVE[case])
    assert run(*command, "--input", data, "--output", tmp_path / "out", "--metric", "tpr") == 2
    assert capsys.readouterr().err == "fairrepair: error: group 'a' has 0 row(s) under Y=1, needs at least 1\n"
    assert not list(tmp_path.glob("out*"))


def test_fit_lex_needs_a_single_metric(tmp_path, capsys):
    data = write_dataset(tmp_path, groups=ONE_POSITIVE[0], labels=ONE_POSITIVE[1])
    assert run("fit", "--input", data, "--output", tmp_path / "p.json", "--solver", "lex",
               "--metric", "tpr,fpr") == 2
    assert "solver 'lex' needs a single metric, not a combination" in capsys.readouterr().err
    assert not list(tmp_path.glob("p*"))


def test_fit_none_is_label_free_full_repair(tmp_path):
    data = write_dataset(tmp_path)  # unlabeled
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    plan = load_plan(plan_path)
    assert all(v == 1.0 for v in plan.lambdas.values())
    assert json.loads((tmp_path / "plan.json.solution.json").read_text())["method"] == "none"


def test_fit_auto_picks_by_group_count(tmp_path):
    data = labeled_binary(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--metric", "tpr") == 0
    assert json.loads((tmp_path / "plan.json.solution.json").read_text())["method"] == "exact"


# -- apply ----------------------------------------------------------------------


def test_apply_lambda_zero_preserves_scores(tmp_path):
    data = labeled_binary(tmp_path)
    plan_path = tmp_path / "plan.json"
    run("fit", "--input", data, "--output", plan_path, "--solver", "exact", "--metric", "tpr")
    plan = load_plan(plan_path).with_lambdas({"a": 0.0, "b": 0.0})
    from fairrepair import save_plan

    zero_plan = tmp_path / "zero.json"
    save_plan(plan, zero_plan)
    out = tmp_path / "out.csv"
    assert run("apply", "--input", data, "--plan", zero_plan, "--output", out) == 0
    before = load_csv(data, UNIT)
    after = load_csv(out, UNIT)
    assert np.allclose(before.scores, after.scores)
    assert np.array_equal(before.labels, after.labels)


def test_apply_missing_plan_is_io_error(tmp_path):
    data = labeled_binary(tmp_path)
    assert run("apply", "--input", data, "--plan", tmp_path / "nope.json",
               "--output", tmp_path / "out.csv") == 4


def test_apply_preserves_extra_columns_and_order(tmp_path):
    src = tmp_path / "extra.csv"
    src.write_text(
        "id,score,group,label,note\n"
        "r1,0.2,A,1,keep\n"
        "r2,0.4,A,0,these\n"
        "r3,0.1,B,1,columns\n"
        "r4,0.3,B,0,intact\n"
    )
    plan_src = write_dataset(tmp_path, "fit.csv")
    plan_path = tmp_path / "plan.json"
    run("fit", "--input", plan_src, "--output", plan_path, "--solver", "exact", "--metric", "pr")
    out = tmp_path / "out.csv"
    assert run("apply", "--input", src, "--plan", plan_path, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,score,group,label,note"
    assert [l.split(",")[0] for l in lines[1:]] == ["r1", "r2", "r3", "r4"]
    assert [l.split(",")[-1] for l in lines[1:]] == ["keep", "these", "columns", "intact"]


def test_full_repair_then_evaluate_hits_sdp_bound(tmp_path):
    rng = np.random.default_rng(12)
    ds = random_binary_dataset(rng, n_per_group=(300, 400))
    data = tmp_path / "train.csv"
    write_csv(ds, data)
    plan_path = tmp_path / "plan.json"
    # fit-only barycenter mode; pin lambda = 1 explicitly to test the SDP bound
    run("fit", "--input", data, "--output", plan_path, "--solver", "none")
    from fairrepair import save_plan

    plan = load_plan(plan_path).with_lambdas({g: 1.0 for g in ("a", "b")})
    save_plan(plan, plan_path)
    out = tmp_path / "repaired.csv"
    run("apply", "--input", data, "--plan", plan_path, "--output", out)
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--input", out, "--output", report_path,
               "--metric", "pr", "--grid", "1001") == 0
    report = json.loads(report_path.read_text())["reports"][0]
    assert report["max_gap"] <= 2.0 / min(ds.group_scores(g).size for g in ds.groups)


def test_apply_matches_per_row_reference(tmp_path):
    """Column-wise apply equals repairing each row on its own, bit for bit.

    The input reorders the columns, adds one, has a blank line and gives
    group b a single row; every cell but the score passes through.
    """
    data = labeled_binary(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "exact",
               "--metric", "tpr") == 0
    plan = load_plan(plan_path)
    rng = np.random.default_rng(8)
    scores = np.concatenate(([0.0, 1.0], plan.fitted["a"].atoms[:5], rng.random(40)))
    rows = [f"r{i},a,{float(s)!r}" for i, s in enumerate(scores)]
    rows.insert(7, f"solo,b,{float(plan.fitted['b'].atoms[3])!r}")
    text = "id,group,score\n" + "\n".join(rows[:20] + [""] + rows[20:]) + "\n"
    src = tmp_path / "mixed.csv"
    src.write_text(text)
    out = tmp_path / "out.csv"
    assert run("apply", "--input", src, "--plan", plan_path, "--output", out) == 0

    expected = ["id,group,score"]
    for line in text.splitlines()[1:]:
        if not line:
            continue
        rid, group, score = line.split(",")
        expected.append(f"{rid},{group},{float(plan.repaired_score(group, float(score)))!r}")
    assert out.read_text().splitlines() == expected


def test_apply_keeps_groups_that_differ_by_a_trailing_nul(tmp_path):
    """Groups 'a' and 'a\\0' keep their own maps, as in RepairPlan.apply."""
    src = tmp_path / "nul.csv"
    src.write_text("score,group\n0.1,a\n0.2,a\n0.3,a\n0.6,a\0\n0.7,a\0\n0.8,a\0\n")
    plan_path = tmp_path / "plan.json"
    out = tmp_path / "out.csv"
    assert run("fit", "--input", src, "--output", plan_path, "--solver", "none") == 0
    assert run("apply", "--input", src, "--plan", plan_path, "--output", out) == 0
    ds = load_csv(src, UNIT)
    assert ds.groups == ("a", "a\0")
    expected = load_plan(plan_path).apply(ds).scores
    got = np.array([float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]])
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_apply_writes_each_group_cell_back_as_read(tmp_path):
    """Group cells A, ' A ' and "A" are one group, and each is written back as read."""
    src = tmp_path / "in.csv"
    src.write_text('score,group\n0.1,A\n0.2, A \n0.3,"A"\n0.4,B\n0.5,B\n')
    plan_path = tmp_path / "plan.json"
    out = tmp_path / "out.csv"
    assert run("fit", "--input", src, "--output", plan_path, "--solver", "none") == 0
    assert run("apply", "--input", src, "--plan", plan_path, "--output", out) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()] == ["group", "A", " A ", "A", "B", "B"]


def test_apply_matches_csv_writer_byte_for_byte(tmp_path):
    """Quoted, reordered and extra columns: apply writes what csv.writer would."""
    odd = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " lead", "trail ", "naïve ☃", "", "plain"]
    header = ["id", "label", "score", "note", "group"]
    rows = [[f"r{i}", ["", " 1 ", "0"][i % 3], repr([0.0, 5e-324, 1e-05, 0.1, 1.0][i % 5]), note, group]
            for i, note in enumerate(odd) for group in ("x,y", ' "q" ')]
    src = tmp_path / "in.csv"
    src.write_bytes(csv_writer_bytes(header, rows))
    plan_path = tmp_path / "plan.json"
    out = tmp_path / "out.csv"
    assert run("fit", "--input", src, "--output", plan_path, "--solver", "none") == 0
    assert run("apply", "--input", src, "--plan", plan_path, "--output", out) == 0
    repaired = load_plan(plan_path).apply(load_csv(src, UNIT)).scores
    assert not np.array_equal(repaired, load_csv(src, UNIT).scores)
    expected = [row[:2] + [repr(float(x))] + row[3:] for row, x in zip(rows, repaired)]
    assert out.read_bytes() == csv_writer_bytes(header, expected)


def test_apply_header_only_input(tmp_path):
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", write_dataset(tmp_path), "--output", plan_path,
               "--solver", "none") == 0
    src = tmp_path / "empty.csv"
    src.write_text("score,group,note\n")
    out = tmp_path / "out.csv"
    assert run("apply", "--input", src, "--plan", plan_path, "--output", out) == 0
    assert out.read_text().splitlines() == ["score,group,note"]


# Each malformed input is rejected with exit code 2, and the message names the
# offending line where there is one.
MALFORMED_CSV = {
    "nan-score": (b"score,group\n0.2,A\nnan,B\n", ":3: score out of domain: nan"),
    "out-of-domain-score": (b"score,group\n0.2,A\n\n1.5,B\n", ":4: score out of domain: 1.5"),
    "extra-cell": (b"score,group\n0.2,A\n0.3,B,x\n", ":3: 3 cells but the header has 2"),
    "duplicate-header": (b"score,group,score\n0.2,A,0.1\n", "header repeats a column"),
    "not-utf8": (b"score,group\n0.2,A\n0.3,\xff\n", "not UTF-8"),
    "missing-group": (b"score,group,label\n0.2,A,1\n0.3\n", ":3: missing group"),
    # Each score is checked on its own line: a later bad record is not reached.
    "domain-before-later-score": (b"score,group\n0.2,A\n1.5,B\n0.3,A\nx,B\n", ":3: score out of domain: 1.5"),
    "bom-not-utf8": (b"\xef\xbb\xbfscore,group\n0.2,A\n0.3,\xff\n", "not UTF-8"),
    "field-over-limit": (b"score,group\n0.2," + b"A" * (csv.field_size_limit() + 1) + b"\n",
                         f"bad.csv:2: field larger than field limit ({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
@pytest.mark.parametrize("command", ["apply", "evaluate"])
def test_malformed_csv_is_validation_error(tmp_path, capsys, command, case):
    content, message = MALFORMED_CSV[case]
    src = tmp_path / "bad.csv"
    src.write_bytes(content)
    out = tmp_path / "out"
    if command == "apply":
        plan_path = tmp_path / "plan.json"
        assert run("fit", "--input", write_dataset(tmp_path), "--output", plan_path,
                   "--solver", "none") == 0
        capsys.readouterr()
        code = run("apply", "--input", src, "--plan", plan_path, "--output", out)
    else:
        code = run("evaluate", "--input", src, "--output", out)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b"score,group,label\n", "dataset has zero rows"),
    (b"score,group\n0.1,a\n0.2,a\n0.3,b\n", "group 'b' has 1 row(s), needs at least 2"),
], ids=["header-only", "one-row-group"])
def test_evaluate_names_the_file_in_dataset_errors(tmp_path, capsys, content, message):
    src = tmp_path / "in.csv"
    src.write_bytes(content)
    assert run("evaluate", "--input", src, "--output", tmp_path / "report.json") == 2
    assert capsys.readouterr().err == f"fairrepair: error: {src}: {message}\n"


def test_apply_unknown_group_names_its_first_line(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", write_dataset(tmp_path), "--output", plan_path,
               "--solver", "none") == 0
    src = tmp_path / "new.csv"
    src.write_text("score,group\n0.2,A\n0.3,Z\n0.4,B\n0.5,Z\n")
    assert run("apply", "--input", src, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert f"{src}:3: group 'Z' not in plan" in capsys.readouterr().err
    # The first unknown name in sorted order, at the first line of any cell that strips to it.
    src.write_text("score,group\n0.2,A\n0.3,Z\n0.4, Y \n0.5,Y\n")
    assert run("apply", "--input", src, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert f"{src}:4: group 'Y' not in plan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["apply", "evaluate"])
def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, command):
    """Excel's "CSV UTF-8" starts with a BOM: it is skipped, and apply writes none."""
    plain = write_dataset(tmp_path, groups={"A": [0.2, 0.4, 0.6], "B": [0.1, 0.3, 0.5]})
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    plan = tmp_path / "plan.json"
    assert run("fit", "--input", plain, "--output", plan, "--solver", "none") == 0
    outputs = []
    for src in (plain, bom):
        out = tmp_path / f"{src.stem}.out"
        if command == "apply":
            assert run("apply", "--input", src, "--plan", plan, "--output", out) == 0
            outputs.append(out.read_bytes())
        else:
            assert run("evaluate", "--input", src, "--output", out) == 0
            outputs.append((json.loads(out.read_text())["reports"], (tmp_path / f"{src.stem}.curves.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    if command == "apply":
        assert outputs[1].startswith(b"score,group\r\n")


def test_non_utf8_plan_and_config_are_validation_errors(tmp_path):
    data = write_dataset(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"metric": "\xff"}')
    assert run("apply", "--input", data, "--plan", bad, "--output", tmp_path / "o.csv") == 2
    assert run("fit", "--input", data, "--output", tmp_path / "p.json", "--config", bad) == 2


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested past the JSON parser's recursion limit


@pytest.mark.parametrize("command, error", [
    ("apply", "DatasetError"), ("generate", "SpecError"), ("evaluate", "DatasetError"),
])
def test_deeply_nested_json_is_validation_error(tmp_path, capsys, command, error):
    data = write_dataset(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = {
        "apply": ("--input", data, "--plan", deep, "--output", tmp_path / "o.csv"),
        "generate": ("--spec", deep, "--output", tmp_path / "out", "--n", "200"),
        "evaluate": ("--input", data, "--config", deep, "--output", tmp_path / "r.json"),
    }[command]
    assert run(command, *argv, "--json-errors") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == error


def test_plan_missing_key_is_validation_error(tmp_path):
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    del payload["domain"]
    plan_path.write_text(json.dumps(payload))
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2


def test_plan_integer_too_large_for_a_float_is_validation_error(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    payload["lambdas"]["A"] = 10**400
    plan_path.write_text(json.dumps(payload))
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert "malformed plan (OverflowError" in capsys.readouterr().err


def _packed(values, dtype):
    """``values`` as a format_version 3 plan stores them: base64 of ``dtype`` bytes."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _unpacked(text, dtype):
    return np.frombuffer(base64.b64decode(text), dtype=dtype).copy()


def _assert_plan_rejected(tmp_path, capsys, edit, message):
    """Fit a plan, ``edit`` its JSON, and check that apply exits 2 with ``message``."""
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    edit(payload)
    plan_path.write_text(json.dumps(payload))
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def _set_field(key, value):
    return lambda data: data["fitted"]["A"].update({key: value})


def _edit_packed(key, dtype, edit, write_dtype=None):
    """A plan edit: decode group A's ``key``, pass it through ``edit``, and
    encode it again (as ``write_dtype`` if given)."""
    def apply(data):
        entry = data["fitted"]["A"]
        entry[key] = _packed(edit(_unpacked(entry[key], dtype)), write_dtype or dtype)

    return apply


def _head(*values):
    """An array edit that overwrites the first values."""
    def edit(array):
        array[:len(values)] = values
        return array

    return edit


# Each of these loaded and applied, with exit 0, while numeric fields took any
# value float() accepts.  Atoms are packed now: a numeric string is not base64.
BAD_PLAN_NUMBERS = {
    "lo-string": (lambda data: data["domain"].update(lo="0"), "plan domain lo: '0' is not a JSON number"),
    "hi-true": (lambda data: data["domain"].update(hi=True), "plan domain hi: True is not a JSON number"),
    "lambda-true": (lambda data: data["lambdas"].update(A=True),
                    "plan lambda of 'A': True is not a JSON number"),
    "atom-string": (_set_field("atoms", "0.01"), "malformed plan atoms of 'A': not base64"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAN_NUMBERS))
def test_plan_numbers_must_be_json_numbers(tmp_path, capsys, case):
    _assert_plan_rejected(tmp_path, capsys, *BAD_PLAN_NUMBERS[case])


_COUNT_RANGE = "is not an integer in [1, 2**53]"
BAD_PLAN_COUNTS = {
    "string": (_set_field("counts", "1"), "malformed plan counts of 'A': not base64"),
    "true": (_set_field("counts", True), "malformed plan counts of 'A': expected a base64 string, got bool"),
    # 1.0's float64 bytes read as int64 are 4607182418800017408.
    "float": (_edit_packed("counts", "<i8", lambda a: a, write_dtype="<f8"),
              f"plan counts of 'A': 4607182418800017408 {_COUNT_RANGE}"),
    "zero": (_edit_packed("counts", "<i8", _head(0)), f"plan counts of 'A': 0 {_COUNT_RANGE}"),
    "negative": (_edit_packed("counts", "<i8", _head(-2)), f"plan counts of 'A': -2 {_COUNT_RANGE}"),
    "huge": (_edit_packed("counts", "<i8", _head(2**53 + 1)),
             f"plan counts of 'A': {2**53 + 1} {_COUNT_RANGE}"),
    "not-a-string": (_set_field("counts", [1, 1, 1, 1]),  # format_version 2's JSON array
                     "malformed plan counts of 'A': expected a base64 string, got list"),
    "total": (_edit_packed("counts", "<i8", _head(2**53, 1)),  # and two more atoms counted once
              f"plan fitted entry 'A': counts must total at most 2**53, got {2**53 + 3}"),
    "length": (_edit_packed("counts", "<i8", lambda a: a[:-1]),
               "plan fitted entry 'A': atoms and counts must be equal-length 1-d arrays"),
    "bad-base64": (_set_field("counts", "AQAAAAAAAAA*"), "malformed plan counts of 'A': not base64"),
    "non-ascii": (_set_field("counts", "AQAAAAAAAAé="), "malformed plan counts of 'A': not base64"),
    "odd-bytes": (_set_field("counts", base64.b64encode(bytes(11)).decode("ascii")),
                  "malformed plan counts of 'A': 11 bytes is not a multiple of 8"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAN_COUNTS))
def test_plan_counts_must_be_positive_json_integers(tmp_path, capsys, case):
    _assert_plan_rejected(tmp_path, capsys, *BAD_PLAN_COUNTS[case])


BAD_PLAN_ATOMS = {
    "not-a-string": (_set_field("atoms", [0.2, 0.4, 0.6, 0.8]),
                     "malformed plan atoms of 'A': expected a base64 string, got list"),
    "odd-bytes": (_set_field("atoms", "AAAA"), "malformed plan atoms of 'A': 3 bytes is not a multiple of 8"),
    "nan": (_edit_packed("atoms", "<f8", _head(np.nan)), "plan fitted entry 'A': atoms must be finite"),
    "inf": (_edit_packed("atoms", "<f8", _head(np.inf)), "plan fitted entry 'A': atoms must be finite"),
    "above-one": (_edit_packed("atoms", "<f8", _head(1.5)), "plan fitted entry 'A': atoms must lie in [0, 1]"),
    "negative": (_edit_packed("atoms", "<f8", _head(-0.5)), "plan fitted entry 'A': atoms must lie in [0, 1]"),
    # One ulp past either end: the range check has no tolerance.
    "one-ulp-above-one": (_edit_packed("atoms", "<f8", _head(1 + 2**-52)),
                          "plan fitted entry 'A': atoms must lie in [0, 1]"),
    "one-ulp-below-zero": (_edit_packed("atoms", "<f8", _head(-5e-324)),
                           "plan fitted entry 'A': atoms must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAN_ATOMS))
def test_plan_atoms_must_be_finite_and_in_the_unit_interval(tmp_path, capsys, case):
    _assert_plan_rejected(tmp_path, capsys, *BAD_PLAN_ATOMS[case])


def test_format_version_1_plan_exits_two_naming_the_version(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    assert payload["format_version"] == 3 and "group_weights" not in payload
    for version in (1, 2):  # both stored JSON arrays of numbers
        payload["format_version"] = version
        plan_path.write_text(json.dumps(payload))
        assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert f"unsupported plan format_version {version}" in err and "re-run `fairrepair fit`" in err


# -- lambda-sweep ------------------------------------------------------------------


def test_sweep_identical_groups_all_zero(tmp_path):
    data = write_dataset(tmp_path, groups={"A": [0.2, 0.4], "B": [0.2, 0.4]})
    out = tmp_path / "sweep.csv"
    assert run("lambda-sweep", "--input", data, "--output", out, "--steps", "11") == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 11
    assert all(float(v) == 0.0 for _, v, _ in rows)
    assert rows[0][2] == "1"  # tie-break marks lambda = 0


def test_sweep_convex_and_argmin_matches_exact(tmp_path):
    data = labeled_binary(tmp_path)
    out = tmp_path / "sweep.csv"
    assert run("lambda-sweep", "--input", data, "--output", out,
               "--metric", "tpr", "--steps", "101") == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    vals = np.array([float(v) for _, v, _ in rows])
    assert np.diff(vals, 2).min() >= -1e-6
    marked = [float(l) for l, _, flag in rows if flag == "1"]
    assert len(marked) == 1
    plan_path = tmp_path / "plan.json"
    run("fit", "--input", data, "--output", plan_path, "--solver", "exact", "--metric", "tpr")
    lam_exact = json.loads((tmp_path / "plan.json.solution.json").read_text())["lambda"]
    assert abs(marked[0] - lam_exact) <= 1.0 / 100 + 1e-9


@pytest.mark.parametrize("metric, p", [("tpr", "1"), ("tpr:1,fpr:0.5", "2")])
def test_sweep_rows_match_objective_and_grid_solver(tmp_path, metric, p):
    """Every sweep row is objective_eval at its lambda, bit for bit, and the
    marked row is the first row holding the smallest value: the grid solver's
    pick, with ties to the smaller lambda."""
    data = labeled_binary(tmp_path)
    out = tmp_path / "sweep.csv"
    flags = ("--metric", metric, "--p", p)
    assert run("lambda-sweep", "--input", data, "--output", out, "--steps", "23", *flags) == 0
    ds = load_csv(data, UNIT)
    plan = fit_plan(ds)
    obj = LambdaObjective(parse_combo(metric), float(p))
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert len(rows) == 23
    for lam, value, _ in rows:
        assert float(value) == objective_eval(plan, ds, obj, float(lam))
    values = [float(v) for _, v, _ in rows]
    assert [flag for _, _, flag in rows] == ["1" if i == values.index(min(values)) else "0"
                                             for i in range(23)]


def test_sweep_requires_two_groups(tmp_path):
    groups = {"a": [0.1, 0.2], "b": [0.3, 0.4], "c": [0.5, 0.6]}
    data = write_dataset(tmp_path, "three.csv", groups)
    assert run("lambda-sweep", "--input", data, "--output", tmp_path / "s.csv") == 2


def test_sweep_rejects_one_step(tmp_path):
    data = write_dataset(tmp_path)
    assert run("lambda-sweep", "--input", data, "--output", tmp_path / "s.csv",
               "--steps", "1") == 2


# -- numeric flags ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("evaluate", "--p", "nan"),
    ("evaluate", "--p", "inf"),
    ("fit", "--p", "nan"),
    ("fit", "--p", "inf"),
    ("fit", "--solver", "exact", "--tol", "nan"),  # fit takes no --tol: any value exits 2
    ("fit", "--solver", "exact", "--tol", "inf"),
    ("lambda-sweep", "--p", "nan"),
], ids=lambda argv: " ".join(argv).replace("--", "").replace(" ", "-"))
def test_non_finite_p_and_tol_are_validation_errors(tmp_path, argv):
    data = labeled_binary(tmp_path)
    command, *flags = argv
    out = tmp_path / "out"
    assert run(command, "--input", data, "--output", out, "--metric", "tpr", *flags) == 2
    assert list(tmp_path.iterdir()) == [data]  # no partial output


@pytest.mark.parametrize("via", ["flag", "config"])
def test_fit_rejects_tol_before_reading_the_input(tmp_path, capsys, via):
    """fit takes the library's bracket width: --tol, as a flag or a config key, exits 2."""
    argv = ["fit", "--input", tmp_path / "missing.csv", "--output", tmp_path / "out", "--solver", "exact"]
    if via == "flag":
        argv += ["--tol", "1e-6"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"tol": 1e-6}))
        argv += ["--config", tmp_path / "config.json"]
    assert run(*argv) == 2
    expected = "unrecognized arguments: --tol 1e-6" if via == "flag" else "'tol' cannot be set in a config file"
    assert expected in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("via", ["flag", "config"])
def test_generate_checks_fraction_before_reading_the_spec(tmp_path, capsys, via):
    argv = ["generate", "--spec", tmp_path / "missing.json", "--output", tmp_path / "g"]
    if via == "flag":
        argv += ["--fraction", "nan"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"fraction": "nan"}))
        argv += ["--config", tmp_path / "config.json"]
    assert run(*argv) == 2
    assert "argument --fraction: fraction must be strictly between 0 and 1, got nan" in capsys.readouterr().err
    assert not list(tmp_path.glob("g*"))


WIDE = "-1e308:1e308"  # both bounds finite, but hi - lo overflows to inf
HUGE_WEIGHTS = "pr:1e308,tpr:1e308,fpr:1e308,nr:1e308,tnr:1e308"  # each valid, the sum is inf


def _valid(flag, value) -> bool:
    """Whether the CLI may accept ``value`` for ``flag`` (--n and --seed: not judged here)."""
    try:
        if flag == "--p":
            return 1.0 <= float(value) < math.inf
        if flag == "--fraction":
            return 0.0 < float(value) < 1.0
        if flag in ("--grid", "--steps"):
            return 2 <= int(value) <= MAX_COUNT
        if flag == "--domain":
            lo, hi = map(float, value.split(":"))
            return lo < hi and math.isfinite(hi - lo)
        if flag == "--metric":
            total = 0.0
            for term in value.split(","):
                w = float(term.partition(":")[2])
                if not 0.0 <= w < math.inf:
                    return False
                total += w  # in term order, as the combination adds them
            return 0.0 < total < math.inf
    except ValueError:
        return False
    return True


def test_numeric_flags_keep_exit_code_contract(tmp_path):
    """Fuzzed numeric flags, --domain bounds and metric weights.

    Exit 0/2/3/4, no traceback, no NaN or infinity in any output, and exit 0
    only if every value given is valid, whichever solver is chosen.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    data = write_dataset(tmp_path, groups={"A": [0.1, 0.3, 0.6], "B": [0.2, 0.5, 0.9]},
                         labels={"A": [0, 1, 1], "B": [1, 0, 1]})
    special = ["nan", "-nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "2e-308", "1e-17", "1"]
    floats = st.one_of(st.sampled_from(special), st.floats().map(repr))
    # Drawn counts stay at most 1e4 so no example allocates much; the pinned
    # examples above the count ceiling are rejected before any allocation.
    counts = st.one_of(st.sampled_from(special), st.integers(-3, 10**4).map(str))
    bounds = st.one_of(st.sampled_from(["0", "1", "-1", "2", "-1e308", "1e308"]), floats)
    weights = st.one_of(st.sampled_from(["0", "0.5", "1", "1e308"]), floats)
    terms = st.tuples(st.sampled_from(["pr", "tpr", "fpr", "nr", "tnr", "fnr"]), weights)
    commands = st.sampled_from([
        ("evaluate",),
        *(("fit", "--solver", s) for s in ("exact", "probabilistic", "maxmin", "lex", "none")),
        ("lambda-sweep",),
        ("generate",),
    ])
    # Each command is fuzzed only with the flags it declares.
    declared = {"evaluate": ("--p", "--grid", "--domain", "--metric"),
                "fit": ("--p", "--domain", "--metric"),
                "lambda-sweep": ("--p", "--steps", "--domain", "--metric"),
                "generate": ("--n", "--seed", "--fraction")}
    flag_values = st.fixed_dictionaries({}, optional={
        "--p": floats, "--fraction": floats, "--grid": counts, "--steps": counts, "--n": counts,
        "--seed": counts, "--domain": st.tuples(bounds, bounds).map(":".join),
        "--metric": st.lists(terms, min_size=1, max_size=5).map(
            lambda ts: ",".join(f"{k}:{w}" for k, w in ts)),
    })

    def no_nan(token):
        raise AssertionError(f"{token} in JSON output")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(commands, flag_values)
    @hypothesis.example(("evaluate",), {"--p": "nan"})
    @hypothesis.example(("evaluate",), {"--grid": str(10**20)})
    @hypothesis.example(("lambda-sweep",), {"--steps": str(10**17)})
    @hypothesis.example(("generate",), {"--n": str(10**17)})
    @hypothesis.example(("generate",), {"--n": str(10**20), "--seed": "-1"})
    @hypothesis.example(("generate",), {"--fraction": "nan"})
    @hypothesis.example(("generate",), {"--fraction": "1"})
    @hypothesis.example(("generate",), {"--n": "2", "--fraction": "5e-324"})
    # Before the domain width, the weight sum and every fit flag were checked, each of
    # these exited 0 with a value the solver never read, wrote NaN, or failed on a NaN.
    @hypothesis.example(("fit", "--solver", "none"), {"--domain": WIDE})
    @hypothesis.example(("fit", "--solver", "lex"), {"--domain": WIDE})
    @hypothesis.example(("fit", "--solver", "maxmin"), {"--domain": WIDE})
    @hypothesis.example(("fit", "--solver", "exact"), {"--domain": WIDE})
    @hypothesis.example(("lambda-sweep",), {"--domain": WIDE})
    @hypothesis.example(("evaluate",), {"--domain": WIDE})
    @hypothesis.example(("evaluate",), {"--metric": HUGE_WEIGHTS})
    @hypothesis.example(("lambda-sweep",), {"--metric": "pr:1e308,nr:1e308,tpr:1e308"})
    @hypothesis.example(("fit", "--solver", "probabilistic"), {"--p": "nan"})
    @hypothesis.example(("fit", "--solver", "none"), {"--p": "0"})
    @hypothesis.example(("fit", "--solver", "maxmin"), {"--p": "inf"})
    def check(command, values):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        argv = [*command, "--output", str(out / "out")]
        if command[0] != "generate":
            argv += ["--input", str(data), "--metric", "tpr"]
        given = {flag: values[flag] for flag in declared[command[0]] if flag in values}
        argv += [f"{flag}={value}" for flag, value in given.items()]  # '=' keeps a leading '-' a value
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert all(_valid(flag, value) for flag, value in given.items()), argv
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=no_nan)
        for path in out.glob("*.csv"):
            for row in csv.reader(path.read_text().splitlines()):
                for cell in row:
                    try:
                        assert math.isfinite(float(cell)), (path.name, row)
                    except ValueError:  # a header, group or metric name
                        pass

    check()


# Each ended in a traceback with exit 1 before counts had a ceiling and seeds a
# sign: numpy's "Maximum allowed size exceeded", OverflowError or MemoryError.
# No value here reaches an allocation.
BAD_COUNTS = [
    (("evaluate",), "grid", value) for value in (10**17, 10**20, MAX_COUNT + 1)
] + [
    (("lambda-sweep",), "steps", value) for value in (10**17, 10**20, MAX_COUNT + 1)
] + [
    (("generate",), "n", value) for value in (10**17, 10**20, MAX_COUNT + 1)
] + [(("generate",), "seed", -1)]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, flag, value", BAD_COUNTS,
                         ids=[f"{c[0]}-{f}-{v}" for c, f, v in BAD_COUNTS])
def test_count_ceiling_and_seed_sign_exit_two(tmp_path, capsys, command, flag, value, via):
    argv = [*command, "--output", tmp_path / "out"]
    if command[0] != "generate":
        argv += ["--input", write_dataset(tmp_path, "in.csv")]
    if via == "flag":
        argv.append(f"--{flag}={value}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: value}))
        argv += ["--config", config]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"argument --{flag}: " in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


SIX_ROWS = dict(groups={"a": [0.1, 0.5, 0.9], "b": [0.2, 0.4, 0.8]},
                labels={"a": [0, 1, 1], "b": [1, 0, 1]})


def _wide_plan(tmp_path, data):
    plan = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan, "--solver", "none") == 0
    payload = json.loads(plan.read_text())
    payload["domain"] = {"lo": -1e308, "hi": 1e308}
    plan.write_text(json.dumps(payload))
    return ("apply", "--plan", plan, "--input", data)


def _wide_spec(tmp_path, data):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(CUSTOM_SPEC, domain={"lo": -1e308, "hi": 1e308})))
    return ("generate", "--spec", spec, "--n", "200")


def _wide_config(tmp_path, data):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain": WIDE}))
    return ("fit", "--input", data, "--solver", "lex", "--config", config)


# Before the width was checked, fit --solver none|lex|maxmin exited 0 (the
# sidecars held bare NaN tokens), apply mapped every score to nan or 1e+308,
# generate exited 0, and exact, lambda-sweep and evaluate failed on a NaN.
WIDE_DOMAIN_CASES = {
    **{f"fit-{s}": ("fit", "--solver", s) for s in ("none", "lex", "maxmin", "exact")},
    "lambda-sweep": ("lambda-sweep",),
    "evaluate": ("evaluate",),
    "config": _wide_config,
    "plan": _wide_plan,
    "spec": _wide_spec,
}


@pytest.mark.parametrize("case", list(WIDE_DOMAIN_CASES))
def test_domain_width_must_be_finite(tmp_path, capsys, case):
    data = write_dataset(tmp_path, "in.csv", **SIX_ROWS)
    argv = WIDE_DOMAIN_CASES[case]
    if callable(argv):
        argv = argv(tmp_path, data)
    else:
        argv = (*argv, "--input", data, "--metric", "tpr", f"--domain={WIDE}")
    capsys.readouterr()
    before = set(tmp_path.iterdir())
    assert run(*argv, "--output", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "score domain [-1e+308, 1e+308] has width inf; hi - lo must be finite" in err, err
    assert "Traceback" not in err
    assert set(tmp_path.iterdir()) == before


def test_extreme_domains_keep_exit_code_contract(tmp_path):
    """Every command on domains with bounds up to the largest float: exit 0/2/3/4,
    at most one error line, no warning, and no NaN or Infinity in any written file.
    A fit fails only where a group has too few rows (exit 2, naming the count),
    or where probabilistic's closed form is undefined (exit 3) because the groups
    are equal on the normalized axis: evaluate reads no gap and exact returns 0."""
    rng = np.random.default_rng(13)
    bounds = [s * v for v in (1.7976931348623157e308, 1e308, 1e300, 1e10, 1.0) for s in (1, -1)] + [0.0, 0.5, 1e-300]
    domains = [ScoreDomain(lo, hi) for lo in bounds for hi in bounds if lo < hi and math.isfinite(hi - lo)]
    non_finite = re.compile(r"\b(NaN|nan|Infinity|inf)\b")
    for case in range(60):
        domain = domains[rng.integers(len(domains))]
        n_groups = int(rng.integers(2, 5))
        sizes = rng.integers(4, 13, n_groups)
        u = rng.random(sizes.sum())
        near = min(1.0, domain.width)
        scores = [domain.lo + u * domain.width, domain.lo + u * near, domain.hi - u * near][rng.integers(3)]
        groups = np.repeat(list("abcd"[:n_groups]), sizes).tolist()
        ds = ScoredDataset(np.clip(scores, domain.lo, domain.hi), groups, rng.integers(0, 2, sizes.sum()), domain)
        out = tmp_path / str(case)
        out.mkdir()
        data = out / "in.csv"
        write_csv(ds, data)
        flags = ("--input", data, f"--domain={domain.lo!r}:{domain.hi!r}", "--metric", ["pr", "tpr"][case % 2])
        solvers = ("exact", "probabilistic", "maxmin", "lex", "none") if n_groups == 2 else ("maxmin", "lex", "none")
        commands = [("evaluate", *flags, "--output", out / "report.json")]
        commands += [("fit", *flags, "--solver", s, "--output", out / f"{s}.json") for s in solvers]
        commands += [("lambda-sweep", *flags, "--output", out / "sweep.csv")] * (n_groups == 2)
        commands += [("apply", "--plan", out / "none.json", "--input", data, "--output", out / "repaired.csv")]
        for argv in commands:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = run(*argv)
            assert code in (0, 2, 3, 4), (argv, err.getvalue())
            assert not caught, (argv, [str(w.message) for w in caught])
            lines = err.getvalue().splitlines()
            assert lines == [] or (len(lines) == 1 and lines[0].startswith("fairrepair: error: ")), (argv, lines)
            if argv[0] == "fit" and code != 0:
                if code == 3 and "probabilistic" in argv:
                    report = json.loads((out / "report.json").read_text())["reports"][0]
                    assert report["exact_gap"] == report["max_gap"] == 0.0, (domain, report)
                    assert json.loads((out / "exact.json.solution.json").read_text())["lambda"] == 0.0
                else:
                    assert code == 2 and re.search(r"group '\w' has \d+ row\(s\)", lines[0]), (argv, lines)
        for path in out.iterdir():
            assert not non_finite.search(path.read_text()), (domain, path.name)


# Before the sum was checked, evaluate exited 0 with "weighted_expected_gap":
# Infinity, and fit --solver exact and lambda-sweep exited 3 ("objective is not
# finite").
@pytest.mark.parametrize("command", [("evaluate",), ("fit", "--solver", "exact"), ("lambda-sweep",)],
                         ids=lambda c: c[-1])
def test_metric_weights_must_have_a_finite_sum(tmp_path, capsys, command):
    data = write_dataset(tmp_path, "in.csv", groups={"a": [0.1, 0.5, 0.9, 0.3], "b": [0.2, 0.4, 0.8, 0.6]},
                         labels={"a": [0, 1, 1, 0], "b": [1, 0, 1, 0]})
    out = tmp_path / "out"
    assert run(*command, "--input", data, "--output", out, "--metric", HUGE_WEIGHTS) == 2
    err = capsys.readouterr().err
    assert "metric weights must have a positive, finite sum, got inf" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))
    # One huge weight is still a valid weight.
    assert run(*command, "--input", data, "--output", out, "--metric", "pr:1e308,tpr:0") == 0


# Before the sum had to be positive, fit --metric tpr:0 wrote a plan with exit 0
# whose objective was 0 at every lambda.
@pytest.mark.parametrize("command", [("evaluate",), ("fit", "--solver", "exact"), ("lambda-sweep",)],
                         ids=lambda c: c[-1])
@pytest.mark.parametrize("metric", ["tpr:0", "tpr:0,fpr:0", "tpr:-0.0"])
def test_metric_weights_must_have_a_positive_sum(tmp_path, capsys, command, metric):
    data = write_dataset(tmp_path, "in.csv", groups={"a": [0.1, 0.5, 0.9, 0.3], "b": [0.2, 0.4, 0.8, 0.6]},
                         labels={"a": [0, 1, 1, 0], "b": [1, 0, 1, 0]})
    assert run(*command, "--input", data, "--output", tmp_path / "out", "--metric", metric) == 2
    err = capsys.readouterr().err
    assert "metric weights must have a positive, finite sum, got 0.0" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", [("evaluate",), ("fit", "--solver", "exact"), ("lambda-sweep",)],
                         ids=lambda c: c[-1])
def test_bad_metric_weight_is_validation_error(tmp_path, capsys, command):
    data = write_dataset(tmp_path, "in.csv", groups={"a": [0.1, 0.5, 0.9, 0.3], "b": [0.2, 0.4, 0.8, 0.6]},
                         labels={"a": [0, 1, 1, 0], "b": [1, 0, 1, 0]})
    assert run(*command, "--input", data, "--output", tmp_path / "out", "--metric", "tpr:abc") == 2
    err = capsys.readouterr().err
    assert "bad metric weight in 'tpr:abc'" in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


BAD_FIT_VALUES = [("p", "nan"), ("p", "inf"), ("p", "0"), ("tol", "nan"), ("tol", "-1"),
                  ("tol", "0")]


# A solver that does not read --p used to accept any value for it, so each of
# these wrote a plan with exit 0 for some solver.  fit takes no --tol (the exact
# solver's own bracket width serves every run), so any tol value exits 2 too.
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("flag, value", BAD_FIT_VALUES, ids=[f"{f}-{v}" for f, v in BAD_FIT_VALUES])
@pytest.mark.parametrize("solver", ["auto", "exact", "probabilistic", "maxmin", "lex", "none"])
def test_fit_checks_numeric_flags_whatever_the_solver(tmp_path, capsys, solver, flag, value, via):
    argv = ["fit", "--input", labeled_binary(tmp_path), "--output", tmp_path / "out",
            "--solver", solver, "--metric", "tpr"]
    if via == "flag":
        argv.append(f"--{flag}={value}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag: value}))
        argv += ["--config", config]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    expected = {"p": "argument --p: ", "tol": f"unrecognized arguments: --tol={value}" if via == "flag"
                else "'tol' cannot be set in a config file"}
    assert expected[flag] in err and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))


def test_out_of_memory_is_validation_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, "load_csv", exhausted)
    out = tmp_path / "r.json"
    assert run("evaluate", "--input", write_dataset(tmp_path), "--output", out) == 2
    assert "out of memory: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


# -- generate ---------------------------------------------------------------------


def test_generate_writes_splits_and_meta(tmp_path):
    prefix = tmp_path / "synth"
    assert run("generate", "--output", prefix, "--n", "400", "--seed", "3") == 0
    labeled = load_csv(f"{prefix}_labeled.csv", ScoreDomain(0, 100))
    holdout = load_csv(f"{prefix}_holdout.csv", ScoreDomain(0, 100))
    assert len(labeled) == 200 and len(holdout) == 200
    meta = json.loads((tmp_path / "synth_meta.json").read_text())
    assert meta["generator"] == "numpy-pcg64"
    assert meta["seed"] == 3


def test_generate_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "one", tmp_path / "two"
    run("generate", "--output", p1, "--n", "300", "--seed", "9")
    run("generate", "--output", p2, "--n", "300", "--seed", "9")
    assert (tmp_path / "one_labeled.csv").read_bytes() == (tmp_path / "two_labeled.csv").read_bytes()
    assert (tmp_path / "one_holdout.csv").read_bytes() == (tmp_path / "two_holdout.csv").read_bytes()


def test_generate_names_where_a_group_is_short(tmp_path, capsys):
    assert run("generate", "--output", tmp_path / "g", "--n", "12", "--seed", "0") == 2
    assert capsys.readouterr().err == \
        "fairrepair: error: group 'group_b' has 1 row(s) in the sample, needs at least 2\n"
    assert not list(tmp_path.glob("g*"))


CUSTOM_SPEC = {
    "domain": {"lo": 0.0, "hi": 1.0},
    "groups": [{"name": "a", "proportion": 0.5}, {"name": "b", "proportion": 0.5}],
    "score_support": [0.25, 0.75],
    "score_pmf": {"a": [0.8, 0.2], "b": [0.2, 0.8]},
    "label1_prob": {"a": [0.2, 0.9], "b": [0.3, 0.8]},
}


def test_generate_custom_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CUSTOM_SPEC))
    prefix = tmp_path / "custom"
    assert run("generate", "--spec", spec_path, "--output", prefix, "--n", "200", "--seed", "1") == 0
    ds = load_csv(f"{prefix}_labeled.csv", UNIT)
    assert set(np.unique(ds.scores)) <= {0.25, 0.75}


def test_generate_rejects_a_spec_group_that_draws_no_rows(tmp_path, capsys):
    """At 0.999/0.001 and n = 200, group b draws no row: the sample fails the same count as one row."""
    spec = copy.deepcopy(CUSTOM_SPEC)
    spec["groups"][0]["proportion"], spec["groups"][1]["proportion"] = 0.999, 0.001
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert run("generate", "--spec", spec_path, "--output", tmp_path / "g", "--n", "200", "--seed", "0") == 2
    assert capsys.readouterr().err == "fairrepair: error: group 'b' has 0 row(s) in the sample, needs at least 2\n"
    assert not list(tmp_path.glob("g*"))


def custom_spec_with(path, value):
    """CUSTOM_SPEC as JSON bytes, with the value at ``path`` replaced."""
    spec = copy.deepcopy(CUSTOM_SPEC)
    *parents, last = path
    node = spec
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(spec).encode()


NAN = float("nan")
# A domain that ScoreDomain rejects; plans and specs once reported these with
# the bare message, and a spec's as a DatasetError.
BAD_DOMAINS = {
    "reversed": ({"lo": 1, "hi": 0}, "score domain needs hi > lo, got [1.0, 0.0]"),
    "infinite-width": ({"lo": -1e308, "hi": 1e308},
                       "score domain [-1e+308, 1e+308] has width inf; hi - lo must be finite"),
}
# Each case ended in a traceback or exit 0 before the spec got the plan's checks.
BAD_SPECS = {
    "lo-not-a-number": (custom_spec_with(("domain", "lo"), "x"), "malformed joint spec"),
    "support-not-numbers": (custom_spec_with(("score_support",), ["q", 0.75]), "malformed joint spec"),
    "nan-proportion": (custom_spec_with(("groups", 0, "proportion"), NAN), "proportions must be"),
    "nan-pmf": (custom_spec_with(("score_pmf", "a"), [NAN, 0.2]), "pmf for group 'a'"),
    "nan-label1-prob": (custom_spec_with(("label1_prob", "a"), [NAN, 0.9]), "group 'a' must lie"),
    "repeated-name": (custom_spec_with(("groups", 1, "name"), "a"), "distinct strings, got 'a'"),
    "name-not-a-string": (custom_spec_with(("groups", 0, "name"), 1), "distinct strings, got 1"),
    "unknown-key": (custom_spec_with(("comment",), "x"), "spec must be a JSON object with exactly"),
    "not-utf8": (b'{"domain": "\xff"}', "not valid spec JSON"),
    "proportion-string": (custom_spec_with(("groups", 0, "proportion"), "0.5"),
                          "joint spec proportion of 'a': '0.5' is not a JSON number"),
    "hi-string": (custom_spec_with(("domain", "hi"), "100"),
                  "joint spec domain hi: '100' is not a JSON number"),
    "support-not-increasing": (custom_spec_with(("score_support",), [0.75, 0.25]),
                               "score support must be strictly increasing"),
    "support-outside-domain": (custom_spec_with(("score_support",), [0.25, 1.5]),
                               "score support must lie inside the domain"),
    "groups-not-an-array": (custom_spec_with(("groups",), {"name": "a", "proportion": 1.0}),
                            "spec groups must be a JSON array"),
    "support-a-number": (custom_spec_with(("score_support",), 0.5),
                         "malformed joint spec score_support: expected a JSON array, got float"),
    "proportion-too-large": (custom_spec_with(("groups", 0, "proportion"), 10**400),
                             "malformed joint spec (OverflowError: int too large to convert to float)"),
    **{f"domain-{case}": (custom_spec_with(("domain",), domain), f"spec domain: {message}")
       for case, (domain, message) in BAD_DOMAINS.items()},
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_is_validation_error(tmp_path, capsys, case):
    content, message = BAD_SPECS[case]
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(content)
    assert run("generate", "--spec", spec_path, "--output", tmp_path / "out", "--n", "200",
               "--json-errors") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert json.loads(err)["error"] == "SpecError"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("case", sorted(BAD_DOMAINS))
def test_plan_domain_error_names_the_plan(tmp_path, capsys, case):
    domain, message = BAD_DOMAINS[case]
    data = write_dataset(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    plan_path.write_text(json.dumps(dict(json.loads(plan_path.read_text()), domain=domain)))
    capsys.readouterr()
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv",
               "--json-errors") == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "DatasetError", "message": f"plan domain: {message}", "exit_code": 2}


def test_spec_bytes_keep_exit_code_contract(tmp_path):
    """Mutated bundled-spec bytes: exit 0/2/3/4, no traceback, no NaN in _meta.json."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spec = bundled_spec().to_dict()

    def paths(node, prefix=()):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield prefix + (key,)
            if isinstance(child, (dict, list)):
                yield from paths(child, prefix + (key,))

    def mutated(path, op, value):
        tree = copy.deepcopy(spec)
        *parents, key = path
        node = tree
        for k in parents:
            node = node[k]
        if op == "swap":
            node[key] = value
        elif op == "drop":
            del node[key]
        elif op == "repeat" and isinstance(node, list):
            node.insert(key, node[key])
        elif op == "repeat":  # json.dumps cannot repeat a key: splice the pair in as text
            k, mark = json.dumps(key), "\0repeat"
            old, node[key] = node[key], mark
            return json.dumps(tree).replace(f"{k}: {json.dumps(mark)}",
                                            f"{k}: {json.dumps(old)}, {k}: {json.dumps(value)}")
        return json.dumps(tree)

    def no_nan(token):
        raise AssertionError(f"{token} in JSON output")

    ops = st.sampled_from(["keep", "swap", "drop", "repeat"])
    values = st.sampled_from([NAN, "group_a", True, [], [0.5, 0.5]])
    flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(list(paths(spec))), ops, values, flips)
    @hypothesis.example(("domain", "lo"), "swap", "group_a", [])
    @hypothesis.example(("score_support", 0), "swap", "group_a", [])
    @hypothesis.example(("groups", 0, "proportion"), "swap", NAN, [])
    @hypothesis.example(("score_pmf", "group_a", 0), "swap", NAN, [])
    @hypothesis.example(("label1_prob", "group_a", 0), "swap", NAN, [])
    @hypothesis.example(("domain",), "keep", NAN, [(2, 0xFF)])
    def check(path, op, value, flips):
        content = bytearray(mutated(path, op, value).encode())
        for pos, byte in flips:
            content[pos % len(content)] = byte
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        (out / "spec.json").write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["generate", "--spec", str(out / "spec.json"), "--output", str(out / "g"),
                         "--n", "40"])
        assert code in (0, 2, 3, 4), (bytes(content), err.getvalue())
        assert "Traceback" not in err.getvalue()
        for meta in out.glob("*_meta.json"):
            json.loads(meta.read_text(), parse_constant=no_nan)

    check()


def test_config_file_precedence(tmp_path):
    data = labeled_binary(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": "tpr", "solver": "lex", "p": 2}))
    # config supplies metric and p; the flag overrides the solver
    assert run("fit", "--input", data, "--output", tmp_path / "plan.json",
               "--config", config, "--solver", "exact") == 0
    assert run("fit", "--input", data, "--output", tmp_path / "flags.json",
               "--metric", "tpr", "--p", "2", "--solver", "exact") == 0
    solution = (tmp_path / "plan.json.solution.json").read_bytes()
    assert json.loads(solution)["method"] == "exact"
    assert solution == (tmp_path / "flags.json.solution.json").read_bytes()


def test_cli_outputs_deterministic(tmp_path):
    data = labeled_binary(tmp_path)
    outs = []
    for name in ("a", "b"):
        plan_path = tmp_path / f"{name}.json"
        run("fit", "--input", data, "--output", plan_path, "--solver", "exact", "--metric", "tpr")
        outs.append(plan_path.read_bytes())
    assert outs[0] == outs[1]


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """evaluate, fit --solver exact and lambda-sweep write the same bytes under
    one and two BLAS threads.  At 4e4 rows a W_p sum has over 10,000 terms,
    where a BLAS dot product would split it across threads."""
    ds = random_binary_dataset(np.random.default_rng(11), n_per_group=(20_000, 20_000))
    data = tmp_path / "data.csv"
    write_csv(ds, data)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        for argv in (
            ("evaluate", "--output", out / "report.json"),
            ("fit", "--output", out / "plan.json", "--solver", "exact"),
            ("lambda-sweep", "--output", out / "sweep.csv", "--steps", "11"),
        ):
            run_subprocess(*argv, "--input", data, "--metric", "tpr", OPENBLAS_NUM_THREADS=threads)
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["plan.json", "plan.json.solution.json", "report.curves.csv",
                                  "report.json", "sweep.csv"]
    assert outputs[0] == outputs[1]


# Flags each subcommand used to accept without reading them, with a valid value.
UNREAD_FLAGS = {
    "evaluate": {"--solver": "auto", "--seed": "0", "--tol": "1e-6"},
    "fit": {"--seed": "0", "--grid": "101", "--tol": "1e-6"},
    "apply": {"--metric": "pr", "--grid": "101", "--p": "1", "--solver": "auto", "--seed": "0",
              "--domain": "0:1", "--tol": "1e-6", "--config": None},
    "lambda-sweep": {"--grid": "101", "--solver": "auto", "--seed": "0", "--tol": "1e-6"},
    "generate": {"--metric": "pr", "--grid": "101", "--p": "1", "--solver": "auto",
                 "--domain": "0:1", "--tol": "1e-6"},
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in UNREAD_FLAGS.items() for f in flags],
                         ids=lambda x: x.strip("-"))
def test_unread_flag_is_rejected(tmp_path, command, flag):
    data = labeled_binary(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    config = tmp_path / "config.json"
    config.write_text("{}")
    out = tmp_path / "out"
    argv = {
        "apply": ["--input", data, "--plan", plan_path],
        "generate": ["--n", "40"],
    }.get(command, ["--input", data])
    value = UNREAD_FLAGS[command][flag] or config
    assert run(command, *argv, "--output", out, flag, value) == 2
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command, config", [
    ("evaluate", {"grid": "x"}),
    ("fit", {"p": "x"}),
    ("fit", {"metric": 5}),
    ("fit", {"domain": 5}),
    ("fit", {"tol": [1]}),
    ("evaluate", {"grid": 11.0}),
    ("evaluate", {"grid": None}),
    ("generate", {"seed": "x"}),
    ("generate", {"n": "x"}),
    ("generate", {"fraction": "x"}),
    ("lambda-sweep", {"steps": "x"}),
    ("fit", ["metric", "tpr"]),  # config must be a JSON object
], ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_bad_config_value_is_validation_error(tmp_path, capsys, command, config):
    data = labeled_binary(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["--n", "40"] if command == "generate" else ["--input", data]
    assert run(command, *argv, "--output", tmp_path / "out", "--config", path) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_config_solver_takes_the_flag_choices(tmp_path, capsys):
    data = labeled_binary(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"metric": "tpr", "solver": "bogus"}))
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--config", config) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not plan_path.exists()


def test_config_serves_every_command_but_rejects_unknown_keys(tmp_path, capsys):
    data = labeled_binary(tmp_path)
    shared = {"metric": "tpr", "solver": "exact", "grid": 21, "p": 1,
              "domain": "0:1", "steps": 11, "seed": 3, "n": 100, "fraction": 0.5}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(shared))
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--config", config) == 0
    # 20 halvings bring the bracket to 2**-20 <= 1e-6, the default tol, plus both ends
    assert json.loads((tmp_path / "plan.json.solution.json").read_text())["evaluations"] == 22
    sweep = tmp_path / "sweep.csv"
    assert run("lambda-sweep", "--input", data, "--output", sweep, "--config", config) == 0
    assert len(sweep.read_text().splitlines()) == 1 + 11
    assert run("generate", "--output", tmp_path / "g", "--config", config) == 0
    assert json.loads((tmp_path / "g_meta.json").read_text())["n"] == 100

    config.write_text(json.dumps({"metirc": "tpr", "solver": "exact"}))
    assert run("fit", "--input", data, "--output", tmp_path / "p2.json", "--config", config) == 2
    assert "'metirc'" in capsys.readouterr().err
    assert not (tmp_path / "p2.json").exists()
    config.write_text(json.dumps({"input": str(data)}))
    assert run("fit", "--input", data, "--output", tmp_path / "p2.json", "--config", config) == 2
    assert "'input' cannot be set in a config file" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [(["--domain", "x"], None), ([], {"domain": "x"})],
                         ids=["flag", "config"])
def test_json_errors_covers_bad_flag_and_config_values(tmp_path, capsys, flags, config):
    data = labeled_binary(tmp_path)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = ["--config", path]
    assert run("evaluate", "--input", data, "--output", tmp_path / "r.json", *flags,
               "--json-errors") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2 and "--domain" in err["message"]
    if config is not None:
        assert str(path) in err["message"]


def test_fit_keeps_old_plan_when_the_write_fails(tmp_path, monkeypatch):
    data = labeled_binary(tmp_path)
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    before = plan_path.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"format_version": 1, "groups": [')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "exact",
               "--metric", "tpr") == 4
    assert plan_path.read_bytes() == before
    assert not list(tmp_path.glob(".tmp-*"))
