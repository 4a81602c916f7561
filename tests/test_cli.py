import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fairrepair import (
    LambdaObjective,
    ScoreDomain,
    bundled_spec,
    fit_plan,
    load_csv,
    load_plan,
    objective_eval,
    parse_combo,
    write_csv,
)
from fairrepair import cli
from fairrepair.cli import main

from conftest import UNIT, make_dataset, random_binary_dataset

BINARY = {"A": [0.2, 0.4, 0.6, 0.8], "B": [0.1, 0.2, 0.3, 0.4]}
MAX_COUNT = 2**31 - 1  # the largest row, grid or step count the CLI accepts


def write_dataset(tmp_path, name="data.csv", groups=BINARY, labels=None, domain=UNIT):
    ds = make_dataset(groups, labels, domain)
    path = tmp_path / name
    write_csv(ds, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


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


def test_fit_probabilistic_rejects_three_groups(tmp_path, capsys):
    groups = {"a": [0.1, 0.2], "b": [0.3, 0.4], "c": [0.5, 0.6]}
    labels = {g: [0, 1] for g in groups}
    data = write_dataset(tmp_path, "three.csv", groups, labels)
    code = run("fit", "--input", data, "--output", tmp_path / "p.json",
               "--solver", "probabilistic", "--metric", "tpr")
    assert code == 2
    assert "binary-only" in capsys.readouterr().err


def test_fit_solver_error_exits_three(tmp_path, capsys):
    # identical groups: the closed-form denominator vanishes -> solver error
    data = write_dataset(tmp_path, groups={"A": [0.2, 0.4], "B": [0.2, 0.4]},
                         labels={"A": [1, 0], "B": [1, 0]})
    code = run("fit", "--input", data, "--output", tmp_path / "p.json",
               "--solver", "probabilistic", "--metric", "tpr")
    assert code == 3
    assert "equally shifted" in capsys.readouterr().err


# On the wider domains the degeneracy test once scaled with the domain's width
# and refused this lambda (exit 3), although the denominator is -0.2 on all three.
@pytest.mark.parametrize("domain", ["0:1", "0:1e308", "-1e308:1"])
def test_probabilistic_lambda_does_not_depend_on_the_domain(tmp_path, domain):
    data = write_dataset(tmp_path, groups={"a": [0.1, 0.5, 0.9], "b": [0.2, 0.3, 0.4]},
                         labels={"a": [1, 1, 1], "b": [1, 1, 1]})
    plan_path = tmp_path / "p.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "probabilistic",
               "--metric", "tpr", f"--domain={domain}") == 0
    assert json.loads((tmp_path / "p.json.solution.json").read_text())["lambda"] == 1.0


# Group 'a' has a single row under Y=1: too few for its TPR score distribution.
ONE_POSITIVE = ({"a": [0.2, 0.4, 0.6], "b": [0.1, 0.5, 0.9]}, {"a": [1, 0, 0], "b": [1, 1, 0]})


@pytest.mark.parametrize("command", [
    ("evaluate",),
    ("fit", "--solver", "exact"),
    ("fit", "--solver", "grid"),
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
    run("fit", "--input", data, "--output", plan_path, "--solver", "grid", "--metric", "tpr")
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
    run("fit", "--input", plan_src, "--output", plan_path, "--solver", "grid", "--metric", "pr")
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
    # fit-only barycenter mode: grid solver at PR picks lambda ~ 1 here, but
    # pin lambda = 1 explicitly to test the SDP bound
    run("fit", "--input", data, "--output", plan_path, "--solver", "grid", "--metric", "pr")
    from fairrepair import save_plan

    plan = load_plan(plan_path).with_lambdas({g: 1.0 for g in ("a", "b")})
    save_plan(plan, plan_path)
    out = tmp_path / "repaired.csv"
    run("apply", "--input", data, "--plan", plan_path, "--output", out)
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--input", out, "--output", report_path,
               "--metric", "pr", "--grid", "1001") == 0
    report = json.loads(report_path.read_text())["reports"][0]
    assert report["max_gap"] <= 2.0 / min(ds.group_count(g) for g in ds.groups)


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


def test_apply_unknown_group_names_its_first_line(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", write_dataset(tmp_path), "--output", plan_path,
               "--solver", "none") == 0
    src = tmp_path / "new.csv"
    src.write_text("score,group\n0.2,A\n0.3,Z\n0.4,B\n0.5,Z\n")
    assert run("apply", "--input", src, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert f"{src}:3: group 'Z' not in plan" in capsys.readouterr().err


def test_non_utf8_plan_and_config_are_validation_errors(tmp_path):
    data = write_dataset(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"metric": "\xff"}')
    assert run("apply", "--input", data, "--plan", bad, "--output", tmp_path / "o.csv") == 2
    assert run("fit", "--input", data, "--output", tmp_path / "p.json", "--config", bad) == 2


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


def _set_first_atom(data, value):
    data["fitted"]["A"]["atoms"][0] = value


# Each of these loaded and applied, with exit 0, while numeric fields took any
# value float() accepts.
BAD_PLAN_NUMBERS = {
    "lo-string": (lambda data: data["domain"].update(lo="0"), "plan domain lo: '0'"),
    "hi-true": (lambda data: data["domain"].update(hi=True), "plan domain hi: True"),
    "lambda-true": (lambda data: data["lambdas"].update(A=True), "plan lambda of 'A': True"),
    "atom-string": (lambda data: _set_first_atom(data, "0.01"), "plan atoms of 'A': '0.01'"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAN_NUMBERS))
def test_plan_numbers_must_be_json_numbers(tmp_path, capsys, case):
    edit, message = BAD_PLAN_NUMBERS[case]
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    edit(payload)
    plan_path.write_text(json.dumps(payload))
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert f"{message} is not a JSON number" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def _set_counts(data, *counts):
    data["fitted"]["A"]["counts"][:len(counts)] = counts


BAD_PLAN_COUNTS = {
    "string": (lambda data: _set_counts(data, "1"), "plan counts of 'A': '1' is not a JSON integer"),
    "true": (lambda data: _set_counts(data, True), "plan counts of 'A': True is not a JSON integer"),
    "float": (lambda data: _set_counts(data, 1.0), "plan counts of 'A': 1.0 is not a JSON integer"),
    "zero": (lambda data: _set_counts(data, 0), "plan counts of 'A': 0 is not a JSON integer"),
    "negative": (lambda data: _set_counts(data, -2), "plan counts of 'A': -2 is not a JSON integer"),
    "huge": (lambda data: _set_counts(data, 10**30), "plan counts of 'A': 1000000000000000000"),
    "not-an-array": (lambda data: data["fitted"]["A"].update(counts=1),
                     "malformed plan counts of 'A': expected a JSON array"),
    "total": (lambda data: _set_counts(data, 2**53, 1),  # and two more atoms counted once
              f"plan fitted entry 'A': counts must total at most 2**53, got {2**53 + 3}"),
    "length": (lambda data: data["fitted"]["A"]["counts"].pop(),
               "plan fitted entry 'A': atoms and counts must be equal-length 1-d arrays"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAN_COUNTS))
def test_plan_counts_must_be_positive_json_integers(tmp_path, capsys, case):
    edit, message = BAD_PLAN_COUNTS[case]
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    edit(payload)
    plan_path.write_text(json.dumps(payload))
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_format_version_1_plan_exits_two_naming_the_version(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    data = write_dataset(tmp_path)
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "none") == 0
    payload = json.loads(plan_path.read_text())
    assert payload["format_version"] == 2 and "group_weights" not in payload
    payload["format_version"] = 1
    plan_path.write_text(json.dumps(payload))
    assert run("apply", "--input", data, "--plan", plan_path, "--output", tmp_path / "o.csv") == 2
    err = capsys.readouterr().err
    assert "unsupported plan format_version 1" in err and "re-run `fairrepair fit`" in err


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
    marked row is the lambda fit --solver grid picks on the same grid."""
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
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--solver", "grid",
               "--grid", "23", *flags) == 0
    solution = json.loads((tmp_path / "plan.json.solution.json").read_text())
    assert [float(l) for l, _, flag in rows if flag == "1"] == [solution["lambda"]]


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
    ("fit", "--solver", "exact", "--tol", "nan"),
    ("fit", "--solver", "exact", "--tol", "inf"),
    ("lambda-sweep", "--p", "nan"),
], ids=lambda argv: " ".join(argv).replace("--", "").replace(" ", "-"))
def test_non_finite_p_and_tol_are_validation_errors(tmp_path, argv):
    data = labeled_binary(tmp_path)
    command, *flags = argv
    out = tmp_path / "out"
    assert run(command, "--input", data, "--output", out, "--metric", "tpr", *flags) == 2
    assert list(tmp_path.iterdir()) == [data]  # no partial output


@pytest.mark.parametrize("tol, groups", [
    ("1e-17", None),
    ("1e-300", {"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]}),  # flat: the bracket shrinks toward 0
    ("5e-324", {"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]}),
], ids=["1e-17", "1e-300-flat", "subnormal-flat"])
def test_exact_terminates_for_tiny_tol(tmp_path, tol, groups):
    if groups:
        data = write_dataset(tmp_path, groups=groups, labels={g: [1, 1, 0] for g in groups})
    else:
        data = labeled_binary(tmp_path)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "fairrepair.cli", "fit", "--input", str(data), "--output",
         str(tmp_path / "plan.json"), "--solver", "exact", "--metric", "tpr", "--tol", tol],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= json.loads((tmp_path / "plan.json.solution.json").read_text())["lambda"] <= 1.0


WIDE = "-1e308:1e308"  # both bounds finite, but hi - lo overflows to inf
HUGE_WEIGHTS = "pr:1e308,tpr:1e308,fpr:1e308,nr:1e308,tnr:1e308"  # each valid, the sum is inf


def _valid(flag, value) -> bool:
    """Whether the CLI may accept ``value`` for ``flag`` (--n and --seed: not judged here)."""
    try:
        if flag == "--p":
            return 1.0 <= float(value) < math.inf
        if flag == "--tol":
            return 0.0 < float(value) < math.inf
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
        *(("fit", "--solver", s) for s in ("exact", "grid", "probabilistic", "maxmin", "lex", "none")),
        ("lambda-sweep",),
        ("generate",),
    ])
    # Each command is fuzzed only with the flags it declares.
    declared = {"evaluate": ("--p", "--grid", "--domain", "--metric"),
                "fit": ("--p", "--tol", "--grid", "--domain", "--metric"),
                "lambda-sweep": ("--p", "--steps", "--domain", "--metric"),
                "generate": ("--n", "--seed")}
    flag_values = st.fixed_dictionaries({}, optional={
        "--p": floats, "--tol": floats, "--grid": counts, "--steps": counts, "--n": counts,
        "--seed": counts, "--domain": st.tuples(bounds, bounds).map(":".join),
        "--metric": st.lists(terms, min_size=1, max_size=5).map(
            lambda ts: ",".join(f"{k}:{w}" for k, w in ts)),
    })
    over = str(MAX_COUNT + 1)

    def no_nan(token):
        raise AssertionError(f"{token} in JSON output")

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(commands, flag_values)
    @hypothesis.example(("evaluate",), {"--p": "nan"})
    @hypothesis.example(("fit", "--solver", "exact"), {"--tol": "1e-17"})
    @hypothesis.example(("evaluate",), {"--grid": str(10**20)})
    @hypothesis.example(("fit", "--solver", "grid"), {"--grid": over})
    @hypothesis.example(("lambda-sweep",), {"--steps": str(10**17)})
    @hypothesis.example(("generate",), {"--n": str(10**17)})
    @hypothesis.example(("generate",), {"--n": str(10**20), "--seed": "-1"})
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
    @hypothesis.example(("fit", "--solver", "lex"), {"--tol": "nan", "--grid": "1"})
    @hypothesis.example(("fit", "--solver", "probabilistic"), {"--p": "nan"})
    @hypothesis.example(("fit", "--solver", "none"), {"--p": "0", "--tol": "-1"})
    @hypothesis.example(("fit", "--solver", "maxmin"), {"--p": "inf"})
    @hypothesis.example(("fit", "--solver", "exact"), {"--grid": "1"})
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
    (("fit", "--solver", "grid"), "grid", value) for value in (10**17, 10**20, MAX_COUNT + 1)
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


BAD_FIT_VALUES = [("p", "nan"), ("p", "inf"), ("p", "0"), ("tol", "nan"), ("tol", "-1"),
                  ("tol", "0"), ("grid", "1")]


# A solver that does not read --p, --tol or --grid used to accept any value
# for it, so each of these wrote a plan with exit 0 for some solver.
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("flag, value", BAD_FIT_VALUES, ids=[f"{f}-{v}" for f, v in BAD_FIT_VALUES])
@pytest.mark.parametrize("solver", ["auto", "grid", "exact", "probabilistic", "maxmin", "lex", "none"])
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
    assert f"argument --{flag}: " in err and "Traceback" not in err
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
    config.write_text(json.dumps({"metric": "tpr", "solver": "grid", "grid": 21}))
    plan_path = tmp_path / "plan.json"
    # config supplies metric/solver; flag overrides the grid size
    assert run("fit", "--input", data, "--output", plan_path,
               "--config", config, "--grid", "11") == 0
    solution = json.loads((tmp_path / "plan.json.solution.json").read_text())
    assert solution["method"] == "grid"
    assert solution["evaluations"] == 11


def test_cli_outputs_deterministic(tmp_path):
    data = labeled_binary(tmp_path)
    outs = []
    for name in ("a", "b"):
        plan_path = tmp_path / f"{name}.json"
        run("fit", "--input", data, "--output", plan_path, "--solver", "exact", "--metric", "tpr")
        outs.append(plan_path.read_bytes())
    assert outs[0] == outs[1]


# Flags each subcommand used to accept without reading them, with a valid value.
UNREAD_FLAGS = {
    "evaluate": {"--solver": "auto", "--seed": "0", "--tol": "1e-6"},
    "fit": {"--seed": "0"},
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
    ("fit", {"grid": "x"}),
    ("fit", {"p": "x"}),
    ("fit", {"metric": 5}),
    ("fit", {"domain": 5}),
    ("fit", {"tol": [1]}),
    ("fit", {"grid": 11.0}),
    ("evaluate", {"grid": None}),
    ("generate", {"seed": "x"}),
    ("generate", {"n": "x"}),
    ("generate", {"fraction": "x"}),
    ("lambda-sweep", {"steps": "x"}),
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
    shared = {"metric": "tpr", "solver": "grid", "grid": 21, "p": 1, "tol": 1e-6,
              "domain": "0:1", "steps": 11, "seed": 3, "n": 100, "fraction": 0.5}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(shared))
    plan_path = tmp_path / "plan.json"
    assert run("fit", "--input", data, "--output", plan_path, "--config", config) == 0
    assert json.loads((tmp_path / "plan.json.solution.json").read_text())["evaluations"] == 21
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
