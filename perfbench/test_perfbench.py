"""Self-test of the benchmark at smoke sizes.

    python3 -m pytest perfbench

Checks that every metric in BENCHMARK.json is printed with its unit, that the
output checks catch a corrupted output, that exact counts repeat between two
traced runs, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_ROWS = 3000
SMOKE_SECONDS = "0.5"
EXACT_COUNTS = ("solver.evaluations", "lex.rounds", "lp.calls", "lp.rows_max", "lp.cols",
                "ot.fitted_atoms", "dataset.load_csv_rows", "repair.plan_bytes")


def _bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS,
         "--trace", str(trace), "--rows", str(SMOKE_ROWS)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def printed():
    """stdout of one smoke run per (workload, trace)."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(name, trace)
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = proc.stdout
    return out


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(printed, workload, trace):
    stdout = printed[workload, trace]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        pattern = rf"^  {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(pattern, stdout, re.MULTILINE), m["name"]
    assert re.search(r"^failed_ratio = 0\.0 \(0 of \d+ ops\)$", stdout, re.MULTILINE)
    assert "provenance: " in stdout


def _flip_score(job: int, d: Path) -> None:
    """Change the first repaired score and nothing else."""
    lines = (d / "repaired.csv").read_bytes().split(b"\r\n")
    score, rest = lines[1].split(b",", 1)
    lines[1] = repr(float(score) + 0.5).encode() + b"," + rest
    (d / "repaired.csv").write_bytes(b"\r\n".join(lines))


def _move_argmin(job: int, d: Path) -> None:
    """Mark lambda = 0 as the sweep's argmin."""
    header, *rows = (d / "sweep.csv").read_text().splitlines()
    rows = [r.rsplit(",", 1)[0] + (",1" if i == 0 else ",0") for i, r in enumerate(rows)]
    (d / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")


def _bump_loss(job: int, d: Path) -> None:
    sol = json.loads((d / "plan.json.solution.json").read_text())
    sol["losses"]["g0"] += 1e-6
    (d / "plan.json.solution.json").write_text(json.dumps(sol))


@pytest.mark.parametrize("workload, corrupt, check", [
    ("apply-holdout", _flip_score, "scores_bitwise"),
    ("fit-binary", _move_argmin, "sweep_argmin"),
    ("fit-lex", _bump_loss, "losses_recomputed"),
])
def test_checks_catch_corrupted_output(workload, corrupt, check):
    report = run.run(workload, 7, 0.5, False, SMOKE_ROWS,
                     after_job=lambda job, d: corrupt(job, d) if job == 2 else None)
    result = report["result"]
    assert result["failed"] > 0 and result["correct"] is False
    assert any(f.startswith(f"check {check}:") for f in report["failures"])
    assert any(f.startswith("check outputs_identical:") for f in report["failures"])
    # The corrupted job gives no timing; the clean one still does.
    assert report["run"]["timed_jobs"] == report["run"]["jobs"] - 1


def test_counts_repeat_exactly():
    counts = {}
    for name in WORKLOADS:
        first, second = (run.run(name, 7, 0.1, True, SMOKE_ROWS)["result"] for _ in range(2))
        assert first["correct"] and second["correct"]
        a, b = first["metrics"], second["metrics"]
        assert {k: a[k] for k in EXACT_COUNTS} == {k: b[k] for k in EXACT_COUNTS}
        counts[name] = a
    assert counts["fit-binary"]["lp.calls"] == 0
    assert counts["apply-holdout"]["cli.apply_overhead_x"] > 1
    assert counts["fit-binary"]["solver.evaluations"] == 32
    lex = counts["fit-lex"]
    assert (lex["lex.rounds"], lex["lp.calls"], lex["lp.rows_max"], lex["lp.cols"]) == (9, 9, 591, 55)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("fit-binary", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
