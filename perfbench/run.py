#!/usr/bin/env python3
"""Closed-loop benchmark of the fairrepair CLI.

    python3 perfbench/run.py --workload fit-binary --seed 1 --seconds 20 --trace 0

One client runs jobs back to back; each job runs its CLI commands one at a
time as child processes (``python -m fairrepair.cli``) against the sources in
``src/`` of this checkout.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the job in-process with span wrappers and
reports the per-layer metrics.  Every run checks the outputs.  The last line
of standard output is the JSON result; the lines before it list every metric
with its unit, the failed ratio and the run's provenance.  perfbench/README.md
explains the workloads and the layer-to-metric mapping.

``--rows`` overrides a workload's input size; gated runs never pass it.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Set-up time is the median of repeated set-ups: at least SETUP_MIN_REPEATS,
# and more until SETUP_SECONDS are spent, so a cheap set-up is measured often.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 3, 25, 4.0
MIN_JOBS = 2        # the byte-identity check needs a second job
DEADLINE = 150      # no new job or pass starts after this many seconds
KILL_AFTER = 170    # a child still running this long into the run is killed
IMPORT_REPEATS = 3

CLI_COMMANDS = {"evaluate": "cli.evaluate_s", "fit": "cli.fit_s",
                "lambda-sweep": "cli.sweep_s", "apply": "cli.apply_s"}
# Metrics that come from a wrapped boundary: missing when it is not wrapped,
# or when the workload should reach it and did not.
BOUNDARY_METRICS = {
    "lp.linprog": ("lp.calls", "lp.busy_s", "lp.round_max_s", "lp.rows_max", "lp.cols", "lp.share"),
    "ot.wasserstein": ("ot.wasserstein_calls", "ot.wasserstein_s"),
    "ot.barycenter_quantile": ("ot.barycenter_quantile_s",),
}
# Busy-time metrics: metric name -> span name in the traced replay.
REPLAY_BUSY = {
    "dataset.load_csv_s": "dataset.load_csv",
    "dataset.write_csv_s": "dataset.write_csv",
    "synth.sample_s": "synth.sample",
    "synth.split_s": "synth.split",
    "ot.barycenter_quantile_s": "ot.barycenter_quantile",
    "ot.wasserstein_s": "ot.wasserstein",
    "metrics.rate_curve_s": "metrics.rate_curve",
    "metrics.distributional_disparity_s": "metrics.distributional_disparity",
    "repair.fit_plan_s": "repair.fit_plan",
    "repair.apply_s": "repair.apply",
    "repair.save_plan_s": "repair.save_plan",
    "repair.load_plan_s": "repair.load_plan",
    "solver.solve_exact_s": "solver.solve_exact",
    "solver.sweep_s": "solver.sweep",
    "lex.build_problem_s": "lex.build_problem",
    "lex.solve_s": "lex.solve_lexicographic",
    "lp.busy_s": "lp.linprog",
}
# ... and in the single-layer probes.
PROBE_BUSY = {
    "dataset.validate_s": "dataset.validate_dataset",
    "dataset.subset_by_label_s": "dataset.subset_by_label",
    "repair.total_repair_score_s": "repair.total_repair_score",
    "solver.objective_eval_s": "solver.objective_eval_cold",
}
IMPORT_PROBE = "import time; t = time.perf_counter(); import fairrepair.cli; print(time.perf_counter() - t)"


class Ops:
    """Counts operations (CLI invocations and checks) and the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def check(self, name: str, fn) -> bool:
        from workloads import CheckFailed

        try:
            fn()
        except CheckFailed as exc:
            return self.record(False, f"check {name}: {exc}")
        except Exception:
            return self.record(False, f"check {name}: {traceback.format_exc(limit=3)}")
        return self.record(True, name)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, log: Path, t_run: float) -> tuple[bool, float, float, int, str]:
    """One CLI invocation: (ok, wall s, user+sys CPU s, max RSS KiB, detail)."""
    with open(log, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fairrepair.cli", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, t_run + KILL_AFTER - t0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    ok = proc.returncode == 0 and "Traceback" not in stderr
    detail = f"{argv[0]} exited {proc.returncode}: {stderr.strip()[-400:]}"
    return ok, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, detail


def file_hashes(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else "" for p in paths}


def fresh_dir(d: Path) -> Path:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


# ---------------------------------------------------------------------------
# Timed run: child processes, tracing off
# ---------------------------------------------------------------------------


def timed_run(wl, work: Path, seconds: float, ops: Ops, after_job=None) -> tuple[dict, dict]:
    from workloads import require

    env = child_env()
    log = work.parent / f"{work.name}.stderr"
    t_run = time.perf_counter()

    setup_walls, setup_hashes = [], []
    while len(setup_hashes) < SETUP_MIN_REPEATS or (
            sum(setup_walls) < SETUP_SECONDS and len(setup_hashes) < SETUP_MAX_REPEATS):
        fresh_dir(work)
        t0 = time.perf_counter()
        ok = ops.check("make_inputs", lambda: wl.make_inputs(work))
        for cmd in wl.setup_cli(work):
            if ok:
                good, *_, detail = run_child(cmd, env, log, t_run)
                ok = ops.record(good, detail)
        setup_hashes.append(file_hashes(sorted(work.iterdir())))
        if not ok:
            break
        setup_walls.append(time.perf_counter() - t0)
    ops.check("setup_deterministic",
              lambda: require(all(h == setup_hashes[0] for h in setup_hashes), "set-up outputs differ"))
    info = {"input_bytes": sum(p.stat().st_size for p in wl.inputs(work) if p.exists()),
            "setup_repeats": len(setup_hashes)}
    if len(setup_walls) < len(setup_hashes):
        return {}, info

    walls, cpus, peak_kib = [], [], 0
    first = None
    spent, jobs = 0.0, 0
    while (spent < seconds or jobs < MIN_JOBS) and time.perf_counter() - t_run < DEADLINE:
        jobs += 1
        for p in wl.outputs(work):
            p.unlink(missing_ok=True)
        ok, cpu, peak = True, 0.0, 0
        t0 = time.perf_counter()
        for cmd in wl.job(work):
            good, _, c, rss, detail = run_child(cmd, env, log, t_run)
            if not ops.record(good, detail):
                ok = False
                break
            cpu += c
            peak = max(peak, rss)
        wall = time.perf_counter() - t0
        spent += wall
        if after_job is not None:
            after_job(jobs, work)
        if ok:
            for name, fn in wl.checks(work):
                ok = ops.check(name, fn) and ok
            hashes = file_hashes(wl.outputs(work))
            first = first or hashes
            ok = ops.check("outputs_identical",
                           lambda: require(hashes == first, "outputs differ from the first job's")) and ok
        if ok:
            walls.append(wall)
            cpus.append(cpu)
            peak_kib = max(peak_kib, peak)
    info.update(jobs=jobs, timed_jobs=len(walls), job_walls=walls)
    metrics = {"setup_s": statistics.median(setup_walls)}
    if walls:
        metrics.update(job_s=statistics.median(walls), job_cpu_s=statistics.median(cpus),
                       peak_rss_mb=peak_kib / 1024.0)
    return metrics, info


# ---------------------------------------------------------------------------
# Traced run: in-process, spans at layer boundaries
# ---------------------------------------------------------------------------


def run_inproc(tr, argv: list[str], ops: Ops) -> bool:
    from fairrepair import cli

    with tr.span(f"cli.{argv[0]}"):
        try:
            rc = cli.main(argv)
        except Exception:
            return ops.record(False, f"{argv[0]} raised: {traceback.format_exc(limit=3)}")
    return ops.record(rc == 0, f"{argv[0]} exited {rc}")


def import_seconds(env: dict) -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def probes(wl, d: Path, tr, counts: dict) -> None:
    """Single-layer measurements on the workload's labeled input."""
    from fairrepair import TPR, fit_plan, subset_by_label, validate_dataset

    with open(wl.inputs(d)[0], newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(s), g, int(y)) for s, g, y in reader]
    tr.job = "probe"
    ds = tr.call("dataset.validate_dataset", validate_dataset, rows, wl.domain)
    tr.call("dataset.subset_by_label", subset_by_label, ds, TPR)
    plan = fit_plan(ds)
    with tr.span("repair.total_repair_score"):
        for g in plan.groups:
            plan.total_repair_score(g, ds.group_scores(g))
    wl.probes(tr, ds, plan, counts)


def one_pass(wl, work: Path, ops: Ops, traced_first: bool) -> dict:
    from spans import Tracer, boundary_wrappers

    cli_tr, replay_tr, probe_tr = Tracer(), Tracer(), Tracer()
    a, b, c = (fresh_dir(work / x) for x in ("cli", "plain", "traced"))

    # The CLI itself, in-process: cli.* spans, and the layer calls inside them.
    with boundary_wrappers(cli_tr, with_cli=True):
        cli_tr.job = "setup"
        ok = ops.check("make_inputs", lambda: wl.make_inputs(a))
        for cmd in wl.setup_cli(a):
            ok = ok and run_inproc(cli_tr, cmd, ops)
        cli_tr.job = "job"
        for cmd in wl.job(a):
            ok = ok and run_inproc(cli_tr, cmd, ops)
    if ok:
        for name, fn in wl.checks(a):
            ops.check(name, fn)

    # The same work as public-function calls, untraced and traced; passes
    # alternate which goes first so warm-up does not bias the overhead ratio.
    def plain():
        t0 = time.perf_counter()
        wl.replay(b, Tracer(enabled=False))
        return time.perf_counter() - t0

    plain_s = None if traced_first else plain()
    with boundary_wrappers(replay_tr, with_cli=False) as installed:
        t0 = time.perf_counter()
        counts = wl.replay(c, replay_tr)
        traced_s = time.perf_counter() - t0
    plain_s = plain_s or plain()
    probes(wl, c, probe_tr, counts)
    return {"cli": cli_tr.spans, "replay": replay_tr.spans, "probe": probe_tr.spans,
            "counts": counts, "installed": installed, "plain_s": plain_s, "traced_s": traced_s}


def layer_metrics(wl, p: dict) -> dict:
    from spans import ATTRS, END, NAME, PARENT, START, durations, self_times

    cli, rep, probe, counts = p["cli"], p["replay"], p["probe"], p["counts"]

    def tot(spans, name):
        return sum(durations(spans, name), 0.0)

    m = {key: tot(cli, f"cli.{cmd}") for cmd, key in CLI_COMMANDS.items()}
    cli_roots = [i for i, s in enumerate(cli) if s[PARENT] is None]
    own = self_times(cli)
    m["trace.unattributed_ratio"] = (sum(own[i] for i in cli_roots)
                                     / sum(cli[i][END] - cli[i][START] for i in cli_roots))
    m["trace.overhead_ratio"] = p["traced_s"] / p["plain_s"]

    apply_roots = [i for i, s in enumerate(rep) if s[NAME] == "cmd.apply"]
    core = sum(s[END] - s[START] for s in rep if s[PARENT] in apply_roots
               and s[NAME] in ("dataset.load_csv", "repair.apply", "dataset.write_csv"))
    m["cli.apply_overhead_x"] = m["cli.apply_s"] / core if core else 0.0

    m.update({key: tot(rep, name) for key, name in REPLAY_BUSY.items()})
    m.update({key: tot(probe, name) for key, name in PROBE_BUSY.items()})

    lp = [s for s in rep if s[NAME] == "lp.linprog"]
    m["lp.calls"] = len(lp)
    m["lp.round_max_s"] = max((s[END] - s[START] for s in lp), default=0.0)
    m["lp.rows_max"] = max((s[ATTRS]["rows"] for s in lp), default=0)
    m["lp.cols"] = max((s[ATTRS]["cols"] for s in lp), default=0)
    m["lp.share"] = m["lp.busy_s"] / m["lex.solve_s"] if m["lex.solve_s"] else 0.0
    m["ot.wasserstein_calls"] = len(durations(rep, "ot.wasserstein"))

    m["dataset.load_csv_rows"] = counts["dataset.load_csv_rows"]
    m["ot.fitted_atoms"] = counts["ot.fitted_atoms"]
    m["repair.plan_bytes"] = counts["repair.plan_bytes"]
    m["lex.rounds"] = counts.get("lex.rounds", 0)
    m["solver.evaluations"] = counts.get("solver.evaluations", 0)
    m["solver.eval_s"] = m["solver.solve_exact_s"] / m["solver.evaluations"] if m["solver.evaluations"] else 0.0
    m["repair.apply_rows_per_s"] = counts.get("apply_rows", 0) / m["repair.apply_s"] if m["repair.apply_s"] else 0.0

    for boundary, keys in BOUNDARY_METRICS.items():
        reached = any(s[NAME] == boundary for s in rep)
        if boundary not in p["installed"] or (boundary in wl.expected_boundaries and not reached):
            for k in keys:
                m.pop(k, None)
    return m


def largest_layer_span(spans) -> tuple[str, float]:
    from spans import END, NAME, START

    layer = [s for s in spans if not s[NAME].startswith(("cmd.", "bench."))]
    top = max(layer, key=lambda s: s[END] - s[START])
    return top[NAME], top[END] - top[START]


def traced_run(wl, work: Path, seconds: float, ops: Ops, spans_path: Path) -> tuple[dict, dict]:
    from spans import summarize

    t_run = time.perf_counter()
    import_s = import_seconds(child_env())
    passes = []
    while not passes or (time.perf_counter() - t_run < seconds
                         and time.perf_counter() - t_run < DEADLINE / 2):
        passes.append(one_pass(wl, work, ops, traced_first=len(passes) % 2 == 1))
    per_pass = [layer_metrics(wl, p) for p in passes]
    metrics = {"cli.import_s": import_s}
    for key in per_pass[0]:
        # median_low keeps a measured value, so counts stay whole numbers.
        metrics[key] = statistics.median_low(m[key] for m in per_pass)
    name, dur = largest_layer_span(passes[-1]["replay"])
    info = {"passes": len(passes), "largest_layer_span": {"name": name, "seconds": dur},
            "input_bytes": sum(p.stat().st_size for p in wl.inputs(work / "cli") if p.exists())}
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "attrs"],
                   "passes": [{k: p[k] for k in ("cli", "replay", "probe")} for p in passes],
                   "summary": {k: summarize(passes[-1][k]) for k in ("cli", "replay", "probe")}}, fh)
    return metrics, info


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((SRC / "fairrepair").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{idx}/level"), _read(f"{idx}/type")
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = _read(f"{idx}/size")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, rows: int | None = None,
        after_job=None) -> dict:
    """One benchmark run; returns the result plus its provenance and failures."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, rows)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    ops = Ops()
    try:
        if trace:
            metrics, info = traced_run(wl, work, seconds, ops, OUT / f"{tag}.spans.json.gz")
        else:
            metrics, info = timed_run(wl, work, seconds, ops, after_job)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        (work.parent / f"{work.name}.stderr").unlink(missing_ok=True)
    info.update(workload=workload, seed=seed, rows=wl.rows, seconds=seconds, trace=int(trace))
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    report = {"result": result, "run": info, "provenance": provenance(), "failures": ops.failures}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["fit-binary", "fit-lex", "apply-holdout"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--rows", type=int, help="input rows (default: the gated size)")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fairrepair" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no fairrepair sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.rows)
    result, info = report["result"], report["run"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    values = result["metrics"]
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rows={info['rows']}")
    print("run: " + json.dumps({k: v for k, v in info.items() if k not in ("workload", "seed", "trace")},
                               sort_keys=True))
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    for name, unit in units.items():
        print(f"  {name} = {values[name]!r} {unit}" if name in values else f"  {name} = missing {unit}")
    print(f"failed_ratio = {result['failed'] / max(result['attempted'], 1)!r} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
