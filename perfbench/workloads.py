"""The three workloads: seeded inputs, CLI jobs, output checks, replays.

Each workload works in one directory.  ``make_inputs`` and ``setup_cli`` are
its set-up (the inputs and, for apply-holdout, the plan the job applies),
``job`` lists the CLI commands of one job, ``outputs`` names the files a job
writes, ``checks`` verifies them against in-process recomputation, and
``replay`` runs the same set-up and job as the public-function calls the CLI
makes, each inside a tracer span.

Commands are argv lists for ``python -m fairrepair.cli``; the caller decides
whether they run as child processes (timed runs) or in-process (traced run).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from fairrepair import (
    TPR,
    LambdaObjective,
    ScoreDomain,
    ScoredDataset,
    ThresholdGrid,
    build_problem,
    bundled_spec,
    distributional_disparity,
    fit_plan,
    load_csv,
    load_plan,
    objective_eval,
    parse_combo,
    rate_curve,
    sample,
    save_plan,
    solve_exact,
    solve_lexicographic,
    split,
    write_csv,
)

UNIT = ScoreDomain(0.0, 1.0)
CREDIT = ScoreDomain(0.0, 100.0)
GRID = 101            # the CLI's default threshold-grid size
SWEEP_STEPS = 101
EXACT_TOL = 1e-6      # the CLI's default solver tolerance
SD = 0.13


class CheckFailed(Exception):
    """An output differs from what the program must produce."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def continuous_dataset(rows: int, seed: int, means, offsets) -> ScoredDataset:
    """Clipped-Gaussian scores per group, labels ~ Bernoulli(clip(score + offset)).

    Scores are continuous, so every row becomes its own fitted atom.
    """
    rng = np.random.default_rng(seed)
    means = np.asarray(means, dtype=float)
    g = rng.integers(means.size, size=rows)
    scores = np.clip(rng.normal(means[g], SD), 0.0, 1.0)
    p1 = np.clip(scores + np.asarray(offsets, dtype=float)[g], 0.0, 1.0)
    labels = (rng.random(rows) < p1).astype(int)
    names = [f"g{i}" for i in range(means.size)]
    return ScoredDataset(scores, [names[i] for i in g], labels, UNIT)


def plan_atoms(plan) -> int:
    return sum(d.n_atoms for d in plan.fitted.values())


class Workload:
    name = ""
    rows = 0
    domain = UNIT
    # Wrapped boundaries the job must reach; see spans.BOUNDARIES.
    expected_boundaries: frozenset = frozenset()

    def __init__(self, seed: int, rows: int | None = None):
        self.seed = seed
        self.rows = rows or self.rows
        self._ref: dict = {}

    def _cached(self, d: Path, key: str, make):
        """Reference values for checks, computed once per directory."""
        if (d, key) not in self._ref:
            self._ref[d, key] = make()
        return self._ref[d, key]

    # -- set-up ----------------------------------------------------------

    def make_inputs(self, d: Path) -> None:
        """In-process part of set-up; CLI part is setup_cli."""

    def setup_cli(self, d: Path) -> list[list[str]]:
        return []

    def inputs(self, d: Path) -> list[Path]:
        """Input files; the first is the labeled one the probes use."""
        raise NotImplementedError

    # -- job ---------------------------------------------------------------

    def job(self, d: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, d: Path) -> list[Path]:
        raise NotImplementedError

    def checks(self, d: Path) -> list:
        """(name, callable) pairs; each callable raises CheckFailed."""
        raise NotImplementedError

    def replay(self, d: Path, tr) -> dict:
        """Set-up and job as public-function calls.

        Returns the exact counts of the pass (and, for fit-binary, lambda*).
        """
        raise NotImplementedError

    def probes(self, tr, ds: ScoredDataset, plan, counts: dict) -> None:
        """Workload-specific single-layer measurements (traced run only)."""


class _Continuous(Workload):
    means: tuple = ()
    offsets: tuple = ()

    def _dataset(self) -> ScoredDataset:
        return continuous_dataset(self.rows, self.seed, self.means, self.offsets)

    def make_inputs(self, d: Path) -> None:
        write_csv(self._dataset(), d / "data.csv")

    def inputs(self, d: Path) -> list[Path]:
        return [d / "data.csv"]

    def _replay_setup(self, d: Path, tr) -> None:
        with tr.span("bench.generate"):
            ds = self._dataset()
        tr.call("dataset.write_csv", write_csv, ds, d / "data.csv")

    def _ds(self, d: Path) -> ScoredDataset:
        return self._cached(d, "ds", lambda: load_csv(d / "data.csv", UNIT))


class FitBinary(_Continuous):
    """2 groups, continuous scores: dataset parsing, ot, solver, plan save."""

    name = "fit-binary"
    rows = 100_000
    means = (0.35, 0.65)
    offsets = (0.0, 0.0)
    expected_boundaries = frozenset({"ot.wasserstein", "ot.barycenter_quantile"})

    def job(self, d: Path) -> list[list[str]]:
        data = str(d / "data.csv")
        return [
            ["evaluate", "--input", data, "--output", str(d / "before.json"), "--metric", "tpr"],
            ["fit", "--input", data, "--output", str(d / "plan.json"), "--solver", "exact",
             "--metric", "tpr"],
            ["lambda-sweep", "--input", data, "--output", str(d / "sweep.csv"), "--metric", "tpr",
             "--steps", str(SWEEP_STEPS)],
        ]

    def outputs(self, d: Path) -> list[Path]:
        return [d / "before.json", d / "before.curves.csv", d / "plan.json",
                d / "plan.json.solution.json", d / "sweep.csv"]

    def checks(self, d: Path) -> list:
        obj = LambdaObjective(parse_combo("tpr"))

        def lam_star() -> float:
            return float(json.loads((d / "plan.json.solution.json").read_text())["lambda"])

        def exact_gap() -> None:
            got = json.loads((d / "before.json").read_text())["reports"][0]["exact_gap"]
            want = distributional_disparity(
                self._ds(d), TPR, 1.0, ThresholdGrid.linspace(UNIT, GRID)
            ).exact_gap
            require(abs(got - want) <= 1e-12, f"evaluate exact_gap {got!r} != {want!r}")

        def global_min() -> None:
            plan, ds, lam = load_plan(d / "plan.json"), self._ds(d), lam_star()
            here = objective_eval(plan, ds, obj, lam)
            for other in (max(0.0, lam - 0.01), min(1.0, lam + 0.01)):
                there = objective_eval(plan, ds, obj, other)
                require(here <= there + 1e-12, f"objective({lam}) = {here} > objective({other}) = {there}")

        def sweep_argmin() -> None:
            with open(d / "sweep.csv", newline="") as fh:
                rows = [r for r in csv.DictReader(fh) if r["is_argmin"] == "1"]
            require(len(rows) == 1, f"sweep has {len(rows)} argmin rows")
            lam = float(rows[0]["lambda"])
            require(abs(lam - lam_star()) <= 0.01, f"sweep argmin {lam} is not within 0.01 of {lam_star()}")

        return [("exact_gap", exact_gap), ("global_min", global_min), ("sweep_argmin", sweep_argmin)]

    def replay(self, d: Path, tr) -> dict:
        data = d / "data.csv"
        obj = LambdaObjective(parse_combo("tpr"))
        tr.job = "setup"
        self._replay_setup(d, tr)
        tr.job = "job"
        rows = 0
        with tr.span("cmd.evaluate"):
            ds = tr.call("dataset.load_csv", load_csv, data, UNIT)
            rows += len(ds)
            grid = ThresholdGrid.linspace(UNIT, GRID)
            tr.call("metrics.rate_curve", rate_curve, ds, TPR, grid)
            tr.call("metrics.distributional_disparity", distributional_disparity, ds, TPR, 1.0, grid)
        with tr.span("cmd.fit"):
            ds = tr.call("dataset.load_csv", load_csv, data, UNIT)
            rows += len(ds)
            plan = tr.call("repair.fit_plan", fit_plan, ds)
            sol = tr.call("solver.solve_exact", solve_exact, plan, ds, obj, EXACT_TOL)
            plan = plan.with_lambdas({g: sol.lambda_star for g in plan.groups})
            tr.call("repair.save_plan", save_plan, plan, d / "plan.json")
        with tr.span("cmd.lambda-sweep"):
            ds = tr.call("dataset.load_csv", load_csv, data, UNIT)
            rows += len(ds)
            sweep_plan = tr.call("repair.fit_plan", fit_plan, ds)
            with tr.span("solver.sweep"):
                for lam in np.linspace(0.0, 1.0, SWEEP_STEPS):
                    tr.call("solver.objective_eval", objective_eval, sweep_plan, ds, obj, float(lam))
        # Read back what fit saved, as apply would.
        tr.call("repair.load_plan", load_plan, d / "plan.json")
        return {
            "dataset.load_csv_rows": rows,
            "ot.fitted_atoms": plan_atoms(plan),
            "solver.evaluations": sol.evaluations,
            "repair.plan_bytes": (d / "plan.json").stat().st_size,
            "lambda_star": sol.lambda_star,
        }

    def probes(self, tr, ds: ScoredDataset, plan, counts: dict) -> None:
        obj = LambdaObjective(parse_combo("tpr"))
        tr.call("solver.objective_eval_cold", objective_eval, plan, ds, obj, counts["lambda_star"])


class FitLex(_Continuous):
    """9 groups, continuous scores, label offsets that make every round bind.

    With offsets of +-0.15 the first-round optimum sits near 0, so sampling
    noise decides which groups bind and the simplex makes 2100 to 3400 pivots
    depending on the seed.  At +-0.45 epsilon_1 is about 0.25 for every seed
    and the pivot count stays within a few percent.
    """

    name = "fit-lex"
    rows = 50_000
    means = tuple(np.linspace(0.35, 0.65, 9))
    offsets = tuple(np.linspace(0.45, -0.45, 9))
    expected_boundaries = frozenset({"lp.linprog", "ot.barycenter_quantile"})

    def job(self, d: Path) -> list[list[str]]:
        return [["fit", "--input", str(d / "data.csv"), "--output", str(d / "plan.json"),
                 "--solver", "lex", "--metric", "tpr"]]

    def outputs(self, d: Path) -> list[Path]:
        return [d / "plan.json", d / "plan.json.solution.json"]

    def _problem(self, d: Path):
        def make():
            ds = self._ds(d)
            return build_problem(fit_plan(ds), ds, TPR)

        return self._cached(d, "prob", make)

    def checks(self, d: Path) -> list:
        def sidecar() -> dict:
            return json.loads((d / "plan.json.solution.json").read_text())

        def lambdas_in_range() -> None:
            lams = sidecar()["lambdas"]
            bad = {g: v for g, v in lams.items() if not 0.0 <= v <= 1.0}
            require(not bad, f"lambdas outside [0, 1]: {bad}")

        def losses_recomputed() -> None:
            sol, prob = sidecar(), self._problem(d)
            lam = np.array([sol["lambdas"][g] for g in prob.groups])
            want = prob.losses(lam)
            got = np.array([sol["losses"][g] for g in prob.groups])
            worst = float(np.max(np.abs(got - want)))
            require(worst <= 1e-9, f"sidecar losses differ from recomputed by {worst}")

        def epsilons_increase() -> None:
            eps, prob = sidecar()["epsilons"], self._problem(d)
            require(len(eps) == prob.n, f"{len(eps)} epsilons for {prob.n} groups")
            require(all(b > a for a, b in zip(eps, eps[1:])), f"epsilons not strictly increasing: {eps}")
            worst = float(prob.losses(np.zeros(prob.n)).max())
            require(eps[0] < worst, f"epsilon_1 {eps[0]} is not below the unrepaired worst loss {worst}")

        return [("lambdas_in_range", lambdas_in_range), ("losses_recomputed", losses_recomputed),
                ("epsilons_increase", epsilons_increase)]

    def replay(self, d: Path, tr) -> dict:
        tr.job = "setup"
        self._replay_setup(d, tr)
        tr.job = "job"
        with tr.span("cmd.fit"):
            ds = tr.call("dataset.load_csv", load_csv, d / "data.csv", UNIT)
            plan = tr.call("repair.fit_plan", fit_plan, ds)
            prob = tr.call("lex.build_problem", build_problem, plan, ds, TPR)
            sol = tr.call("lex.solve_lexicographic", solve_lexicographic, prob)
            plan = plan.with_lambdas(sol.lambdas)
            tr.call("repair.save_plan", save_plan, plan, d / "plan.json")
        tr.call("repair.load_plan", load_plan, d / "plan.json")
        return {
            "dataset.load_csv_rows": len(ds),
            "ot.fitted_atoms": plan_atoms(plan),
            "lex.rounds": len(sol.rounds),
            "repair.plan_bytes": (d / "plan.json").stat().st_size,
        }


class ApplyHoldout(Workload):
    """Bundled 4-group spec: the per-row apply path writes a repaired CSV."""

    name = "apply-holdout"
    rows = 60_000
    domain = CREDIT
    expected_boundaries = frozenset({"lp.linprog", "ot.barycenter_quantile"})

    def setup_cli(self, d: Path) -> list[list[str]]:
        return [
            ["generate", "--output", str(d / "credit"), "--n", str(self.rows), "--seed", str(self.seed)],
            ["fit", "--input", str(d / "credit_labeled.csv"), "--output", str(d / "plan.json"),
             "--solver", "lex", "--metric", "tpr", "--domain", "0:100"],
        ]

    def inputs(self, d: Path) -> list[Path]:
        return [d / "credit_labeled.csv", d / "credit_holdout.csv"]

    def job(self, d: Path) -> list[list[str]]:
        return [
            ["apply", "--input", str(d / "credit_holdout.csv"), "--plan", str(d / "plan.json"),
             "--output", str(d / "repaired.csv")],
            ["evaluate", "--input", str(d / "repaired.csv"), "--output", str(d / "after.json"),
             "--metric", "tpr", "--domain", "0:100"],
        ]

    def outputs(self, d: Path) -> list[Path]:
        return [d / "repaired.csv", d / "after.json", d / "after.curves.csv"]

    def _reference(self, d: Path) -> dict:
        def make():
            holdout = load_csv(d / "credit_holdout.csv", CREDIT)
            with open(d / "credit_holdout.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            return {
                "rows": rows,
                "scores": load_plan(d / "plan.json").apply(holdout).scores,
                "gap": distributional_disparity(
                    holdout, TPR, 1.0, ThresholdGrid.linspace(CREDIT, GRID)
                ).expected_gap,
            }

        return self._cached(d, "reference", make)

    def checks(self, d: Path) -> list:
        def repaired_rows() -> list:
            with open(d / "repaired.csv", newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        def passthrough() -> None:
            want, got = self._reference(d)["rows"], repaired_rows()
            require(got[0] == want[0], f"header {got[0]} != {want[0]}")
            require(len(got) == len(want), f"{len(got) - 1} repaired rows for {len(want) - 1} input rows")
            k = want[0].index("score")
            for n, (a, b) in enumerate(zip(got[1:], want[1:]), start=2):
                require(a[:k] + a[k + 1:] == b[:k] + b[k + 1:], f"line {n}: non-score columns changed")

        def scores_bitwise() -> None:
            rows = repaired_rows()
            k = rows[0].index("score")
            got = np.array([float(r[k]) for r in rows[1:]])
            want = self._reference(d)["scores"]
            same = got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))
            require(same, "repaired scores differ from RepairPlan.apply")

        def gap_halved() -> None:
            after = json.loads((d / "after.json").read_text())["reports"][0]["expected_gap"]
            before = self._reference(d)["gap"]
            require(after <= 0.5 * before, f"repaired TPR gap {after} > half of holdout's {before}")

        return [("passthrough", passthrough), ("scores_bitwise", scores_bitwise), ("gap_halved", gap_halved)]

    def replay(self, d: Path, tr) -> dict:
        tr.job = "setup"
        labeled_csv, holdout_csv = d / "credit_labeled.csv", d / "credit_holdout.csv"
        full = tr.call("synth.sample", sample, bundled_spec(), self.rows, self.seed)
        labeled, holdout = tr.call("synth.split", split, full, 0.5, self.seed)
        tr.call("dataset.write_csv", write_csv, labeled, labeled_csv)
        tr.call("dataset.write_csv", write_csv, holdout, holdout_csv)
        with tr.span("cmd.fit"):
            ds = tr.call("dataset.load_csv", load_csv, labeled_csv, CREDIT)
            plan = tr.call("repair.fit_plan", fit_plan, ds)
            prob = tr.call("lex.build_problem", build_problem, plan, ds, TPR)
            sol = tr.call("lex.solve_lexicographic", solve_lexicographic, prob)
            plan = plan.with_lambdas(sol.lambdas)
            tr.call("repair.save_plan", save_plan, plan, d / "plan.json")
        rows = len(ds)
        tr.job = "job"
        with tr.span("cmd.apply"):
            plan = tr.call("repair.load_plan", load_plan, d / "plan.json")
            ds = tr.call("dataset.load_csv", load_csv, holdout_csv, plan.domain)
            repaired = tr.call("repair.apply", plan.apply, ds)
            tr.call("dataset.write_csv", write_csv, repaired, d / "repaired.csv")
        rows += len(ds)
        applied = len(ds)
        with tr.span("cmd.evaluate"):
            ds = tr.call("dataset.load_csv", load_csv, d / "repaired.csv", CREDIT)
            grid = ThresholdGrid.linspace(CREDIT, GRID)
            tr.call("metrics.rate_curve", rate_curve, ds, TPR, grid)
            tr.call("metrics.distributional_disparity", distributional_disparity, ds, TPR, 1.0, grid)
        rows += len(ds)
        return {
            "dataset.load_csv_rows": rows,
            "ot.fitted_atoms": plan_atoms(plan),
            "lex.rounds": len(sol.rounds),
            "repair.plan_bytes": (d / "plan.json").stat().st_size,
            "apply_rows": applied,
        }


WORKLOADS = {w.name: w for w in (FitBinary, FitLex, ApplyHoldout)}
