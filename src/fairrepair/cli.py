"""Command-line frontend: generate, evaluate, fit, apply, lambda-sweep.

Wires the library into the post-processing workflow: synthesize or ingest a
scored CSV, measure threshold-sweep disparity, fit a repair plan with a
chosen solver on labeled data, apply it to (possibly unlabeled) data, and
dump the lambda-vs-objective curve.  Everything is emitted as CSV/JSON data
files; plotting is left to the caller.

Exit codes: 0 success, 2 validation error, 3 solver error, 4 I/O error.

Importing this module first loads numpy with one OpenBLAS thread, unless
``OPENBLAS_NUM_THREADS`` is set or numpy has already loaded.  The CLI makes no
BLAS call (every sum is numpy's own), and its outputs do not depend on the
thread count (``test_outputs_do_not_depend_on_blas_threads``), so OpenBLAS's
workers would only busy-wait: about 0.1 s of CPU per worker per command.
OpenBLAS reads the variable once, as it loads, so the import unsets it again
and later code and child processes see the environment they had.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

# Load numpy with one OpenBLAS thread (see the module docstring).
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .dataset import (ScoreDomain, _atomic_write, _read_json, _read_scored_csv, _write_json,
                      load_csv, parse_combo, write_csv)
from .errors import DatasetError, SolverError, SpecError
from .lex import build_problem, solve_lexicographic, solve_maxmin
from .metrics import ThresholdGrid, _write_curves, distributional_disparity
from .repair import fit_plan, load_plan, save_plan
from .solver import LambdaObjective, _sweep, solve_exact, solve_probabilistic
from .synth import GENERATOR_ID, JointSpec, bundled_spec, sample, split

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class _CliError(Exception):
    """A command-line validation error (exit 2)."""


# Row, grid and step counts above this are rejected before anything is allocated.
MAX_COUNT = 2**31 - 1


def _checked(convert, name: str, ok, requirement: str):
    """An argparse type for ``convert``-ed values that also satisfy ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {requirement}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value: ..."
    return parse


_count = _checked(int, "count", lambda v: v <= MAX_COUNT, f"at most {MAX_COUNT}")
_steps = _checked(int, "count", lambda v: 2 <= v <= MAX_COUNT, f"between 2 and {MAX_COUNT}")
_seed = _checked(int, "seed", lambda v: v >= 0, "nonnegative")
_order = _checked(float, "order p", lambda v: 1.0 <= v < math.inf, "finite and >= 1")  # rejects NaN
_fraction = _checked(float, "fraction", lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")  # rejects NaN


def _parse_domain(text: str) -> ScoreDomain:
    lo, _, hi = text.partition(":")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got '{text}'") from None
    try:
        return ScoreDomain(lo, hi)
    except DatasetError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _config_flags(path: str, command: str) -> list[str]:
    """The config file's values for ``command`` as ``--key=value`` flags."""
    data = _read_json(path, "config", DatasetError)
    if not isinstance(data, dict):
        raise _CliError(f"{path}: config must be a JSON object")
    flags = []
    for key, value in data.items():
        commands, kwargs = _OPTIONS.get(key, ((), {}))
        if "default" not in kwargs:
            settable = ", ".join(k for k, (_, kw) in _OPTIONS.items() if "default" in kw)
            raise _CliError(f"{path}: '{key}' cannot be set in a config file (settable: {settable})")
        if command in commands:
            flags.append(f"--{key}={value if isinstance(value, str) else json.dumps(value)}")
    return flags


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _outputs(args) -> dict:
    """Each file the command writes, by the flag that names it, once checked
    that none names an input or another output by any path."""
    out = {"--output": args.output}
    if args.command == "evaluate":
        out["--curves"] = args.curves or os.path.splitext(args.output)[0] + ".curves.csv"
    if args.command == "fit":
        out["<output>.solution.json"] = args.output + ".solution.json"
    if args.command == "generate":  # --output is a prefix
        out = {f"<output>{end}": args.output + end for end in ("_labeled.csv", "_holdout.csv", "_meta.json")}
    seen = {os.path.realpath(getattr(args, k)): f"--{k}"
            for k in ("input", "plan", "spec", "config") if getattr(args, k, None)}
    for flag, path in out.items():
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise _CliError(f"{flag} and {other} name the same file: {path}")
    return out


def _cmd_evaluate(args) -> None:
    combo = parse_combo(args.metric)
    try:
        grid = ThresholdGrid.linspace(args.domain, args.grid)
    except DatasetError:  # --grid >= 2 is checked, so two points are equal
        raise _CliError(f"--domain holds fewer distinct floats than --grid's {args.grid} points") from None
    ds = load_csv(args.input, args.domain)

    reports = [distributional_disparity(ds, kind, args.p, grid) for kind in combo.kinds]
    payload = {"input": args.input, "reports": [r.to_dict() for r in reports]}
    if len(reports) > 1:
        payload["weighted_expected_gap"] = float(
            sum(w * r.expected_gap for (_, w), r in zip(combo.terms, reports))
        )
    _write_json(args.output, payload)
    _atomic_write(_outputs(args)["--curves"], lambda fh: _write_curves(fh, [r.curve for r in reports]))


def _cmd_fit(args) -> None:
    combo = parse_combo(args.metric)
    ds = load_csv(args.input, args.domain)
    plan = fit_plan(ds)
    solver = ("exact" if len(ds.groups) == 2 else "lex") if args.solver == "auto" else args.solver

    if solver in ("probabilistic", "maxmin", "lex") and combo.single_kind is None:
        raise _CliError(f"solver '{solver}' needs a single metric, not a combination")

    if solver == "none":
        # Fit-only barycenter mode: label-free, keeps the full-repair default.
        solution_dict = {"method": "none", "lambdas": dict(plan.lambdas)}
    elif solver in ("maxmin", "lex"):
        prob = build_problem(plan, ds, combo.single_kind)
        sol = solve_maxmin(prob) if solver == "maxmin" else solve_lexicographic(prob)
        plan = plan.with_lambdas(sol.lambdas)
        solution_dict = sol.to_dict()
    else:
        sol = (solve_exact(plan, ds, LambdaObjective(combo, args.p)) if solver == "exact"
               else solve_probabilistic(plan, ds, combo.single_kind))
        plan = plan.with_lambdas(dict.fromkeys(plan.groups, sol.lambda_star))
        solution_dict = sol.to_dict()

    save_plan(plan, args.output)
    _write_json(_outputs(args)["<output>.solution.json"], solution_dict)


def _cmd_apply(args) -> None:
    plan = load_plan(args.plan)
    # Not a ScoredDataset: apply keeps every column and the row order, and
    # accepts groups with a single row.
    table = _read_scored_csv(args.input, plan.domain)
    cells, index, lines = table.columns["group"]
    names = [c.strip() for c in cells]  # one per distinct cell: ' A' and 'A' both name A
    # The unknown name that sorts first, at the first line of any cell that names it.
    unknown = min(((g, line) for g, line in zip(names, lines) if g not in plan.groups), default=None)
    if unknown:
        raise DatasetError(f"{args.input}:{unknown[1]}: group '{unknown[0]}' not in plan")
    repaired = plan._repaired(names, index, table.scores)
    _atomic_write(args.output, lambda fh: table.write(fh, repaired))


def _cmd_lambda_sweep(args) -> None:
    combo = parse_combo(args.metric)
    ds = load_csv(args.input, args.domain)
    lams, vals, best = _sweep(fit_plan(ds), ds, LambdaObjective(combo, args.p), args.steps)
    rows = "".join(f"{float(lam)!r},{float(v)!r},{int(i == best)}\n"
                   for i, (lam, v) in enumerate(zip(lams, vals)))
    _atomic_write(args.output, lambda fh: fh.write("lambda,objective,is_argmin\n" + rows))


def _cmd_generate(args) -> None:
    spec = JointSpec.from_json(args.spec) if args.spec else bundled_spec()
    ds = sample(spec, args.n, args.seed)
    labeled, holdout = split(ds, args.fraction, args.seed)
    prefix = args.output
    write_csv(labeled, prefix + "_labeled.csv")
    write_csv(holdout, prefix + "_holdout.csv")
    meta = {
        "generator": GENERATOR_ID,
        "seed": args.seed,
        "n": args.n,
        "fraction": args.fraction,
        "spec": spec.to_dict(),
    }
    _write_json(prefix + "_meta.json", meta)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "evaluate": (_cmd_evaluate, "threshold-sweep disparity curves and report"),
    "fit": (_cmd_fit, "fit a repair plan and solve for lambda(s)"),
    "apply": (_cmd_apply, "apply a fitted plan to a CSV of scores"),
    "lambda-sweep": (_cmd_lambda_sweep, "objective value over a lambda grid"),
    "generate": (_cmd_generate, "sample a synthetic dataset and split it"),
}
_SCORED = ("evaluate", "fit", "lambda-sweep")  # measure a metric on a scored CSV

# Each option once: the subcommands that read it and its argparse keywords.
# A --config file may set the options that have a default.
_OPTIONS = {
    "input": (_SCORED + ("apply",), dict(required=True, help="scored CSV")),
    "plan": (("apply",), dict(required=True, help="plan JSON written by fit")),
    "spec": (("generate",), dict(help="joint spec JSON (default: bundled 4-group example)")),
    "output": (tuple(_COMMANDS), dict(
        required=True,
        help="report JSON (evaluate), plan JSON (fit), repaired CSV (apply), "
        "sweep CSV (lambda-sweep) or path prefix (generate)",
    )),
    "curves": (("evaluate",), dict(help="curve CSV path (default: <output>.curves.csv)")),
    "metric": (_SCORED, dict(
        default="pr",
        help="pr|tpr|fpr|nr|tnr|fnr or weighted combo like 'tpr:1,fpr:1' (default %(default)s)",
    )),
    "grid": (("evaluate",), dict(
        type=_steps,
        default=101,
        help="thresholds in the curves CSV (default %(default)s; the report's gaps are exact "
        "and do not use it)",
    )),
    "p": (_SCORED, dict(type=_order, default=1.0, help="disparity order p >= 1 (default %(default)s)")),
    "solver": (("fit",), dict(
        default="auto",
        choices=["auto", "exact", "probabilistic", "maxmin", "lex", "none"],
        help="lambda solver (default %(default)s); 'none' fits the barycenter only "
        "(label-free, lambda=1)",
    )),
    "domain": (_SCORED, dict(type=_parse_domain, default="0:1", help="score domain as lo:hi (default %(default)s)")),
    "steps": (("lambda-sweep",), dict(type=_steps, default=101, help="lambda grid size (default %(default)s)")),
    "seed": (("generate",), dict(type=_seed, default=0, help="PRNG seed (default %(default)s)")),
    "n": (("generate",), dict(type=_count, default=8000, help="total rows (default %(default)s)")),
    "fraction": (("generate",), dict(type=_fraction, default=0.5, help="labeled fraction (default %(default)s)")),
    "config": (_SCORED + ("generate",), dict(help="JSON config file; flags override its values")),
    "json-errors": (tuple(_COMMANDS), dict(action="store_true", help="emit errors as JSON on stderr")),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would print usage and exit; a bad flag or config value is
        # a validation error like any other, so --json-errors covers it.
        raise _CliError(f"{message} (see '{self.prog} --help')")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fairrepair",
        description="Post-process classifier scores for threshold-independent group parity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        # No prefix matching: 'apply --p 2' would otherwise set --plan.
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name, (commands, kwargs) in _OPTIONS.items():
            if command in commands:
                p.add_argument(f"--{name}", **kwargs)
        p.set_defaults(func=func)
    return parser


def _fail(message: str, code: int, json_errors: bool, error_cls: str) -> int:
    if json_errors:
        sys.stderr.write(
            json.dumps({"error": error_cls, "message": message, "exit_code": code}) + "\n"
        )
    else:
        sys.stderr.write(f"fairrepair: error: {message}\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    json_errors = "--json-errors" in argv  # known before argparse can fail
    try:
        args = parser.parse_args(argv)
        _outputs(args)  # checked before any file is read
        if getattr(args, "config", None):
            # Config values go in as flags ahead of the command line's: they
            # get each flag's type and choices checks, and the last flag wins.
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, args.command)
            try:
                args = parser.parse_args(argv[:at] + flags + argv[at:])
            except _CliError as exc:  # the command line alone parsed, so a config value is bad
                raise _CliError(f"{args.config}: {exc}") from None
        args.func(args)
        return EXIT_OK
    except (_CliError, DatasetError, SpecError) as exc:
        return _fail(str(exc), EXIT_VALIDATION, json_errors, type(exc).__name__)
    except SolverError as exc:
        return _fail(str(exc), EXIT_SOLVER, json_errors, type(exc).__name__)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO, json_errors, type(exc).__name__)
    except MemoryError as exc:  # an input too large for this machine is a validation error
        return _fail(f"out of memory: {exc}", EXIT_VALIDATION, json_errors, type(exc).__name__)


def entry() -> None:
    """``python -m fairrepair.cli`` and the ``fairrepair`` script: ``main``, then exit with the
    collector frozen, so exit skips its final collection (about 20 ms); atexit and flushes still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
