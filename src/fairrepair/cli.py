"""Command-line frontend: generate, evaluate, fit, apply, lambda-sweep.

Wires the library into the post-processing workflow: synthesize or ingest a
scored CSV, measure threshold-sweep disparity, fit a repair plan with a
chosen solver on labeled data, apply it to (possibly unlabeled) data, and
dump the lambda-vs-objective curve.  Everything is emitted as CSV/JSON data
files; plotting is left to the caller.

Exit codes: 0 success, 2 validation error, 3 solver error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .dataset import ScoreDomain, _index_groups, _read_scored_csv, _write_dataset, load_csv, parse_combo
from .errors import DatasetError, SolverError, SpecError
from .lex import build_problem, solve_lexicographic, solve_maxmin
from .metrics import ThresholdGrid, _write_curves, distributional_disparity, rate_curve
from .repair import fit_plan, load_plan, save_plan
from .solver import LambdaObjective, _sweep, solve_exact, solve_grid, solve_probabilistic
from .synth import GENERATOR_ID, JointSpec, bundled_spec, sample, split

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_DEFAULTS = {
    "metric": "pr",
    "grid": 101,
    "p": 1.0,
    "solver": "auto",
    "seed": 0,
    "domain": "0:1",
    "tol": 1e-6,
    "steps": 101,
    "n": 8000,
    "fraction": 0.5,
}


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _atomic_write(path: str, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda fh: fh.write(text))


def _parse_domain(text: str) -> ScoreDomain:
    try:
        lo, _, hi = text.partition(":")
        return ScoreDomain(float(lo), float(hi))
    except (ValueError, DatasetError):
        raise _CliError(f"bad --domain '{text}', expected lo:hi", EXIT_VALIDATION) from None


def _load_input(path: str, domain: ScoreDomain):
    if not os.path.exists(path):
        raise _CliError(f"input file not found: {path}", EXIT_IO)
    return load_csv(path, domain)


def _resolve(args: argparse.Namespace, config: dict, key: str):
    """Precedence: command-line flag > config file > built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return _DEFAULTS.get(key)


def _load_config(args: argparse.Namespace) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    if not os.path.exists(path):
        raise _CliError(f"config file not found: {path}", EXIT_IO)
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise _CliError(f"{path}: config is not valid JSON ({exc})", EXIT_VALIDATION) from None
    if not isinstance(data, dict):
        raise _CliError(f"{path}: config must be a JSON object", EXIT_VALIDATION)
    return data


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_evaluate(args, config) -> int:
    domain = _parse_domain(_resolve(args, config, "domain"))
    combo = parse_combo(_resolve(args, config, "metric"))
    grid = ThresholdGrid.linspace(domain, int(_resolve(args, config, "grid")))
    p = float(_resolve(args, config, "p"))
    ds = _load_input(args.input, domain)

    curves, reports = [], []
    for kind in combo.kinds:
        curves.append(rate_curve(ds, kind, grid))
        reports.append(distributional_disparity(ds, kind, p, grid))
    payload = {"input": args.input, "reports": [r.to_dict() for r in reports]}
    if len(reports) > 1:
        payload["weighted_expected_gap"] = float(
            sum(w * r.expected_gap for (_, w), r in zip(combo.terms, reports))
        )
    _write_json(args.output, payload)
    curves_path = args.curves or os.path.splitext(args.output)[0] + ".curves.csv"
    _atomic_write(curves_path, lambda fh: _write_curves(fh, curves))
    return EXIT_OK


def _pick_solver(name: str, n_groups: int) -> str:
    if name == "auto":
        return "exact" if n_groups == 2 else "lex"
    if name in ("grid", "exact", "probabilistic") and n_groups != 2:
        raise _CliError(f"solver '{name}' is binary-only but data has {n_groups} groups", EXIT_VALIDATION)
    return name


def _cmd_fit(args, config) -> int:
    domain = _parse_domain(_resolve(args, config, "domain"))
    combo = parse_combo(_resolve(args, config, "metric"))
    p = float(_resolve(args, config, "p"))
    tol = float(_resolve(args, config, "tol"))
    steps = int(_resolve(args, config, "grid"))
    ds = _load_input(args.input, domain)
    plan = fit_plan(ds)
    solver = _pick_solver(_resolve(args, config, "solver"), len(ds.groups))

    if solver in ("probabilistic", "maxmin", "lex") and combo.single_kind is None:
        raise _CliError(f"solver '{solver}' needs a single metric, not a combination", EXIT_VALIDATION)

    solution_dict: dict
    if solver == "none":
        # Fit-only barycenter mode: label-free, keeps the full-repair default.
        solution_dict = {"method": "none", "lambdas": dict(plan.lambdas)}
    elif solver == "grid":
        sol = solve_grid(plan, ds, LambdaObjective(combo, p), steps)
        plan = plan.with_lambdas({g: sol.lambda_star for g in plan.groups})
        solution_dict = sol.to_dict()
    elif solver == "exact":
        sol = solve_exact(plan, ds, LambdaObjective(combo, p), tol)
        plan = plan.with_lambdas({g: sol.lambda_star for g in plan.groups})
        solution_dict = sol.to_dict()
    elif solver == "probabilistic":
        sol = solve_probabilistic(plan, ds, combo.single_kind)
        plan = plan.with_lambdas({g: sol.lambda_star for g in plan.groups})
        solution_dict = sol.to_dict()
    else:
        prob = build_problem(plan, ds, combo.single_kind)
        sol = solve_maxmin(prob) if solver == "maxmin" else solve_lexicographic(prob)
        plan = plan.with_lambdas(sol.lambdas)
        solution_dict = sol.to_dict()

    save_plan(plan, args.output)
    _write_json(args.output + ".solution.json", solution_dict)
    return EXIT_OK


def _cmd_apply(args, config) -> int:
    if not os.path.exists(args.plan):
        raise _CliError(f"plan file not found: {args.plan}", EXIT_IO)
    plan = load_plan(args.plan)
    if not os.path.exists(args.input):
        raise _CliError(f"input file not found: {args.input}", EXIT_IO)

    # Not a ScoredDataset: apply keeps every column and the row order, and
    # accepts groups with a single row.
    table = _read_scored_csv(args.input, plan.domain)
    repaired = np.empty_like(table.scores)
    names, inverse = _index_groups(table.groups)
    for k, group in enumerate(names):
        rows = inverse == k
        if group not in plan.groups:
            raise DatasetError(f"{args.input}:{table.lines[rows.argmax()]}: group '{group}' not in plan")
        repaired[rows] = plan.repaired_score(group, table.scores[rows])
    _atomic_write(args.output, lambda fh: table.write(fh, repaired))
    return EXIT_OK


def _cmd_lambda_sweep(args, config) -> int:
    domain = _parse_domain(_resolve(args, config, "domain"))
    combo = parse_combo(_resolve(args, config, "metric"))
    p = float(_resolve(args, config, "p"))
    steps = int(_resolve(args, config, "steps"))
    if steps < 2:
        raise _CliError("--steps must be at least 2", EXIT_VALIDATION)
    ds = _load_input(args.input, domain)
    lams, vals, best = _sweep(fit_plan(ds), ds, LambdaObjective(combo, p), steps)
    lines = ["lambda,objective,is_argmin"]
    for i, (lam, v) in enumerate(zip(lams, vals)):
        lines.append(f"{float(lam)!r},{float(v)!r},{int(i == best)}")
    _atomic_write(args.output, lambda fh: fh.write("\n".join(lines) + "\n"))
    return EXIT_OK


def _cmd_generate(args, config) -> int:
    seed = int(_resolve(args, config, "seed"))
    n = int(_resolve(args, config, "n"))
    fraction = float(_resolve(args, config, "fraction"))
    if args.spec:
        if not os.path.exists(args.spec):
            raise _CliError(f"spec file not found: {args.spec}", EXIT_IO)
        spec = JointSpec.from_json(args.spec)
    else:
        spec = bundled_spec()
    ds = sample(spec, n, seed)
    labeled, holdout = split(ds, fraction, seed)
    prefix = args.output
    _atomic_write(prefix + "_labeled.csv", lambda fh: _write_dataset(fh, labeled))
    _atomic_write(prefix + "_holdout.csv", lambda fh: _write_dataset(fh, holdout))
    meta = {
        "generator": GENERATOR_ID,
        "seed": seed,
        "n": n,
        "fraction": fraction,
        "spec": spec.to_dict(),
    }
    _write_json(prefix + "_meta.json", meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", help="pr|tpr|fpr|nr|tnr|fnr or weighted combo like 'tpr:1,fpr:1'")
    p.add_argument(
        "--grid",
        type=int,
        help="threshold-grid size (default 101); 'fit --solver grid' also takes its "
        "lambda step count from it, while lambda-sweep uses --steps",
    )
    p.add_argument("--p", type=float, help="disparity order p >= 1 (default 1)")
    p.add_argument(
        "--solver",
        choices=["auto", "grid", "exact", "probabilistic", "maxmin", "lex", "none"],
        help="lambda solver; 'none' fits the barycenter only (label-free, lambda=1)",
    )
    p.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    p.add_argument("--domain", help="score domain as lo:hi (default 0:1)")
    p.add_argument("--tol", type=float, help="solver tolerance (default 1e-6)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairrepair",
        description="Post-process classifier scores for threshold-independent group parity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("evaluate", help="threshold-sweep disparity curves and report")
    pe.add_argument("--input", required=True)
    pe.add_argument("--output", required=True, help="report JSON path")
    pe.add_argument("--curves", help="curve CSV path (default: <output>.curves.csv)")
    _add_shared(pe)
    pe.set_defaults(func=_cmd_evaluate)

    pf = sub.add_parser("fit", help="fit a repair plan and solve for lambda(s)")
    pf.add_argument("--input", required=True, help="labeled CSV")
    pf.add_argument("--output", required=True, help="plan JSON path")
    _add_shared(pf)
    pf.set_defaults(func=_cmd_fit)

    pa = sub.add_parser("apply", help="apply a fitted plan to a CSV of scores")
    pa.add_argument("--input", required=True)
    pa.add_argument("--plan", required=True)
    pa.add_argument("--output", required=True, help="repaired CSV path")
    _add_shared(pa)
    pa.set_defaults(func=_cmd_apply)

    ps = sub.add_parser("lambda-sweep", help="objective value over a lambda grid")
    ps.add_argument("--input", required=True, help="labeled 2-group CSV")
    ps.add_argument("--output", required=True, help="sweep CSV path")
    ps.add_argument("--steps", type=int, help="lambda grid size (default 101)")
    _add_shared(ps)
    ps.set_defaults(func=_cmd_lambda_sweep)

    pg = sub.add_parser("generate", help="sample a synthetic dataset and split it")
    pg.add_argument("--spec", help="joint spec JSON (default: bundled 4-group example)")
    pg.add_argument("--n", type=int, help="total rows (default 8000)")
    pg.add_argument("--fraction", type=float, help="labeled fraction (default 0.5)")
    pg.add_argument("--output", required=True, help="output path prefix")
    _add_shared(pg)
    pg.set_defaults(func=_cmd_generate)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    json_errors = bool(getattr(args, "json_errors", False))
    try:
        config = _load_config(args)
        return args.func(args, config)
    except _CliError as exc:
        return _fail(str(exc), exc.code, json_errors, type(exc).__name__)
    except (DatasetError, SpecError) as exc:
        return _fail(str(exc), EXIT_VALIDATION, json_errors, type(exc).__name__)
    except SolverError as exc:
        return _fail(str(exc), EXIT_SOLVER, json_errors, type(exc).__name__)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO, json_errors, type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
