import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairrepair
from fairrepair import cli, dataset, errors, lex, metrics, ot, repair, solver, synth

PUBLIC_MODULES = (dataset, errors, lex, metrics, ot, repair, solver, synth)
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# The variables OpenBLAS reads its thread count from.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_package_exports_every_public_module_name_once():
    names = fairrepair.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in PUBLIC_MODULES for name in module.__all__}
    for module in PUBLIC_MODULES:
        for name in module.__all__:
            assert getattr(fairrepair, name) is getattr(module, name)


def readme_api_bullets() -> dict[str, str]:
    """The README's public-API list: module name -> the text of its bullet."""
    text = README.read_text(encoding="utf-8")
    api = text[text.index("The public API, by module."):text.index("## Command line")]
    return dict(re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", api, flags=re.M | re.S))


def test_readme_api_list_names_every_public_name():
    """Each ``__all__`` name starts a backticked token in its module's README
    bullet, alone or as in `build_problem(plan, ds, kind)`."""
    bullets = readme_api_bullets()
    assert set(bullets) == {module.__name__.rpartition(".")[2] for module in PUBLIC_MODULES}
    for module in PUBLIC_MODULES:
        tokens = re.findall(r"`([^`]+)`", bullets[module.__name__.rpartition(".")[2]])
        missing = [name for name in module.__all__
                   if not any(re.match(rf"{re.escape(name)}\b", t) for t in tokens)]
        assert not missing, f"README API bullet for {module.__name__} omits {missing}"


def test_readme_flag_lists_match_the_parser():
    """Each subcommand's README bullet names exactly the flags ``build_parser()``
    gives it, and the ``--config`` key list exactly the options with a default,
    so a flag cannot be added or deleted without its README line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):text.index("### File formats")]
    block = section.split("lists them with their defaults):\n\n", 1)[1].split("\n\n", 1)[0]
    readme = {command: set(re.findall(r"`(--[\w-]+)`", flags))
              for command, flags in re.findall(r"^- `([\w-]+)`: (.*?)(?=^- |\Z)", block, flags=re.M | re.S)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert readme == {command: {flag for action in parser._actions if not isinstance(action, argparse._HelpAction)
                                for flag in action.option_strings}
                      for command, parser in commands.choices.items()}
    keys = re.search(r"name without the dashes \(([^)]*)\)", section).group(1)
    assert set(re.findall(r"`([\w-]+)`", keys)) == {k for k, (_, kw) in cli._OPTIONS.items() if "default" in kw}


# -- import cost ----------------------------------------------------------------


def fresh_python(*args, status=0, **env) -> subprocess.CompletedProcess:
    """``python *args`` on src/ in a fresh interpreter, with no BLAS thread
    variable set but those in ``env``; fails unless it exits ``status``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS} | env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == status, proc.stderr
    return proc


def test_import_loads_no_numpy():
    fresh_python("-c", "import fairrepair, sys; assert 'numpy' not in sys.modules")


def test_star_import_and_dir_list_every_public_name():
    fresh_python("-c", "from fairrepair import *; import fairrepair\n"
                       "assert [n for n in fairrepair.__all__ if n not in globals()] == []\n"
                       "assert set(fairrepair.__all__) <= set(dir(fairrepair))")


def test_cli_module_runs_without_runtime_warning():
    """``python -m fairrepair.cli`` warns if the package imported the module first."""
    proc = fresh_python("-W", "error::RuntimeWarning", "-m", "fairrepair.cli", "--help")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "set"])
def test_cli_import_leaves_environment_unchanged(env):
    fresh_python("-c", "import os; before = dict(os.environ); import fairrepair.cli\n"
                       "assert dict(os.environ) == before", **env)


THREADS = "import os; {}; print(len(os.listdir('/proc/self/task')))"


@pytest.fixture(scope="module")
def openblas_pool():
    """Skip unless numpy's BLAS is an OpenBLAS that starts a worker on this host."""
    if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs Linux's /proc/self/task and at least 2 CPUs")
    if fresh_python("-c", THREADS.format("import numpy"), OPENBLAS_NUM_THREADS="2").stdout.strip() != "2":
        pytest.skip("numpy's BLAS starts no OpenBLAS worker thread here")


@pytest.mark.parametrize("code, env, threads", [
    ("import fairrepair.cli", {}, 1),
    ("from fairrepair import cli", {}, 1),
    ("import fairrepair.cli", {"OPENBLAS_NUM_THREADS": "2"}, 2),  # the caller's value wins
    ("import numpy; import fairrepair.cli", {}, None),  # numpy loaded first: its pool is left alone
], ids=["cli", "from-package", "caller-set", "numpy-first"])
def test_cli_loads_numpy_with_one_blas_thread(openblas_pool, code, env, threads):
    count = int(fresh_python("-c", THREADS.format(code), **env).stdout)
    assert count > 1 if threads is None else count == threads


def test_cli_workflow_in_fresh_interpreters(tmp_path):
    """The CLI sequence of CI's packaging smoke step, each command a fresh
    ``python -m fairrepair.cli``: generate from the bundled spec, an auto fit
    (lexicographic at 4 groups), apply and evaluate; apply at lambda = 1 is
    T_g(x) for every row, bit for bit; a 2-group auto fit takes the exact
    route; and fit rejects ``--tol`` with exit 2, writing nothing.  The smoke
    step keeps only what needs an install: the console script and the spec
    bundled as package data.  The lazy import and the one BLAS thread are
    checked above, by test_import_loads_no_numpy and
    test_cli_loads_numpy_with_one_blas_thread."""
    def cli(*argv, status=0):
        fresh_python("-m", "fairrepair.cli", *argv, status=status)

    labeled, holdout, plan = tmp_path / "smoke_labeled.csv", tmp_path / "smoke_holdout.csv", tmp_path / "plan.json"
    cli("generate", "--output", tmp_path / "smoke", "--n", 200)
    cli("fit", "--input", labeled, "--output", plan, "--domain", "0:100", "--metric", "tpr")
    assert json.loads((tmp_path / "plan.json.solution.json").read_text())["method"] == "lexicographic"
    cli("apply", "--input", holdout, "--plan", plan, "--output", tmp_path / "repaired.csv")
    cli("evaluate", "--input", tmp_path / "repaired.csv", "--output", tmp_path / "after.json",
        "--domain", "0:100", "--metric", "tpr")
    assert (tmp_path / "after.curves.csv").stat().st_size

    cli("fit", "--input", labeled, "--output", tmp_path / "full.json", "--domain", "0:100", "--solver", "none")
    cli("apply", "--input", labeled, "--plan", tmp_path / "full.json", "--output", tmp_path / "full.csv")
    full = fairrepair.load_plan(tmp_path / "full.json")
    before, after = (fairrepair.load_csv(path, full.domain) for path in (labeled, tmp_path / "full.csv"))
    assert before.groups == after.groups == full.groups
    for k, g in enumerate(full.groups):
        rows = before.group_indices == k
        assert rows.any() and np.array_equal(after.scores[rows], full.total_repair_score(g, before.scores[rows])), g

    rng = np.random.default_rng(0)
    duo = tmp_path / "duo.csv"
    duo.write_text("score,group,label\n" + "".join(f"{x},{g},{y}\n" for g in "ab"
                                                     for x, y in zip(rng.random(50), rng.integers(0, 2, 50))))
    cli("fit", "--input", duo, "--output", tmp_path / "duo.json", "--metric", "tpr")
    assert json.loads((tmp_path / "duo.json.solution.json").read_text())["method"] == "exact"
    cli("fit", "--input", duo, "--output", tmp_path / "tol.json", "--tol", "1e-6", status=2)
    assert not (tmp_path / "tol.json").exists()


# -- optional test dependencies -------------------------------------------------


def optional_imports(source: str) -> list[int]:
    """The lines of ``source`` that import hypothesis or scipy other than
    through pytest.importorskip: an import statement, ``__import__`` or
    ``importlib.import_module``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
              and (getattr(node.func, "id", None) == "__import__"
                   or getattr(node.func, "attr", None) == "import_module")):
            names = [str(node.args[0].value)]
        else:
            continue
        lines += [node.lineno for name in names if name.partition(".")[0] in {"hypothesis", "scipy"}]
    return lines


def test_tests_reach_hypothesis_and_scipy_only_through_importorskip():
    """So the numpy-and-pytest CI leg skips every test that needs one, rather than failing to collect it."""
    assert optional_imports("import scipy.optimize\nfrom hypothesis import given\n"
                            "importlib.import_module('scipy')\npytest.importorskip('scipy')") == [1, 2, 3]
    found = {str(path.relative_to(ROOT)): optional_imports(path.read_text(encoding="utf-8"))
             for path in (ROOT / "tests").rglob("*.py")}
    assert not {name: lines for name, lines in found.items() if lines}
