"""Acceptance gate: every release-blocking property at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or check the captured
output) and asserts the same condition, so the suite doubles as a report.
"""

import itertools
import json
import time

import numpy as np

from fairrepair import (
    FPR,
    PR,
    TPR,
    EmpiricalDistribution,
    LambdaObjective,
    ThresholdGrid,
    build_problem,
    bundled_spec,
    fit_plan,
    parse_combo,
    rate_curve,
    distributional_disparity,
    sample,
    solve_exact,
    solve_lexicographic,
    solve_maxmin,
    solve_probabilistic,
    split,
    validate_dataset,
    wasserstein,
)
from fairrepair.cli import main as cli_main
from fairrepair.solver import _sweep

from conftest import UNIT, conditional_means


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _continuous_dataset(rng, counts, mean_span=(0.35, 0.65), sd=0.13, offsets=None):
    rows = []
    names = [chr(ord("a") + i) for i in range(len(counts))]
    means = np.linspace(*mean_span, len(counts))
    offsets = offsets or [0.0] * len(counts)
    for g, n, mu, off in zip(names, counts, means, offsets):
        s = np.clip(rng.normal(mu, sd, n), 0.0, 1.0)
        p = np.clip(s + off, 0.0, 1.0)
        y = (rng.random(n) < p).astype(int)
        rows.extend((float(si), g, int(yi)) for si, yi in zip(s, y))
    return validate_dataset(rows, UNIT)


def test_criterion_1_disparity_equals_wasserstein():
    """Threshold-average gap over every threshold vs exact W1, 50 random datasets."""
    rng = np.random.default_rng(101)
    kinds = (PR, TPR, FPR)
    start = time.time()
    worst = 0.0
    for i in range(50):
        counts = rng.integers(200, 2001, size=2)
        ds = _continuous_dataset(rng, counts, offsets=[0.1, -0.1])
        rep = distributional_disparity(ds, kinds[i % 3], 1.0)
        worst = max(worst, abs(rep.expected_gap - rep.exact_gap) / rep.exact_gap)
    elapsed = time.time() - start
    _report(1, worst <= 1e-12 and elapsed < 10,
            f"max |gap - W1| / W1 = {worst:.2e} (tol 1e-12), {elapsed:.1f}s (< 10s)")


def test_criterion_2_sdp_at_full_repair():
    """Max PR gap after lambda=1 repair stays under 2 / min group count."""
    rng = np.random.default_rng(202)
    start = time.time()
    results = []
    for counts in ((400, 700), (300, 450, 500, 650)):
        ds = _continuous_dataset(rng, counts)
        plan = fit_plan(ds)
        repaired = plan.apply(ds)
        curve = rate_curve(repaired, PR, ThresholdGrid.linspace(UNIT, 1001))
        gap = max(
            np.max(np.abs(curve.values[a] - curve.values[b]))
            for a, b in itertools.combinations(ds.groups, 2)
        )
        bound = 2.0 / min(ds.group_scores(g).size for g in ds.groups)
        results.append((gap, bound))
    elapsed = time.time() - start
    ok = all(g <= b for g, b in results) and elapsed < 5
    detail = ", ".join(f"gap {g:.2e} <= {b:.2e}" for g, b in results)
    _report(2, ok, f"{detail}, {elapsed:.1f}s (< 5s)")


def test_criterion_3_objective_convexity():
    """Second differences of the disparity objective stay above -1e-6."""
    start = time.time()
    worst = np.inf
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        ds = _continuous_dataset(rng, (300, 350), offsets=[0.1, -0.1])
        plan = fit_plan(ds)
        for combo in ("pr", "tpr", "fpr", "tpr:1,fpr:1"):
            obj = LambdaObjective(parse_combo(combo))
            _, vals, _ = _sweep(plan, ds, obj, 101)
            worst = min(worst, float(np.diff(vals, 2).min()))
    elapsed = time.time() - start
    _report(3, worst >= -1e-6 and elapsed < 30,
            f"min second difference = {worst:.2e} (>= -1e-6), {elapsed:.1f}s (< 30s)")


def test_criterion_4_geodesic_constant_speed():
    """W1 along the repair path is |dlambda| times the full path length."""
    worst = 0.0
    pairs = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.0, 1.0), (0.25, 1.0))
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        ds = _continuous_dataset(rng, (80, 120))
        plan = fit_plan(ds)
        for g in plan.groups:
            full = wasserstein(plan.fitted[g], plan.repaired_distribution(g, 1.0), 1.0)
            for l1, l2 in pairs:
                got = wasserstein(
                    plan.repaired_distribution(g, l1), plan.repaired_distribution(g, l2), 1.0
                )
                worst = max(worst, abs(got - abs(l2 - l1) * full))
    _report(4, worst <= 1e-9, f"max |W1 - dlambda * W1(mu, beta)| = {worst:.2e} (tol 1e-9)")


def test_criterion_5_reweighted_barycenter_identity():
    """Lambda-repair equals the reweighted two-measure barycenter atom-wise."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        ds = _continuous_dataset(rng, (40, 60))
        plan = fit_plan(ds)
        lam = float(rng.random())
        for gi, g in enumerate(plan.groups):
            other = plan.groups[1 - gi]
            p_g = plan.group_weights[gi]
            d = plan.fitted[g]
            expected = (1.0 - lam + lam * p_g) * d.atoms + lam * (1.0 - p_g) * np.asarray(
                plan.fitted[other].quantile(d.breakpoints)
            )
            got = plan.repaired_distribution(g, lam)
            merged = EmpiricalDistribution(expected, d.counts)
            worst = max(worst, float(np.max(np.abs(got.atoms - merged.atoms))))
    _report(5, worst <= 1e-12, f"max atom deviation = {worst:.2e} (tol 1e-12)")


def test_criterion_6_probabilistic_lambda():
    """Closed-form lambda zeroes the conditional-mean gap; close to exact."""
    worst_gap = 0.0
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        ds = _continuous_dataset(rng, (150, 200), offsets=[-0.15, 0.15])
        plan = fit_plan(ds)
        sol = solve_probabilistic(plan, ds, TPR)
        if sol.clamped:
            continue
        checked += 1
        repaired = plan.with_lambdas({g: sol.lambda_star for g in plan.groups}).apply(ds)
        m = conditional_means(repaired, 1)  # TPR conditions on label 1
        worst_gap = max(worst_gap, abs(m[0] - m[1]))
    gap_ok = worst_gap <= 1e-10 and checked >= 10

    rng = np.random.default_rng(660)
    base = _continuous_dataset(rng, (900, 900), offsets=[-0.2, 0.2])
    obj = LambdaObjective(parse_combo("tpr"))
    worst_dev = 0.0
    for seed in range(10):
        labeled, _ = split(base, 0.5, seed)
        plan = fit_plan(labeled)
        exact = solve_exact(plan, labeled, obj)
        prob = solve_probabilistic(plan, labeled, TPR)
        worst_dev = max(worst_dev, abs(exact.lambda_star - prob.lambda_star))
    _report(6, gap_ok and worst_dev <= 0.15,
            f"max repaired mean-gap = {worst_gap:.2e} over {checked} unclamped instances "
            f"(tol 1e-10); max |lam_exact - lam_prob| = {worst_dev:.3f} (tol 0.15)")


def test_criterion_7_exact_solver_vs_fine_grid():
    """Slope bisection vs a 10001-point grid oracle (``_sweep``), 10 instances."""
    start = time.time()
    worst_lam = 0.0
    worst_obj = -np.inf
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        ds = _continuous_dataset(rng, (200, 260), offsets=[-0.2, 0.2])
        plan = fit_plan(ds)
        obj = LambdaObjective(parse_combo("tpr"))
        lams, vals, best = _sweep(plan, ds, obj, 10001)
        sol = solve_exact(plan, ds, obj)
        worst_lam = max(worst_lam, abs(sol.lambda_star - lams[best]))
        worst_obj = max(worst_obj, sol.objective_value - vals[best])
    elapsed = time.time() - start
    ok = worst_lam <= 1e-3 and worst_obj <= 1e-6 and elapsed < 60
    _report(7, ok, f"max |dlambda| = {worst_lam:.2e} (tol 1e-3), "
                   f"max objective excess = {worst_obj:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)")


def test_criterion_8_lexicographic_vs_brute_force():
    """Round-by-round LP optima vs a 41^3 grid; lex profile dominates max-min.

    Two one-sided checks at the 1e-3 tolerance (the exact LP may strictly beat
    a 1/40-resolution grid, so equality cannot be demanded): (a) the LP never
    does worse than the grid running the same round-by-round procedure with
    its own bounds; (b) no grid point that satisfies the LP's inherited
    constraints beats the LP's round value.
    """
    grid = np.linspace(0.0, 1.0, 41)
    worst_vs_grid_lex = -np.inf
    worst_vs_feasible = -np.inf
    dominance_ok = True
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        ds = _continuous_dataset(rng, rng.integers(30, 51, size=3), offsets=[0.1, 0.0, -0.1])
        plan = fit_plan(ds)
        prob = build_problem(plan, ds, TPR)
        sol = solve_lexicographic(prob)
        mm = solve_maxmin(prob)

        lam = np.meshgrid(*([grid] * 3), indexing="ij")
        m = np.stack(
            [prob.base_means[i] + lam[i] * prob.mean_shifts[i] for i in range(3)], axis=-1
        )
        losses = np.abs(m[..., :, None] - m[..., None, :]).sum(axis=-1)
        sorted_desc = np.sort(losses, axis=-1)[..., ::-1]
        k_sums = [sorted_desc[..., : k + 1].sum(axis=-1) for k in range(3)]

        # (a) brute-force lexicographic with its own epsilons
        feas = np.ones(losses.shape[:-1], dtype=bool)
        grid_eps = []
        for k in range(3):
            grid_eps.append(float(k_sums[k][feas].min()))
            for size in range(1, k + 2):
                feas &= k_sums[size - 1] <= grid_eps[size - 1] + 1e-9
            worst_vs_grid_lex = max(worst_vs_grid_lex, sol.epsilons[k] - grid_eps[k])

        # (b) grid points feasible for the LP's own bounds never beat it
        feas = np.ones(losses.shape[:-1], dtype=bool)
        for k in range(3):
            if feas.any():
                best_feasible = float(k_sums[k][feas].min())
                worst_vs_feasible = max(worst_vs_feasible, sol.epsilons[k] - best_feasible)
            for size in range(1, k + 2):
                feas &= k_sums[size - 1] <= sol.epsilons[size - 1] + 1e-9

        lex_profile = np.sort(list(sol.losses.values()))[::-1]
        mm_profile = np.sort(list(mm.losses.values()))[::-1]
        for l, m_ in zip(lex_profile, mm_profile):
            if abs(l - m_) > 1e-6:
                dominance_ok &= l < m_
                break
    ok = worst_vs_grid_lex <= 1e-3 and worst_vs_feasible <= 1e-3 and dominance_ok
    _report(8, ok,
            f"max (LP - grid-lex oracle) = {worst_vs_grid_lex:.2e}, "
            f"max (LP - feasible-grid best) = {worst_vs_feasible:.2e} (tol 1e-3), "
            f"lex profile dominates max-min: {dominance_ok}")


def test_criterion_9_table_ordering_on_bundled_spec():
    """Per-group: lex <= max-min <= unrepaired; full repair within 2x of
    unrepaired.  Bundled 4-group spec, seeds 1-10."""
    spec = bundled_spec()
    ok = True
    details = []
    for seed in range(1, 11):
        ds = sample(spec, 8000, seed)
        labeled, _ = split(ds, 0.5, seed)
        plan = fit_plan(labeled)
        prob = build_problem(plan, labeled, TPR)
        unrep = prob.losses(np.zeros(prob.n))
        full = prob.losses(np.ones(prob.n))
        mm = prob.losses([solve_maxmin(prob).lambdas[g] for g in prob.groups])
        lx = prob.losses([solve_lexicographic(prob).lambdas[g] for g in prob.groups])
        seed_ok = (
            bool(np.all(lx <= mm + 1e-3))
            and bool(np.all(mm <= unrep + 1e-3))
            and bool(np.all(full <= 2.0 * unrep))
            and bool(np.all(full >= 0.5 * unrep))
        )
        ok &= seed_ok
        if seed == 1:
            details.append(
                f"seed 1 normalized losses: unrepaired {np.round(unrep, 3).tolist()}, "
                f"full {np.round(full, 3).tolist()}, maxmin {np.round(mm, 4).tolist()}, "
                f"lex {np.round(lx, 4).tolist()}"
            )
    _report(9, ok, "; ".join(details) + "; ordering held on seeds 1-10")


def test_criterion_10_end_to_end_workflow(tmp_path):
    """generate -> fit (lex, TPR) -> apply to holdout -> evaluate, via the CLI:
    holdout expected TPR gap falls by at least half, seeds 1-10."""
    start = time.time()
    reductions = []
    for seed in range(1, 11):
        prefix = tmp_path / f"s{seed}"
        assert cli_main([
            "generate", "--output", str(prefix), "--n", "8000", "--seed", str(seed),
        ]) == 0
        plan_path = tmp_path / f"plan{seed}.json"
        assert cli_main([
            "fit", "--input", f"{prefix}_labeled.csv", "--output", str(plan_path),
            "--solver", "lex", "--metric", "tpr", "--domain", "0:100",
        ]) == 0
        repaired = tmp_path / f"repaired{seed}.csv"
        assert cli_main([
            "apply", "--input", f"{prefix}_holdout.csv", "--plan", str(plan_path),
            "--output", str(repaired),
        ]) == 0
        before_path = tmp_path / f"before{seed}.json"
        after_path = tmp_path / f"after{seed}.json"
        assert cli_main([
            "evaluate", "--input", f"{prefix}_holdout.csv", "--output", str(before_path),
            "--metric", "tpr", "--domain", "0:100",
        ]) == 0
        assert cli_main([
            "evaluate", "--input", str(repaired), "--output", str(after_path),
            "--metric", "tpr", "--domain", "0:100",
        ]) == 0
        before = json.loads(before_path.read_text())["reports"][0]["expected_gap"]
        after = json.loads(after_path.read_text())["reports"][0]["expected_gap"]
        reductions.append(1.0 - after / before)
    elapsed = time.time() - start
    ok = all(r >= 0.5 for r in reductions) and elapsed < 120
    _report(10, ok, f"holdout TPR-gap reductions {min(reductions):.0%}..{max(reductions):.0%} "
                    f"(need >= 50%), {elapsed:.0f}s (< 120s)")
