import json
import math
import time

import numpy as np
import pytest

from fairrepair import (
    PR,
    TPR,
    DatasetError,
    EmpiricalDistribution,
    LambdaObjective,
    ScoreDomain,
    SolverError,
    ThresholdGrid,
    barycenter_quantile,
    build_problem,
    fit_plan,
    objective_eval,
    parse_combo,
    rate_curve,
    solve_exact,
    solve_probabilistic,
    subset_by_label,
    validate_dataset,
    wasserstein,
)
from fairrepair import load_csv, load_plan, ot
from fairrepair.cli import main
from fairrepair.solver import _RepairPath, _sweep

from conftest import UNIT, conditional_means, make_dataset, random_binary_dataset, traced_peak, two_equal_groups

BINARY = {"A": [0.2, 0.4, 0.6, 0.8], "B": [0.1, 0.2, 0.3, 0.4]}
PR_OBJ = LambdaObjective(parse_combo("pr"))


def identical_groups():
    return make_dataset({"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]},
                        {"A": [1, 0, 1], "B": [1, 0, 1]})


# -- objective ----------------------------------------------------------------


def test_objective_zero_for_identical_groups():
    ds = identical_groups()
    plan = fit_plan(ds)
    for lam in (0.0, 0.3, 1.0):
        assert objective_eval(plan, ds, PR_OBJ, lam) == pytest.approx(0.0, abs=1e-15)


def test_objective_at_zero_equals_unrepaired_wasserstein():
    ds = make_dataset(BINARY)
    plan = fit_plan(ds)
    assert objective_eval(plan, ds, PR_OBJ, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_objective_pr_vanishes_at_full_repair():
    ds = make_dataset(BINARY)
    plan = fit_plan(ds)
    # equal-count groups share quantile levels, so the tie tolerance is tiny
    assert objective_eval(plan, ds, PR_OBJ, 1.0) <= 1e-12


@pytest.mark.parametrize("lam", [-0.5, 1.5, float("nan")])
def test_objective_rejects_lambda_outside_unit_interval(lam):
    ds = make_dataset(BINARY)
    with pytest.raises(DatasetError, match=r"lambda must lie in \[0, 1\]"):
        objective_eval(fit_plan(ds), ds, PR_OBJ, lam)


def test_objective_requires_two_groups():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3], "C": [0.5, 0.6]})
    plan = fit_plan(ds)
    with pytest.raises(DatasetError, match="exactly 2"):
        objective_eval(plan, ds, PR_OBJ, 0.5)


def test_objective_discrete_convexity(rng):
    """Second differences on a 101-point lambda grid stay above -1e-6."""
    for kinds in ("pr", "tpr", "fpr", "tpr:1,fpr:1"):
        ds = random_binary_dataset(rng, n_per_group=(250, 300))
        plan = fit_plan(ds)
        obj = LambdaObjective(parse_combo(kinds))
        vals = np.array([objective_eval(plan, ds, obj, lam) for lam in np.linspace(0, 1, 101)])
        assert np.diff(vals, 2).min() >= -1e-6


def _reference_objective(plan, ds, obj, lam):
    """Per term, W_p^p between distributions rebuilt from the moved samples.

    Each normalized sample z moves toward T(z) = Q_bary(F_g(z)), built here from
    the plan's fitted distributions and group weights.
    """
    fitted = [plan.fitted[g] for g in plan.groups]
    total = 0.0
    for kind, w in obj.combo.terms:
        sub = subset_by_label(ds, kind)
        dists = []
        for g in ds.groups:
            z = plan.domain.normalize(sub.group_scores(g))
            tz = np.clip(barycenter_quantile(fitted, plan.group_weights, plan.fitted[g].cdf(z)), 0.0, 1.0)
            moved = np.clip((1.0 - lam) * z + lam * tz, 0.0, 1.0)
            dists.append(EmpiricalDistribution.from_samples(moved))
        total += w * wasserstein(*dists, obj.p)
    return total


def _tied_binary_dataset(rng, domain):
    """Scores on 21 evenly spaced levels, so every group has many ties."""
    rows = []
    for g, n, shift in (("a", 150, 0), ("b", 190, 4)):
        levels = np.clip(rng.integers(0, 17, n) + shift, 0, 20)
        scores = domain.lo + levels * (domain.width / 20)
        labels = rng.random(n) < (levels / 20)
        rows.extend(zip(scores.tolist(), [g] * n, labels.astype(int).tolist()))
    return validate_dataset(rows, domain)


@pytest.mark.parametrize("domain", [UNIT, ScoreDomain(0.0, 100.0)], ids=["0:1", "0:100"])
@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
def test_objective_matches_rebuilt_distribution_oracle(rng, domain, tied):
    """objective_eval and _sweep agree bitwise with a per-lambda rebuild."""
    if tied:
        ds = _tied_binary_dataset(rng, domain)
    else:
        ds = random_binary_dataset(rng, n_per_group=(150, 190), domain=domain)
    plan = fit_plan(ds)
    for combo in ("pr", "tpr:1,fpr:0", "tpr:1,fpr:0.5"):
        for p in (1.0, 2.0):
            obj = LambdaObjective(parse_combo(combo), p)
            for lam in (0.0, 0.37, 1.0):
                assert objective_eval(plan, ds, obj, lam) == _reference_objective(plan, ds, obj, lam)
            ref = [_reference_objective(plan, ds, obj, lam) for lam in (0.0, 0.5, 1.0)]
            lams, vals, best = _sweep(plan, ds, obj, 3)
            assert vals[best] == min(ref)
            assert lams[best] == 0.5 * ref.index(min(ref))


def test_level_partition_built_once_per_term(rng, monkeypatch):
    """Each solve builds one merged level partition per term, not one per evaluation."""
    ds = random_binary_dataset(rng, n_per_group=(150, 190))
    plan = fit_plan(ds)
    obj = LambdaObjective(parse_combo("tpr:1,fpr:0.5"))
    calls = []
    build = ot._levels
    monkeypatch.setattr(ot, "_levels", lambda d1, d2: calls.append(1) or build(d1, d2))
    assert solve_exact(plan, ds, obj).evaluations > 2
    assert len(calls) == 2
    calls.clear()
    assert len(_sweep(plan, ds, obj, 101)[1]) == 101
    assert len(calls) == 2


def test_rates_move_monotonically_under_repair(rng):
    """At a fixed threshold, the group with the heavier lower tail sees its
    positive rate rise with lambda (and vice versa), up to atom-count noise."""
    ds = random_binary_dataset(rng, n_per_group=(400, 400))
    plan = fit_plan(ds)
    lams = np.linspace(0, 1, 11)
    taus = np.linspace(0.05, 0.95, 21)
    grid = ThresholdGrid(taus)
    n_min = min(ds.group_scores(g).size for g in ds.groups)
    curves = []
    for lam in lams:
        repaired = plan.with_lambdas({g: float(lam) for g in ds.groups}).apply(ds)
        c = rate_curve(repaired, PR, grid)
        curves.append((c.values["a"], c.values["b"]))
    base_a, base_b = curves[0]
    for j, tau in enumerate(taus):
        # positive rate = 1 - F(tau^-): the group with the higher CDF at tau
        # has the lower rate and should climb toward the barycenter
        sign = np.sign(base_b[j] - base_a[j])
        if sign == 0:
            continue
        # the lower-rate group's curve climbs toward the barycenter; 1/n noise
        lagging = np.array([ca[j] if sign > 0 else cb[j] for ca, cb in curves])
        assert np.all(np.diff(lagging) >= -1.0 / n_min - 1e-12)


# -- grid search ----------------------------------------------------------------


def test_grid_constant_objective_breaks_ties_low():
    ds = identical_groups()
    lams, vals, best = _sweep(fit_plan(ds), ds, PR_OBJ, 11)
    assert best == 0 and lams[best] == 0.0
    assert vals[best] == 0.0
    assert len(vals) == 11


def test_grid_two_steps_picks_better_endpoint():
    ds = make_dataset(BINARY)
    lams, _, best = _sweep(fit_plan(ds), ds, PR_OBJ, 2)
    assert lams[best] == 1.0  # full repair beats none for PR here


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_objective_rejects_bad_order(p):
    with pytest.raises(DatasetError, match="order p"):
        LambdaObjective(parse_combo("pr"), p)


def test_grid_rejects_bad_steps():
    ds = make_dataset(BINARY)
    with pytest.raises(DatasetError):
        _sweep(fit_plan(ds), ds, PR_OBJ, 1)


# -- slope bisection ----------------------------------------------------------------

_EPS = 2.0**-53  # unit roundoff


def _rounding_bound(path):
    """E, a bound on the rounding error of one objective evaluation.

    A moved atom (1 - lam) * z + lam * T takes at most 4 roundings of numbers
    in [0, 1], so a piece's difference u errs by at most 9 eps and |u|^p by at
    most 9 p eps (its derivative is at most p for |u| <= 1).  The power, the
    product with seg and a pairwise sum over N pieces add (log2 N + 3) eps to a
    seg-weighted sum of at most 1, and each term has its weight, so
    E = (9 p + log2 N + 3) eps sum(w).  The slope sums seg |u|^(p-1) sign(u) r
    with |r| <= 2 and r itself rounded 3 times, which at most doubles that
    count: its error is at most 2 E.
    """
    n = max(levels.seg.size for _, _, levels, _ in path.terms)
    return (9 * path.p + math.log2(n) + 3) * _EPS * sum(w for w, *_ in path.terms)


def _slope_cases(rng):
    """(path, objective) on untied and tied data, for several p and combos."""
    for ds in (random_binary_dataset(rng, n_per_group=(150, 190)), _tied_binary_dataset(rng, UNIT)):
        plan = fit_plan(ds)
        for combo in ("pr", "tpr", "tpr:1,fpr:0.5"):
            for p in (1.0, 1.5, 2.0, 3.0):
                obj = LambdaObjective(parse_combo(combo), p)
                yield _RepairPath(plan, ds, obj), obj


def test_slope_has_the_sign_of_the_objectives_change(rng):
    """p * slope(lam) is a subgradient of the convex objective f at lam.

    Convexity gives f(mu) >= f(lam) + g (mu - lam) for every g between the
    one-sided derivatives at lam, and the slope lies between them (at a kink of
    p = 1, sign(0) = 0 averages them).  So f rises to the right of lam when the
    slope is positive and to its left when it is negative.  Rounding allows 2 E
    for the two values and 2 p E |mu - lam| for the slope (see _rounding_bound).
    """
    lams = np.linspace(0.0, 1.0, 21)
    for path, obj in _slope_cases(rng):
        e = _rounding_bound(path)
        vals = np.array([path(lam) for lam in lams])
        for lam, v in zip(lams, vals):
            g = obj.p * path.slope(lam)
            assert np.all(vals >= v + g * (lams - lam) - 2 * e - 2 * obj.p * e * np.abs(lams - lam))


def test_slope_matches_central_difference_away_from_kinks(rng):
    """p * slope(lam) equals (f(lam + h) - f(lam - h)) / (2 h) where no piece's
    atom difference u changes sign on [lam - h, lam + h].

    There each piece's seg |u|^p is smooth in lam, u moving at its rate r, so
    Taylor's theorem bounds the central difference's error by h^2 / 6 times
    max |f'''| = sum of w seg |p (p - 1) (p - 2)| |r|^3 |u|^(p - 3) over the
    window (zero for p = 1 and 2).  Each value errs by at most E, so the
    quotient by E / h, and p * slope by 2 p E (see _rounding_bound).
    """
    h = 1e-5
    checked = 0
    for path, obj in _slope_cases(rng):
        p, e = obj.p, _rounding_bound(path)
        for lam in np.linspace(0.05, 0.95, 19):
            third, kink = 0.0, False
            for w, ((d1, t1), (d2, t2)), levels, rate in path.terms:
                u = (((1 - lam) * d1.atoms + lam * t1)[levels.i1]
                     - ((1 - lam) * d2.atoms + lam * t2)[levels.i2])
                moving = rate != 0
                lo, hi = np.abs(u[moving]) - np.abs(rate[moving]) * h, np.abs(u[moving]) + np.abs(rate[moving]) * h
                if np.any(lo <= 0):
                    kink = True
                    break
                reach = np.maximum(lo ** (p - 3), hi ** (p - 3))  # max of |u|^(p-3) on the window
                third += w * (levels.seg[moving] * np.abs(rate[moving]) ** 3 * reach).sum()
            if kink:
                continue
            central = (path(lam + h) - path(lam - h)) / (2 * h)
            bound = h**2 / 6 * abs(p * (p - 1) * (p - 2)) * third + e / h + 2 * p * e
            assert abs(p * path.slope(lam) - central) <= bound
            checked += 1
    assert checked >= 100


def test_exact_returns_the_smallest_minimizer_of_a_flat_stretch():
    """Scores on multiples of 1/8, two rows per group and label, so every
    number the search computes is exact.

    TPR keeps a = {0.375, 0.875} and b = {0.125, 0.25}.  The groups' barycenter
    takes T_a to 0.1875 and 0.625 and T_b to 0.4375 and 0.5, so on the two
    level pieces (seg 0.5 each) u = 0.25 - 0.5 lam and 0.625 - 0.5 lam, and
    f = 0.4375 - 0.5 lam up to lam = 0.5 and 0.1875 on [0.5, 1].  The smallest
    minimizer 0.5 is the first bisection point; the slope there is 0 (sign(0)
    = 0 on the first piece), so the bracket closes on it from the left and
    f(0.5) < f(0.5 - 2**-20) picks it.
    """
    ds = make_dataset({"a": [0.75, 0.875, 0.75, 0.375], "b": [0.0, 0.125, 0.25, 0.375]},
                      {"a": [0, 1, 0, 1], "b": [0, 1, 1, 0]})
    plan = fit_plan(ds)
    obj = LambdaObjective(parse_combo("tpr"))
    for lam in np.arange(65) / 64:  # dyadic, so f is exact there too
        assert objective_eval(plan, ds, obj, lam) == max(0.4375 - 0.5 * lam, 0.1875)
    sol = solve_exact(plan, ds, obj)
    assert (sol.lambda_star, sol.objective_value) == (0.5, 0.1875)


def test_exact_identical_groups_returns_zero_value():
    """Identical groups move their atoms to bit-identical places, so every u is
    0, the slope is 0 everywhere, the bracket closes on 0 and f(0) = 0."""
    ds = identical_groups()
    sol = solve_exact(fit_plan(ds), ds, PR_OBJ)
    assert (sol.lambda_star, sol.objective_value) == (0.0, 0.0)
    assert sol.evaluations == 22  # 20 halvings bring 1 below 1e-6, plus both ends


# Full repair zeroes the PR objective here: both groups have 3 rows, so at
# lam = 1 each level maps to the same barycenter atom.
SIX_ROWS = "score,group,label\n0.1,a,1\n0.2,a,0\n0.3,a,1\n0.6,b,1\n0.7,b,0\n0.9,b,1\n"


def test_cli_full_repair_is_lambda_one(tmp_path):
    """f(1) = 0 and f > 0 on [0, 1), so the slope is negative at every
    bisection point, the bracket ends at b = 1, and f(1) <= f(a) returns it:
    the plan's lambda is 1.0 and apply moves every score to T_g(x) =
    total_repair_score(g, x), bit for bit."""
    data, plan_path, out = tmp_path / "six.csv", tmp_path / "plan.json", tmp_path / "out.csv"
    data.write_text(SIX_ROWS)
    argv = ["fit", "--input", data, "--output", plan_path, "--solver", "exact", "--metric", "pr"]
    assert main([str(a) for a in argv]) == 0
    solution = json.loads((tmp_path / "plan.json.solution.json").read_text())
    assert (solution["lambda"], solution["objective"]) == (1.0, 0.0)
    assert main(["apply", "--input", str(data), "--plan", str(plan_path), "--output", str(out)]) == 0
    plan, before, after = load_plan(plan_path), load_csv(data, UNIT), load_csv(out, UNIT)
    assert set(plan.lambdas.values()) == {1.0}
    for g in plan.groups:
        assert np.array_equal(after.group_scores(g), plan.total_repair_score(g, before.group_scores(g)))


@pytest.mark.parametrize("p", ["2", "1e308"])
def test_cli_exact_takes_the_largest_weight_and_order(tmp_path, p):
    """With w = 1e308 the slope is w times a number in [-2, 2]: at most inf,
    never inf * 0, so its sign still steers the search and fit exits 0."""
    data = tmp_path / "six.csv"
    data.write_text(SIX_ROWS)
    argv = ["fit", "--input", data, "--output", tmp_path / "plan.json", "--solver", "exact",
            "--metric", "tpr:1e308", "--p", p]
    assert main([str(a) for a in argv]) == 0
    assert 0.0 <= json.loads((tmp_path / "plan.json.solution.json").read_text())["lambda"] <= 1.0


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_exact_rejects_bad_tol(tol):
    ds = make_dataset(BINARY)
    with pytest.raises(DatasetError, match="tol"):
        solve_exact(fit_plan(ds), ds, PR_OBJ, tol)


@pytest.mark.parametrize("tol, groups", [
    (1e-17, None),
    (1e-300, {"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]}),  # flat: the bracket shrinks toward 0
    (5e-324, {"A": [0.2, 0.4, 0.6], "B": [0.2, 0.4, 0.6]}),
], ids=["1e-17", "1e-300-flat", "subnormal-flat"])
def test_exact_terminates_for_tiny_tol(tol, groups):
    """A tol below float spacing still ends the search: the bracket stops once
    halving no longer narrows it.  That takes at most 1,075 halvings (1,074
    bring 1 down to 2**-1074, the smallest subnormal, and one more cannot
    narrow it), plus the two ends, well inside 30 s."""
    if groups:
        ds = make_dataset(groups, {g: [1, 1, 0] for g in groups})
    else:
        ds = random_binary_dataset(np.random.default_rng(5), n_per_group=(150, 200), label_offsets=(-0.15, 0.15))
    start = time.perf_counter()
    sol = solve_exact(fit_plan(ds), ds, LambdaObjective(parse_combo("tpr")), tol)
    assert time.perf_counter() - start < 30.0
    assert 0.0 <= sol.lambda_star <= 1.0 and sol.evaluations <= 2 + 1075


def test_exact_agrees_with_fine_grid(rng):
    ds = random_binary_dataset(rng, n_per_group=(200, 250), label_offsets=(-0.2, 0.2))
    plan = fit_plan(ds)
    obj = LambdaObjective(parse_combo("tpr"))
    lams, vals, best = _sweep(plan, ds, obj, 10001)
    sol = solve_exact(plan, ds, obj)
    assert abs(sol.lambda_star - lams[best]) <= 1e-3
    assert sol.objective_value <= vals[best] + 1e-6


def test_exact_endpoint_dominance_for_combo(rng):
    ds = random_binary_dataset(rng, n_per_group=(300, 300))
    plan = fit_plan(ds)
    obj = LambdaObjective(parse_combo("tpr:1,fpr:1"))
    sol = solve_exact(plan, ds, obj)
    v0 = objective_eval(plan, ds, obj, 0.0)
    v1 = objective_eval(plan, ds, obj, 1.0)
    assert sol.objective_value <= min(v0, v1) + 1e-6


# -- probabilistic -----------------------------------------------------------------


def test_probabilistic_matches_mean_ratio_oracle(rng):
    """Closed form vs independently computed conditional means and shifts."""
    ds = random_binary_dataset(rng, n_per_group=(150, 200), label_offsets=(-0.15, 0.15))
    plan = fit_plan(ds)
    sub = subset_by_label(ds, TPR)
    x1, x2 = sub.group_scores("a"), sub.group_scores("b")
    b1 = plan.total_repair_score("a", x1).mean() - x1.mean()
    b2 = plan.total_repair_score("b", x2).mean() - x2.mean()
    expected = (x2.mean() - x1.mean()) / (b1 - b2)
    sol = solve_probabilistic(plan, ds, TPR)
    assert 0.0 < expected < 1.0 and not sol.clamped
    assert sol.lambda_star == pytest.approx(expected, abs=1e-12)


def test_probabilistic_zeroes_the_conditional_mean_gap(rng):
    for _ in range(5):
        ds = random_binary_dataset(rng, n_per_group=(120, 150), label_offsets=(-0.1, 0.1))
        plan = fit_plan(ds)
        sol = solve_probabilistic(plan, ds, TPR)
        if sol.clamped:
            continue
        repaired = plan.with_lambdas({g: sol.lambda_star for g in plan.groups}).apply(ds)
        m = conditional_means(repaired, 1)  # TPR conditions on label 1
        assert abs(m[0] - m[1]) <= 1e-10


def test_probabilistic_zero_denominator_errors():
    ds = identical_groups()
    with pytest.raises(SolverError, match="equally shifted"):
        solve_probabilistic(fit_plan(ds), ds, TPR)


def test_probabilistic_degeneracy_test_is_unit_free(rng):
    """Scaling the scores and the domain by 1e-12 leaves lambda unchanged."""
    tiny = ScoreDomain(0.0, 1e-12)

    def scaled(ds):
        groups = [ds.groups[i] for i in ds.group_indices]
        return validate_dataset(zip(ds.scores * 1e-12, groups, ds.labels), tiny)

    ds = random_binary_dataset(rng, n_per_group=(150, 200), label_offsets=(-0.15, 0.15))
    small = scaled(ds)
    want = solve_probabilistic(fit_plan(ds), ds, TPR)
    got = solve_probabilistic(fit_plan(small), small, TPR)
    assert got.clamped == want.clamped
    assert got.lambda_star == pytest.approx(want.lambda_star, abs=1e-9)
    for same in (identical_groups(), scaled(identical_groups())):
        with pytest.raises(SolverError, match="equally shifted"):
            solve_probabilistic(fit_plan(same), same, TPR)


def test_probabilistic_clamps_out_of_range_lambda():
    # near-identical unconditional distributions (tiny shifts) but opposite
    # label tilts: the raw ratio blows past 1 and must clamp with a flag
    a_scores = [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80]
    b_scores = [0.12, 0.22, 0.32, 0.42, 0.52, 0.62, 0.72, 0.82]
    ds = make_dataset(
        {"A": a_scores, "B": b_scores},
        {"A": [1, 1, 1, 1, 0, 0, 0, 0], "B": [0, 0, 0, 0, 1, 1, 1, 1]},
    )
    plan = fit_plan(ds)
    sol = solve_probabilistic(plan, ds, TPR)
    assert sol.clamped
    assert sol.lambda_star in (0.0, 1.0)
    prob = build_problem(plan, ds, TPR)
    a, b = prob.base_means, prob.mean_shifts
    assert abs((a[1] - a[0]) / (b[0] - b[1])) > 1.0  # the unclamped closed form


def test_solver_agreement_across_splits(rng):
    """Exact and closed-form lambdas stay close across random splits, and
    both recover most of the disparity reduction a fine grid finds."""
    from fairrepair import split

    ds = random_binary_dataset(rng, n_per_group=(900, 900), label_offsets=(-0.2, 0.2))
    obj = LambdaObjective(parse_combo("tpr"))
    for seed in range(10):
        labeled, _ = split(ds, 0.5, seed)
        plan = fit_plan(labeled)
        exact = solve_exact(plan, labeled, obj)
        prob = solve_probabilistic(plan, labeled, TPR)
        assert abs(exact.lambda_star - prob.lambda_star) <= 0.15
        _, vals, best = _sweep(plan, labeled, obj, 1001)
        v0 = objective_eval(plan, labeled, obj, 0.0)
        best_reduction = v0 - vals[best]
        assert best_reduction > 0
        for sol in (exact, prob):
            assert (v0 - sol.objective_value) >= 0.8 * best_reduction


def test_solution_json_fields():
    ds = make_dataset(BINARY)
    sol = solve_exact(fit_plan(ds), ds, PR_OBJ)
    payload = sol.to_dict()
    assert set(payload) == {"lambda", "method", "objective", "clamped", "evaluations"}
    assert payload["method"] == "exact"


def test_sweep_memory_per_row():
    """tracemalloc peaks per row of a 101-step _sweep (TPR) at 2e5 rows in two
    equal groups, about half of them labeled 1, after a warm-up call, as in
    test_solve_exact_memory_per_row.

    Per label-1 row the path keeps each group's atoms, counts, levels and full
    repair T (32 B), and each piece's width, two atom indices and rate (32 B, about
    one piece per label-1 row): 64 B.  An evaluation holds both groups' moved
    atoms (8 B) and, in wasserstein, two more values per piece (16 B): the
    gathered atoms while numpy subtracts into the first, then the difference and
    its absolute value, or that and its p-th power.  That is 88 B per label-1 row,
    44 B a row, and the 46 B bound leaves less room than one more 8-byte value
    per label-1 row (4 B), such as a kept copy of the pieces' widths.
    """
    n = 200_000
    ds = two_equal_groups(n)
    plan, obj = fit_plan(ds), LambdaObjective(parse_combo("tpr"))
    _sweep(plan, ds, obj, 101)
    assert traced_peak(lambda: _sweep(plan, ds, obj, 101)) / n <= 46


def test_solve_exact_memory_per_row():
    """tracemalloc peaks per row of solve_exact at 2e5 rows in two equal groups,
    about half of them labeled 1, after a warm-up call: that builds the
    full-repair table and loads the modules numpy imports on first use.

    Under Y=1 a group keeps about n/4 rows, and the merged level partition has
    about n/2 pieces.  The path keeps each group's atoms, counts, levels and
    full repair T (32 B per its row, 16 B a row) and each piece's width, two
    atom indices and rate (32 B per piece, 16 B a row): 32 B.  A slope then
    holds three 8-byte values per piece (12 B): the two groups' moved atoms
    while it forms their difference u, and later u, |u|^(p-1) and sign(u),
    where numpy multiplies into the temporaries in place, as it does for arrays
    this large.  That is 44 B, and the 46 B bound leaves less room than one
    more 8-byte value per piece (4 B), such as a kept copy of u.
    """
    n = 200_000
    ds = two_equal_groups(n)
    plan, obj = fit_plan(ds), LambdaObjective(parse_combo("tpr"))
    solve_exact(plan, ds, obj)
    assert traced_peak(lambda: solve_exact(plan, ds, obj)) / n <= 46
