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
    solve_grid,
    solve_probabilistic,
    subset_by_label,
    validate_dataset,
    wasserstein,
)
from fairrepair import ot
from fairrepair.solver import _sweep

from conftest import UNIT, conditional_means, make_dataset, random_binary_dataset

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
    """objective_eval and solve_grid agree bitwise with a per-lambda rebuild."""
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
            sol = solve_grid(plan, ds, obj, steps=3)
            assert sol.objective_value == min(ref)
            assert sol.lambda_star == 0.5 * ref.index(min(ref))


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
    sol = solve_grid(fit_plan(ds), ds, PR_OBJ, steps=11)
    assert sol.lambda_star == 0.0
    assert sol.objective_value == 0.0
    assert sol.evaluations == 11


def test_grid_two_steps_picks_better_endpoint():
    ds = make_dataset(BINARY)
    sol = solve_grid(fit_plan(ds), ds, PR_OBJ, steps=2)
    assert sol.lambda_star == 1.0  # full repair beats none for PR here


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_objective_rejects_bad_order(p):
    with pytest.raises(DatasetError, match="order p"):
        LambdaObjective(parse_combo("pr"), p)


def test_grid_rejects_bad_steps():
    ds = make_dataset(BINARY)
    with pytest.raises(DatasetError):
        solve_grid(fit_plan(ds), ds, PR_OBJ, steps=1)


# -- golden section ---------------------------------------------------------------


def test_exact_identical_groups_returns_zero_value():
    ds = identical_groups()
    sol = solve_exact(fit_plan(ds), ds, PR_OBJ)
    assert sol.objective_value == pytest.approx(0.0, abs=1e-15)
    assert 0.0 <= sol.lambda_star <= 1e-5  # flat objective resolves low


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_exact_rejects_bad_tol(tol):
    ds = make_dataset(BINARY)
    with pytest.raises(DatasetError, match="tol"):
        solve_exact(fit_plan(ds), ds, PR_OBJ, tol)


def test_exact_agrees_with_fine_grid(rng):
    ds = random_binary_dataset(rng, n_per_group=(200, 250), label_offsets=(-0.2, 0.2))
    plan = fit_plan(ds)
    obj = LambdaObjective(parse_combo("tpr"))
    fine = solve_grid(plan, ds, obj, steps=10001)
    sol = solve_exact(plan, ds, obj)
    assert abs(sol.lambda_star - fine.lambda_star) <= 1e-3
    assert sol.objective_value <= fine.objective_value + 1e-6


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
        fine = solve_grid(plan, labeled, obj, steps=1001)
        v0 = objective_eval(plan, labeled, obj, 0.0)
        best_reduction = v0 - fine.objective_value
        assert best_reduction > 0
        for sol in (exact, prob):
            assert (v0 - sol.objective_value) >= 0.8 * best_reduction


def test_solution_json_fields():
    ds = make_dataset(BINARY)
    sol = solve_grid(fit_plan(ds), ds, PR_OBJ, steps=11)
    payload = sol.to_dict()
    assert set(payload) == {"lambda", "method", "objective", "clamped", "evaluations"}
    assert payload["method"] == "grid"
