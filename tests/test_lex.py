import itertools

import numpy as np
import pytest

from fairrepair import (
    FPR,
    PR,
    TPR,
    DatasetError,
    ScoreDomain,
    ScoredDataset,
    bundled_spec,
    build_problem,
    fit_plan,
    sample,
    solve_lexicographic,
    solve_maxmin,
    solve_probabilistic,
    split,
    subset_by_label,
    validate_dataset,
)
from fairrepair.lex import LexProblem
from fairrepair.lp import linprog

import rational
from conftest import conditional_means, make_dataset, random_binary_dataset


def synthetic_problem(a, b, groups=None):
    """LexProblem straight from affine coefficients (no dataset needed)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    groups = tuple(groups or (f"g{i}" for i in range(a.size)))
    return LexProblem(groups, a, b)


def brute_force_losses(a, b, levels=41):
    """All losses over the lambda grid; shape (levels,)*n + (n,)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    grid = np.linspace(0.0, 1.0, levels)
    lam = np.meshgrid(*([grid] * n), indexing="ij")
    m = np.stack([a[i] + lam[i] * b[i] for i in range(n)], axis=-1)
    return np.abs(m[..., :, None] - m[..., None, :]).sum(axis=-1), grid


# -- problem construction -------------------------------------------------------


def test_build_problem_matches_direct_means(rng):
    ds = random_binary_dataset(rng, n_per_group=(60, 80))
    plan = fit_plan(ds)
    for kind in (PR, TPR, FPR):
        prob = build_problem(plan, ds, kind)
        sub = subset_by_label(ds, kind)
        for i, g in enumerate(prob.groups):
            x = sub.group_scores(g)
            assert prob.base_means[i] == pytest.approx(x.mean())
            assert prob.mean_shifts[i] == pytest.approx(plan.total_repair_score(g, x).mean() - x.mean())


def test_build_problem_conditional_means():
    ds = make_dataset({"A": [0.2, 0.4, 0.9], "B": [0.5, 0.7, 0.1]},
                      {"A": [1, 1, 0], "B": [1, 1, 0]})
    plan = fit_plan(ds)
    prob = build_problem(plan, ds, TPR)
    assert prob.base_means == pytest.approx([0.3, 0.6])  # the label-1 rows only
    xa, xb = np.array([0.2, 0.4]), np.array([0.5, 0.7])
    assert prob.mean_shifts == pytest.approx([(plan.total_repair_score("A", xa) - xa).mean(),
                                              (plan.total_repair_score("B", xb) - xb).mean()])


def test_build_problem_needs_two_groups():
    plan = fit_plan(make_dataset({"A": [0.2, 0.4], "B": [0.1, 0.3]}))
    with pytest.raises(DatasetError, match="need at least 2 groups"):
        build_problem(plan, make_dataset({"A": [0.2, 0.4]}), PR)


def test_build_problem_identical_groups_equal_means():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.2, 0.4]})
    prob = build_problem(fit_plan(ds), ds, PR)
    assert prob.base_means[0] == prob.base_means[1]
    assert prob.mean_shifts[0] == prob.mean_shifts[1]


def test_build_problem_identical_groups_zero_loss():
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.2, 0.4]})
    prob = build_problem(fit_plan(ds), ds, PR)
    assert prob.losses(np.zeros(2)).tolist() == [0.0, 0.0]
    assert prob.losses(np.ones(2)).tolist() == [0.0, 0.0]


def test_build_problem_pairwise_gaps_antisymmetric(rng):
    """m_a - m_b = -(m_b - m_a) for every ordered pair, so L_g sums a row or a column alike."""
    ds = random_binary_dataset(rng)
    plan = fit_plan(ds)
    for kind in (PR, TPR, FPR):
        prob = build_problem(plan, ds, kind)
        for lam in (np.zeros(prob.n), rng.random(prob.n)):
            m = prob.base_means + lam * prob.mean_shifts
            gaps = m[:, None] - m[None, :]
            assert np.array_equal(gaps, -gaps.T)
            assert prob.losses(lam) == pytest.approx(np.abs(gaps).sum(axis=0))


def test_build_problem_three_group_loss_sum():
    # means 0.3, 0.6, 0.5 -> L_A = |0.3-0.6| + |0.3-0.5| = 0.5
    ds = make_dataset({"A": [0.2, 0.4], "B": [0.5, 0.7], "C": [0.4, 0.6]})
    losses = build_problem(fit_plan(ds), ds, PR).losses(np.zeros(3))
    assert losses == pytest.approx([0.5, 0.3 + 0.1, 0.2 + 0.1])


def test_build_problem_means_in_normalized_units():
    ds = make_dataset({"A": [20.0, 40.0], "B": [50.0, 70.0]}, domain=ScoreDomain(0.0, 100.0))
    prob = build_problem(fit_plan(ds), ds, PR)
    assert prob.base_means == pytest.approx([0.3, 0.6])
    assert prob.mean_shifts == pytest.approx([0.15, -0.15])  # onto the barycenter {0.35, 0.55}
    assert prob.losses(np.zeros(2)) == pytest.approx([0.3, 0.3])


@pytest.mark.parametrize("domain", [ScoreDomain(0.0, 100.0), ScoreDomain(-3.0, 5.0), ScoreDomain(-1e10, 1e10)],
                         ids=lambda d: f"{d.lo:g}:{d.hi:g}")
def test_mean_model_has_one_unit(domain):
    """A seeded 4-group dataset and its copy rescaled by ``normalize`` onto
    0:1 give bit-identical means, shifts and lex lambdas: the mean model
    reads normalized scores, as the plan and the binary solvers do."""
    rng = np.random.default_rng(36)
    groups = np.repeat(list("abcd"), [30, 40, 50, 60]).tolist()
    u = np.concatenate([rng.beta(2, 5 - k, n) for k, n in enumerate([30, 40, 50, 60])])
    scores, labels = np.clip(domain.lo + u * domain.width, domain.lo, domain.hi), (rng.random(u.size) < u).astype(int)
    wide = ScoredDataset(scores, groups, labels, domain)
    unit = ScoredDataset(domain.normalize(scores), groups, labels, ScoreDomain(0.0, 1.0))
    probs = [build_problem(fit_plan(ds), ds, TPR) for ds in (wide, unit)]
    assert np.array_equal(probs[0].base_means, probs[1].base_means)
    assert np.array_equal(probs[0].mean_shifts, probs[1].mean_shifts)
    assert solve_lexicographic(probs[0]).lambdas == solve_lexicographic(probs[1]).lambdas


def test_affine_mean_model_matches_applied_scores(rng):
    """Predicted means track the recomputed conditional means of applied data."""
    ds = random_binary_dataset(rng, n_per_group=(150, 200))
    plan = fit_plan(ds)
    prob = build_problem(plan, ds, TPR)
    from fairrepair import subset_by_label

    for _ in range(20):
        lam = rng.random(prob.n)
        plan_l = plan.with_lambdas({g: float(l) for g, l in zip(prob.groups, lam)})
        sub = subset_by_label(plan_l.apply(ds), TPR)
        for i, g in enumerate(prob.groups):
            predicted = prob.base_means[i] + lam[i] * prob.mean_shifts[i]
            assert abs(predicted - sub.group_scores(g).mean()) <= 1e-10


def test_frozen_shifts_give_constant_loss():
    prob = synthetic_problem([0.3, 0.5, 0.6], [0.0, 0.0, 0.0])
    sol = solve_lexicographic(prob)
    assert all(v == 0.0 for v in sol.lambdas.values())  # nothing movable


def test_lp_size_per_round(monkeypatch):
    """Round k of an n-group solve has 2*C(n,2) + k*n + (k-1) + n rows (the u
    rows, k blocks of n excess rows, one bound per earlier round, and the n
    bounds lambda_g <= 1) over n + C(n,2) + k*(n+1) columns (lambdas, u, k
    blocks of t_j and v_j)."""
    import fairrepair.lex as lex

    shapes = []

    def recording_linprog(c, A_ub, b_ub):
        shapes.append(A_ub.shape)
        return linprog(c, A_ub, b_ub)

    monkeypatch.setattr(lex, "linprog", recording_linprog)
    solve_lexicographic(synthetic_problem([0.3, 0.5, 0.6, 0.9], [0.2, 0.0, -0.1, -0.3]))
    assert shapes == [(20, 15), (25, 20), (30, 25), (35, 30)]


def test_thirteen_groups_accepted():
    groups = {f"g{i:02d}": [0.1 + 0.01 * i, 0.2 + 0.01 * i] for i in range(13)}
    ds = make_dataset(groups, dict.fromkeys(groups, [1, 1]))
    prob = build_problem(fit_plan(ds), ds, TPR)
    assert prob.n == 13


def problem_scale(prob):
    """s = ptp(a) + max|b|, or 1 when that is 0: the unit each round LP is solved in."""
    return float(np.ptp(prob.base_means) + np.max(np.abs(prob.mean_shifts))) or 1.0


def subset_round_optimum(prob, k, inherited):
    """Round k's optimum through the subset encoding, solved by HiGHS.

    Variables: lambdas, u per pair, a free t and v_g >= L_g - t; each earlier
    round j bounds the summed loss of every subset of j groups by eps_j.  The
    lambdas cost eps_stab * s: the round LP's pull, in score units.
    """
    optimize = pytest.importorskip("scipy.optimize")
    n = prob.n
    pairs = list(itertools.combinations(range(n), 2))
    ncols = n + len(pairs) + 1 + n
    rows, rhs = [], []
    loss = np.zeros((n, ncols))
    for p, (i, j) in enumerate(pairs):
        for sign in (1.0, -1.0):  # sign * (m_i - m_j) <= u_ij
            row = np.zeros(ncols)
            row[i], row[j], row[n + p] = sign * prob.mean_shifts[i], -sign * prob.mean_shifts[j], -1.0
            rows.append(row)
            rhs.append(-sign * (prob.base_means[i] - prob.base_means[j]))
        loss[[i, j], n + p] = 1.0
    for g in range(n):  # L_g - t - v_g <= 0
        rows.append(loss[g] - np.eye(ncols)[n + len(pairs)] - np.eye(ncols)[ncols - n + g])
        rhs.append(0.0)
    for j, eps in enumerate(inherited, start=1):
        for subset in itertools.combinations(range(n), j):
            rows.append(loss[list(subset)].sum(axis=0))
            rhs.append(eps)
    pull = prob.eps_stab * problem_scale(prob)
    cost = np.concatenate([np.full(n, pull), np.zeros(len(pairs)), [float(k)], np.ones(n)])
    bounds = [(0, 1)] * n + [(0, None)] * len(pairs) + [(None, None)] + [(0, None)] * n
    # HiGHS's default 1e-7 feasibility tolerances can stop it 3e-8 short of the optimum.
    res = optimize.linprog(cost, np.array(rows), rhs, bounds=bounds, method="highs",
                           options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


def test_round_optima_match_subset_encoding(rng):
    """Each round's optimum (its epsilon plus the stabilization pull) equals
    the HiGHS optimum of the same round in the explicit subset encoding."""
    for n in range(3, 8):
        prob = synthetic_problem(rng.random(n), rng.normal(scale=0.3, size=n))
        sol = solve_lexicographic(prob)
        for k, rnd in enumerate(sol.rounds, start=1):
            ours = rnd["epsilon"] + prob.eps_stab * problem_scale(prob) * sum(rnd["lambdas"].values())
            assert ours == pytest.approx(subset_round_optimum(prob, k, sol.epsilons[:k - 1]), abs=1e-9)


@pytest.mark.parametrize("offset", [0.0, 1e10])
def test_lex_epsilons_are_the_candidate_profile(offset):
    """Each epsilon_k is the top-k sum of the exact least clip-form profile
    (rational.lex_candidate_profile), to 1e-9 of the problem's scale, on seeded
    2-7-group problems, a third of them with a tied pair of groups, with and
    without a common offset of 1e10 in a.  With the pair gaps formed after
    scaling, the offset rounded them relative to 1e10, and most of the offset
    solves ended in "LP is infeasible"."""
    rng = np.random.default_rng(33)
    for case in range(30):
        n = int(rng.integers(2, 8))
        a, b = rng.random(n) + offset, rng.normal(scale=0.3, size=n)
        if case % 3 == 1:
            a[1], b[1] = a[0], b[0]
        prob = synthetic_problem(a, b)
        profile = np.cumsum([float(v) for v in rational.lex_candidate_profile(a, b)])
        assert solve_lexicographic(prob).epsilons == pytest.approx(profile, abs=1e-9 * problem_scale(prob)), case


# -- max-min ---------------------------------------------------------------------


def test_maxmin_identical_groups():
    prob = synthetic_problem([0.5, 0.5, 0.5], [0.1, -0.1, 0.0])
    sol = solve_maxmin(prob)
    assert sol.epsilons[0] == pytest.approx(0.0, abs=1e-9)
    assert all(abs(v) <= 1e-6 for v in sol.lambdas.values())  # tie-break at 0


def test_maxmin_three_group_grid_oracle():
    a, b = [0.3, 0.5, 0.7], [0.2, 0.0, -0.2]
    prob = synthetic_problem(a, b)
    sol = solve_maxmin(prob)
    losses, grid = brute_force_losses(a, b)
    oracle = losses.max(axis=-1).min()
    assert sol.epsilons[0] <= oracle + 1e-3
    best = np.unravel_index(np.argmin(losses.max(axis=-1)), losses.shape[:-1])
    lam_star = np.array([grid[i] for i in best])
    # grid resolution is 1/40
    assert np.max(np.abs(np.array([sol.lambdas[g] for g in prob.groups]) - lam_star)) <= 2.5e-2


def test_maxmin_random_instances_beat_grid(rng):
    for _ in range(10):
        a = rng.random(3)
        b = rng.normal(scale=0.3, size=3)
        prob = synthetic_problem(a, b)
        sol = solve_maxmin(prob)
        losses, _ = brute_force_losses(a, b, levels=31)
        assert sol.epsilons[0] <= losses.max(axis=-1).min() + 1e-6


def test_binary_maxmin_matches_probabilistic_optimum(rng):
    """With 2 groups both loss components equal |m_a - m_b|; when the shared-
    lambda closed form is interior, per-group lambdas can do at least as well."""
    ds = random_binary_dataset(rng, n_per_group=(200, 250), label_offsets=(-0.2, 0.2))
    plan = fit_plan(ds)
    prob = build_problem(plan, ds, TPR)
    sol = solve_maxmin(prob)
    p = solve_probabilistic(plan, ds, TPR)
    if not p.clamped:
        lam = p.lambda_star
        shared = prob.losses(np.array([lam, lam]))
        assert sol.epsilons[0] <= shared.max() + 1e-9
        assert sol.epsilons[0] == pytest.approx(0.0, abs=1e-9)
    # both groups end with equal parity losses
    vals = list(sol.losses.values())
    assert vals[0] == pytest.approx(vals[1], abs=1e-9)


# -- lexicographic ------------------------------------------------------------------


def test_lex_binary_collapses_to_maxmin(rng):
    ds = random_binary_dataset(rng, n_per_group=(100, 120))
    plan = fit_plan(ds)
    prob = build_problem(plan, ds, TPR)
    mm = solve_maxmin(prob)
    lx = solve_lexicographic(prob)
    assert lx.epsilons[0] == pytest.approx(mm.epsilons[0], abs=1e-9)
    assert len(lx.epsilons) == 2


def test_lex_identical_groups_all_zero():
    prob = synthetic_problem([0.4, 0.4, 0.4, 0.4], [0.1, 0.2, -0.1, 0.0])
    sol = solve_lexicographic(prob)
    assert np.allclose(sol.epsilons, 0.0, atol=1e-9)


def test_lex_three_group_round_oracle():
    """Round-by-round LP optima against the 41^3 exhaustive grid."""
    a, b = [0.3, 0.5, 0.7], [0.2, 0.0, -0.2]
    prob = synthetic_problem(a, b)
    sol = solve_lexicographic(prob)
    losses, _ = brute_force_losses(a, b)

    # round 1: max loss
    feas = np.ones(losses.shape[:-1], dtype=bool)
    for k in range(3):
        k_sum = np.sort(losses, axis=-1)[..., ::-1][..., : k + 1].sum(axis=-1)
        oracle_k = k_sum[feas].min()
        assert sol.epsilons[k] <= oracle_k + 1e-3
        # inherit the constraint for the next round
        for size in range(1, k + 2):
            size_sum = np.sort(losses, axis=-1)[..., ::-1][..., :size].sum(axis=-1)
            feas &= size_sum <= sol.epsilons[size - 1] + 1e-9


def test_lex_profile_dominates_maxmin(rng):
    """Sorted-descending lex losses never exceed the max-min profile
    lexicographically."""
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.random(n)
        b = rng.normal(scale=0.3, size=n)
        prob = synthetic_problem(a, b)
        mm = np.sort(list(solve_maxmin(prob).losses.values()))[::-1]
        lx = np.sort(list(solve_lexicographic(prob).losses.values()))[::-1]
        for m, l in zip(mm, lx):
            if abs(m - l) > 1e-6:
                assert l < m
                break


def test_lex_round_monotonicity(rng):
    """Earlier-round bounds stay respected at the end."""
    for _ in range(10):
        n = int(rng.integers(3, 5))
        a = rng.random(n)
        b = rng.normal(scale=0.25, size=n)
        prob = synthetic_problem(a, b)
        sol = solve_lexicographic(prob)
        final = np.sort(list(sol.losses.values()))[::-1]
        for k in range(1, n + 1):
            assert final[:k].sum() <= sol.epsilons[k - 1] + 1e-9


def test_lex_three_group_keeps_the_maxmin_optimum():
    """The worst lex loss is max-min's epsilon_1.  A 1e-4 slack on the
    inherited bounds once let it reach 0.1951 here, against 0.195."""
    prob = synthetic_problem([0.87, 0.63, 0.81], [0.37, 0.11, -0.26])
    eps1 = solve_maxmin(prob).epsilons[0]
    assert eps1 == pytest.approx(0.195, abs=1e-12)
    assert max(solve_lexicographic(prob).losses.values()) == pytest.approx(eps1, abs=1e-9 * problem_scale(prob))


@pytest.mark.parametrize("exponent", [-6, -3, 0, 3, 7, 12])
def test_lex_keeps_every_bound_at_any_scale(exponent):
    """Seeded 3-9-group problems of width 10^exponent, a third with a tied
    pair of groups and a third with a common offset of 1e3 widths in a: the
    solve raises no SolverError, the final losses keep every epsilon_j, and the
    worst loss is max-min's epsilon_1, each to 1e-9 of the problem's scale.
    With a slack of 1e-4 score units on the inherited bounds, narrow problems
    broke the bounds and wide ones ended in an infeasible LP."""
    width = 10.0 ** exponent
    rng = np.random.default_rng(exponent + 6)
    for case in range(6):
        n = int(rng.integers(3, 10))
        a, b = rng.random(n) * width, rng.normal(scale=0.3, size=n) * width
        if case % 3 == 1:
            a[1], b[1] = a[0], b[0]
        if case % 3 == 2:
            a += 1e3 * width
        prob = synthetic_problem(a, b)
        tol = 1e-9 * problem_scale(prob)
        lex, mm = solve_lexicographic(prob), solve_maxmin(prob)
        final = np.sort(list(lex.losses.values()))[::-1]
        assert np.all(np.cumsum(final) <= np.array(lex.epsilons) + tol), (case, n)
        assert final[0] == pytest.approx(mm.epsilons[0], abs=tol), (case, n)


@pytest.mark.parametrize("k", [-6, -3, 3, 7, 10])
def test_lex_lambdas_do_not_depend_on_the_units(k):
    """A bundled-spec labeled split with its scores and domain scaled by 10^k
    gets the unscaled split's lex lambdas (FPR) to 1e-12.  With the slack in
    score units they moved by up to 0.28 at k = -6."""
    labeled, _ = split(sample(bundled_spec(), 8000, seed=1), 0.5, seed=1)
    factor = 10.0 ** k
    scaled = validate_dataset(zip(labeled.scores * factor, [labeled.groups[i] for i in labeled.group_indices],
                                  labeled.labels),
                              ScoreDomain(labeled.domain.lo * factor, labeled.domain.hi * factor))
    want = solve_lexicographic(build_problem(fit_plan(labeled), labeled, FPR)).lambdas
    got = solve_lexicographic(build_problem(fit_plan(scaled), scaled, FPR)).lambdas
    assert got.keys() == want.keys()
    assert max(abs(got[g] - want[g]) for g in want) <= 1e-12


def test_lex_trace_structure():
    prob = synthetic_problem([0.3, 0.5, 0.7], [0.2, 0.0, -0.2])
    sol = solve_lexicographic(prob)
    assert [r["round"] for r in sol.rounds] == [1, 2, 3]
    assert len(sol.epsilons) == 3
    payload = sol.to_dict()
    assert set(payload) == {"method", "lambdas", "epsilons", "losses", "rounds"}
    assert (sol.lambdas, sol.losses) == (sol.rounds[-1]["lambdas"], sol.rounds[-1]["losses"])


def test_table_pattern_on_bundled_spec():
    """Per-group ordering lex <= maxmin <= unrepaired, full repair within 2x
    of unrepaired, on the bundled 4-group spec."""
    spec = bundled_spec()
    ds = sample(spec, 8000, seed=1)
    labeled, _ = split(ds, 0.5, seed=1)
    plan = fit_plan(labeled)
    prob = build_problem(plan, labeled, TPR)
    unrep = prob.losses(np.zeros(prob.n))
    full = prob.losses(np.ones(prob.n))
    mm = prob.losses([solve_maxmin(prob).lambdas[g] for g in prob.groups])
    lex = solve_lexicographic(prob)
    lx = prob.losses([lex.lambdas[g] for g in prob.groups])
    assert np.all(lx <= mm + 1e-3)
    assert np.all(mm <= unrep + 1e-3)
    assert np.all(full <= 2.0 * unrep) and np.all(full >= 0.5 * unrep)
    # the model's losses agree with L_g recomputed from the repaired rows
    m = conditional_means(plan.with_lambdas(lex.lambdas).apply(labeled), 1)
    assert np.abs(m[:, None] - m[None, :]).sum(axis=1) == pytest.approx(lx, abs=1e-8)
