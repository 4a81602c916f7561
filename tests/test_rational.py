"""The paper's quantities against the exact rational oracle in ``rational.py``.

Each bound below is derived from the float operations the code performs, with
eps = 2**-53 the unit roundoff, and first-order in eps (the allowances carry a
spare eps or more for the second-order terms).  The data sit on a lattice of
the domain, 9 points when tied and 10**6 + 1 points when not, so distinct
scores lie at least width / 10**6 apart.  Normalizing a score z = (x - lo) /
width then errs by at most 3 eps (three roundings of numbers in [0, 1]), and
being monotone and far finer than the lattice, it keeps every order and tie.
So each CDF, level lookup and merged partition the code builds is the exact
one; only the values on it round.
"""

from fractions import Fraction

import numpy as np
import pytest

from fairrepair import (FPR, PR, TPR, LambdaObjective, ScoreDomain, distributional_disparity, fit_plan,
                        objective_eval, parse_combo, solve_exact)

import rational
from conftest import make_dataset

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = dict(deadline=None, database=None, max_examples=40)
EPS = Fraction(1, 2**53)
DOMAINS = [ScoreDomain(0.0, 1.0), ScoreDomain(0.0, 100.0), ScoreDomain(-3.0, 7.5)]
COMBOS = ["pr", "tpr", "tpr:1,fpr:0.5"]


@st.composite
def lattice_data(draw, max_groups=2):
    """(domain, {group: scores}, {group: labels}): 4 to 8 rows per group, each
    with at least two rows of either label."""
    domain = draw(st.sampled_from(DOMAINS))
    steps = 8 if draw(st.booleans()) else 10**6
    sizes = [draw(st.integers(4, 8)) for _ in range(draw(st.integers(2, max_groups)))]
    ks = draw(st.lists(st.integers(0, steps), min_size=sum(sizes), max_size=sum(sizes), unique=steps > 8))
    scores, labels = {}, {}
    for g, n in enumerate(sizes):
        cut = sum(sizes[:g])
        scores[f"g{g}"] = [min(domain.hi, domain.lo + domain.width * k / steps) for k in ks[cut:cut + n]]
        labels[f"g{g}"] = [1, 1, 0, 0] + draw(st.lists(st.integers(0, 1), min_size=n - 4, max_size=n - 4))
    return domain, scores, labels


def exact_samples(domain, scores, labels, condition=None):
    """Each group's normalized scores under the label condition, as Fractions."""
    return [rational.normalize([x for x, y in zip(scores[g], labels[g]) if condition in (None, y)],
                               domain.lo, domain.hi) for g in scores]


def exact_terms(domain, scores, labels, combo):
    """``rational.binary_objective``'s terms: each conditional point with its full
    repair under the plan fitted on every row of its group."""
    fitted = exact_samples(domain, scores, labels)
    terms = []
    for kind, w in combo.terms:
        if w != 0.0:
            pair = [(s, [rational.transport(fitted, g, z) for z in s])
                    for g, s in enumerate(exact_samples(domain, scores, labels, kind.label_condition))]
            terms.append((w, *pair))
    return terms


def objective_bound(combo, p, rows):
    """E, the rounding bound on one objective evaluation with 2 groups and K <= rows pieces.

    The table value T = Q_bary(b) sums G = 2 products w_h * z_h: the weight and
    atom carry eps and 3 eps, the product and the G - 1 additions one each, so
    it errs by (G + 4) eps relative.  A moved atom (1 - lam) z + lam T adds the
    subtraction 1 - lam, two products and a sum: (G + 6) eps.  A piece's
    difference u then errs by (2 G + 13) eps, and |u|^p, |u| <= 1, by p times
    that plus 2 eps for the power.  Each level k / n rounds once, so a piece
    width errs by at most 3 eps; its product with |u|^p adds one eps and the
    sum of K terms K - 1.  Per term, with sum(seg) = 1:
    (p (2 G + 13) + 2 + 3 K + 1 + K - 1) eps; weighting and adding the terms
    costs 2 eps more.  So E = (17 p + 4 K + 4) eps sum(w).
    """
    return (17 * p + 4 * rows + 4) * EPS * Fraction(sum(w for _, w in combo.terms))


@hypothesis.settings(**SETTINGS)
@hypothesis.given(lattice_data(max_groups=3))
def test_total_repair_score_is_the_exact_transport(data):
    """At every score of every group and at both ends of the domain, T_g agrees
    with lo + width * Q_bary(F_g(z)) to ((G + 7) width + max(|lo|, |hi|)) eps.

    The table value errs by (G + 4) eps in normalized units (see
    objective_bound).  Denormalizing, lo + t * width, rounds the width, the
    product and the sum: 2 eps of width more and eps of the result, which is
    at most max(|lo|, |hi|).  The clips only move toward the exact value.
    """
    domain, scores, labels = data
    plan = fit_plan(make_dataset(scores, labels, domain))
    fitted = exact_samples(domain, scores, labels)
    points = [domain.lo, domain.hi, *(x for s in scores.values() for x in s)]
    lo, width = Fraction(domain.lo), Fraction(domain.width)
    bound = ((len(scores) + 7) * width + max(abs(lo), abs(Fraction(domain.hi)))) * EPS
    for g, name in enumerate(scores):
        got = plan.total_repair_score(name, np.array(points))
        for x, y in zip(points, got.tolist()):
            want = lo + width * rational.transport(fitted, g, rational.normalize([x], domain.lo, domain.hi)[0])
            assert abs(Fraction(y) - want) <= bound, (name, x)


@hypothesis.settings(**SETTINGS)
@hypothesis.given(lattice_data(), st.sampled_from(COMBOS), st.integers(1, 3),
                  st.one_of(st.sampled_from([0.0, 0.25, 0.37, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_objective_eval_is_the_exact_objective(data, combo, p, lam):
    """objective_eval is within E of the rational objective (see objective_bound)."""
    domain, scores, labels = data
    combo = parse_combo(combo)
    ds = make_dataset(scores, labels, domain)
    got = objective_eval(fit_plan(ds), ds, LambdaObjective(combo, float(p)), lam)
    want = rational.binary_objective(exact_terms(domain, scores, labels, combo), lam, p)
    rows = sum(len(s) for s in scores.values())
    assert abs(Fraction(got) - want) <= objective_bound(combo, p, rows)


@hypothesis.settings(**SETTINGS)
@hypothesis.given(lattice_data(), st.sampled_from([PR, TPR, FPR]), st.integers(1, 3))
def test_threshold_gaps_are_exact(data, kind, p):
    """expected_gap, exact_gap and max_gap against the rate gap read off the
    thresholds themselves, with K <= rows pieces or intervals.

    - max_gap: a gap |F_a - F_b| of two levels k / n, each rounded once, plus
      the subtraction: 3 eps.
    - exact_gap: a piece's atom difference errs by 2 * 3 eps + eps, so |u|^p
      by 7 p eps + 2 eps; the widths, products and sum add (3 K + 1 + K - 1)
      eps as in objective_bound: (7 p + 4 K + 2) eps.
    - expected_gap: the gap^p errs by (3 p + 2) eps, an interval's width by
      7 eps (two atoms and the subtraction), over K intervals 7 K eps, and the
      products and sum add K eps: (3 p + 8 K + 2) eps.
    """
    domain, scores, labels = data
    report = distributional_disparity(make_dataset(scores, labels, domain), kind, float(p))
    expected, exact, worst = rational.threshold_gaps(*exact_samples(domain, scores, labels, kind.label_condition), p)
    rows = sum(len(s) for s in scores.values())
    assert abs(Fraction(report.max_gap) - worst) <= 3 * EPS
    assert abs(Fraction(report.exact_gap) - exact) <= (7 * p + 4 * rows + 2) * EPS
    assert abs(Fraction(report.expected_gap) - expected) <= (3 * p + 8 * rows + 2) * EPS


@hypothesis.settings(**SETTINGS)
@hypothesis.given(lattice_data(), st.sampled_from(COMBOS))
def test_exact_solver_reaches_the_rational_minimum_at_p1(data, combo):
    """At p = 1, solve_exact's objective is at most the least rational objective
    over the kinks and both ends, plus 2 w tol, plus a rounding allowance.

    The objective is Lipschitz with constant 2 w (w = sum of the weights): its
    slope sums w seg sign(u) B with |B| <= 2 and sum(seg) = 1.  The returned
    end of the final bracket, b - a <= tol, is so within 2 w tol of the least
    objective in the bracket, and its computed value within E of its exact one.
    Rounding can steer a bisection step wrong.  The computed slope is exact for
    some u moved by at most (2 G + 13) eps per piece, a convex objective within
    (2 G + 13) eps w of the true one, up to its own rounding: the rates err by
    (2 G + 18) eps, the widths by 3 K eps each times |B| <= 2, and the products
    and sum by 2 (K + 1) eps, so it errs by (2 G + 20 + 8 K) eps w.  A step
    that follows it loses at most twice the first plus the second from the
    least objective in the bracket: (6 G + 46 + 8 K) eps w, for G = 2 groups.
    """
    domain, scores, labels = data
    combo = parse_combo(combo)
    ds = make_dataset(scores, labels, domain)
    sol = solve_exact(fit_plan(ds), ds, LambdaObjective(combo))
    minimum = rational.binary_minimum_p1(exact_terms(domain, scores, labels, combo))
    rows = sum(len(s) for s in scores.values())
    w, tol = Fraction(sum(w for _, w in combo.terms)), Fraction(1e-6)
    steps = sol.evaluations - 2
    allowance = objective_bound(combo, 1, rows) + steps * (58 + 8 * rows) * EPS * w
    assert Fraction(sol.objective_value) <= minimum + 2 * w * tol + allowance


@hypothesis.settings(**SETTINGS)
@hypothesis.given(lattice_data(), st.sampled_from(COMBOS))
def test_exact_solver_finds_the_rational_minimizer_at_p2(data, combo):
    """At p = 2, solve_exact's lambda is within tol + delta / S of the rational
    minimizer lam* (see rational.binary_minimizer_p2), and its objective within
    2 |g| D + S D^2 + E of the least one, with D that distance and g the exact
    half slope at lam*; a flat objective (S = 0) is met to within E.

    solve_exact bisects on the sign of the computed half slope.  At p = 2 a
    piece adds w seg u rate (|u|^1 sign(u) is u exactly), so against the exact
    half slope the computed one errs by at most delta = (6 G + 50 + 8 K) eps w:
    u by (2 G + 13) eps (see objective_bound) times seg |rate| <= 2 seg, the
    rate by (2 G + 18) eps (see the p = 1 test) times seg |u| <= seg, each of
    the K widths by 3 eps times |u rate| <= 2, the two products per piece and
    the K-term sum by 2 (K + 1) eps, and weighting and adding the terms by
    4 eps; (62 + 8 K) eps w for G = 2 groups.  The exact half slope is g + S (lam - lam*), where g = 0 unless lam*
    is clipped: g > 0 at lam* = 0 and g < 0 at lam* = 1.  The bracket's left
    end moves only to a midpoint whose computed half slope is negative, so
    whose exact one is below delta: at most delta / S right of lam*.  The right
    end likewise stays at most delta / S left of lam*.  The final bracket is at
    most tol wide, so both ends, and the returned one, lie within
    D = tol + delta / S of lam*.  There f(lam) - f(lam*) is
    2 g (lam - lam*) + S (lam - lam*)^2, and the computed objective is within E
    of the exact one; it is never below f(lam*) - E.
    """
    domain, scores, labels = data
    combo = parse_combo(combo)
    ds = make_dataset(scores, labels, domain)
    sol = solve_exact(fit_plan(ds), ds, LambdaObjective(combo, 2.0))
    terms = exact_terms(domain, scores, labels, combo)
    lam_star, slope, curvature = rational.binary_minimizer_p2(terms)
    minimum = rational.binary_objective(terms, lam_star, 2)
    rows = sum(len(s) for s in scores.values())
    w, tol = Fraction(sum(w for _, w in combo.terms)), Fraction(1e-6)
    E = objective_bound(combo, 2, rows)
    got = Fraction(sol.objective_value)
    assert got >= minimum - E
    if not curvature:
        assert got <= minimum + E
        return
    reach = tol + (62 + 8 * rows) * EPS * w / curvature
    assert abs(Fraction(sol.lambda_star) - lam_star) <= reach
    assert got <= minimum + 2 * abs(slope) * reach + curvature * reach**2 + E
