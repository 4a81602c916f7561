"""The paper's one-dimensional quantities in exact rational arithmetic.

A test oracle that shares no code with ``ot``, ``repair``, ``solver`` or
``metrics``.  Every float is a dyadic rational, so ``Fraction(x)`` holds an
input exactly and nothing below rounds.  A sample is a list of Fractions; its
empirical CDF is F(t) = #{x <= t} / n and its quantile function the
left-continuous inverse Q(a) = inf{t : F(t) >= a}, which at a level in
((k - 1) / n, k / n] is the k-th smallest point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def normalize(values, lo: float, hi: float) -> list[Fraction]:
    """Scores mapped affinely onto [0, 1], with no rounding."""
    lo, hi = Fraction(lo), Fraction(hi)
    return [(Fraction(x) - lo) / (hi - lo) for x in values]


def cdf(sample, t) -> Fraction:
    return Fraction(sum(x <= t for x in sample), len(sample))


def quantile(sample, a) -> Fraction:
    """Q(a) for a in [0, 1]; Q(0) is the smallest point."""
    return sorted(sample)[max(math.ceil(a * len(sample)), 1) - 1]


def barycenter_quantile(samples, a) -> Fraction:
    """Q_bary(a): the samples' quantiles at a, weighted by their shares of all points."""
    total = sum(len(s) for s in samples)
    return sum(Fraction(len(s), total) * quantile(s, a) for s in samples)


def transport(samples, g: int, x) -> Fraction:
    """Full repair T_g(x) = Q_bary(F_g(x)) of a score x of sample g."""
    return barycenter_quantile(samples, cdf(samples[g], x))


def geodesic(x, t, lam) -> Fraction:
    """The point a fraction lam of the way from x to t."""
    lam = Fraction(lam)
    return (1 - lam) * x + lam * t


def levels(s1, s2) -> list[Fraction]:
    """Every level k / n of either sample, in increasing order; the last is 1."""
    return sorted({Fraction(k, len(s)) for s in (s1, s2) for k in range(1, len(s) + 1)})


def wasserstein(s1, s2, p: int) -> Fraction:
    """W_p^p: the integral over (0, 1] of |Q1 - Q2|^p, a finite sum because
    both quantile functions are constant between consecutive merged levels."""
    total, below = Fraction(0), Fraction(0)
    for a in levels(s1, s2):
        total += (a - below) * abs(quantile(s1, a) - quantile(s2, a)) ** p
        below = a
    return total


def rate_gap(s1, s2, tau) -> Fraction:
    """|gamma_1 - gamma_2| at threshold tau, gamma the share of points >= tau."""
    return abs(Fraction(sum(x >= tau for x in s1), len(s1)) - Fraction(sum(x >= tau for x in s2), len(s2)))


def threshold_gaps(s1, s2, p: int) -> tuple[Fraction, Fraction, Fraction]:
    """(expected, exact, max) gap over thresholds tau in [0, 1].

    The rate gap is a step function of tau that changes only at sample points,
    so it is constant on each open interval between consecutive points of
    {0, 1} and both samples.  The expected gap integrates it at each interval's
    midpoint; the max also reads it at every point.  The exact gap is W_p^p.
    """
    cuts = sorted({Fraction(0), Fraction(1), *s1, *s2})
    pieces = [(hi - lo, rate_gap(s1, s2, (lo + hi) / 2)) for lo, hi in zip(cuts, cuts[1:])]
    expected = sum(width * gap**p for width, gap in pieces)
    worst = max([gap for _, gap in pieces] + [rate_gap(s1, s2, tau) for tau in cuts])
    return expected, wasserstein(s1, s2, p), worst


def binary_objective(terms, lam, p: int) -> Fraction:
    """sum of w * W_p^p between two repaired samples, each moved a fraction lam
    toward its targets.  ``terms`` holds (w, (s1, t1), (s2, t2)), with t[i] the
    full repair of s[i]."""
    total = Fraction(0)
    for w, (s1, t1), (s2, t2) in terms:
        total += Fraction(w) * wasserstein([geodesic(x, t, lam) for x, t in zip(s1, t1)],
                                           [geodesic(x, t, lam) for x, t in zip(s2, t2)], p)
    return total


def pieces(terms):
    """(w, seg, A, B) for each piece of each of ``binary_objective``'s terms.

    On the piece of merged level a, of width seg, the moved points differ by
    A + lam * B, with A = Q1(a) - Q2(a) and B, the rate, the difference of
    their full-repair shifts.  So the objective is the sum of
    w * seg * |A + lam * B|^p over the pieces.
    """
    for w, (s1, t1), (s2, t2) in terms:
        shift1, shift2 = dict(zip(s1, t1)), dict(zip(s2, t2))
        below = Fraction(0)
        for a in levels(s1, s2):
            q1, q2 = quantile(s1, a), quantile(s2, a)
            yield Fraction(w), a - below, q1 - q2, (shift1[q1] - q1) - (shift2[q2] - q2)
            below = a


def binary_minimum_p1(terms) -> Fraction:
    """The least p = 1 objective over lam in [0, 1]: it is piecewise linear
    and convex, so its minimum lies at lam = 0, lam = 1 or a kink -A / B
    inside (0, 1)."""
    candidates = {Fraction(0), Fraction(1)}
    for _, _, A, B in pieces(terms):
        if B and 0 < (kink := -A / B) < 1:
            candidates.add(kink)
    return min(binary_objective(terms, lam, 1) for lam in candidates)


def binary_minimizer_p2(terms) -> tuple[Fraction, Fraction, Fraction]:
    """(lam*, g, S): the least minimizer over [0, 1] of the p = 2 objective,
    its half slope g there and its curvature S.

    The objective is exactly quadratic, f(lam) = f(0) + 2 g0 lam + S lam^2 with
    g0 = sum w seg A B and S = sum w seg B^2, so its half slope is
    g0 + S lam and lam* = clip(-g0 / S, 0, 1); f is constant when S = 0, and
    lam* is then 0.
    """
    g0 = curvature = Fraction(0)
    for w, seg, A, B in pieces(terms):
        g0 += w * seg * A * B
        curvature += w * seg * B * B
    lam = min(Fraction(1), max(Fraction(0), -g0 / curvature)) if curvature else Fraction(0)
    return lam, g0 + curvature * lam, curvature


def lex_candidates(a, b) -> list[tuple[list[Fraction], list[Fraction]]]:
    """(descending losses, lambdas) at every clip-form candidate point.

    Group g's mean m_g = clip(c, I_g) for one common point c, I_g the interval
    between a_g and a_g + b_g, and L_g = sum over j of |m_g - m_j|.  Between
    consecutive interval endpoints every m_g, so every L_g, is affine in c; the
    sorted vector is then affine between the points where two losses cross, and
    its lexicographic least on the segment lies at one of those points or an
    end.  So does the least sum of lambdas among the points that share that
    least, as every lambda_g = (m_g - a_g) / b_g is affine there too; a group
    with b_g = 0 cannot move, and its lambda is 0.
    """
    a, b = [Fraction(x) for x in a], [Fraction(y) for y in b]
    intervals = [sorted((x, x + y)) for x, y in zip(a, b)]
    ends = sorted({e for interval in intervals for e in interval})

    def losses(c):
        m = [min(max(c, lo), hi) for lo, hi in intervals]
        return [sum(abs(x - y) for y in m) for x in m]

    candidates = set(ends)
    for lo, hi in zip(ends, ends[1:]):
        at_lo, at_hi = losses(lo), losses(hi)
        for g, h in itertools.combinations(range(len(intervals)), 2):
            d_lo, d_hi = at_lo[g] - at_lo[h], at_hi[g] - at_hi[h]
            if d_lo * d_hi < 0:  # L_g - L_h changes sign inside the segment
                candidates.add(lo + (hi - lo) * d_lo / (d_lo - d_hi))
    return [(sorted(losses(c), reverse=True),
             [(min(max(c, lo), hi) - x) / y if y else Fraction(0) for (lo, hi), x, y in zip(intervals, a, b)])
            for c in sorted(candidates)]


def lex_candidate_profile(a, b) -> list[Fraction]:
    """The lexicographically least descending loss vector over the clip-form points."""
    return min(profile for profile, _ in lex_candidates(a, b))


def lex_candidate_rounds(a, b) -> list[list[Fraction]]:
    """Round k's lambdas, k = 1..n: among the clip-form points that are
    lexicographically least on the k largest losses, the least sum of lambdas."""
    candidates = lex_candidates(a, b)
    return [min(candidates, key=lambda cand: (cand[0][:k], sum(cand[1])))[1] for k in range(1, len(a) + 1)]
