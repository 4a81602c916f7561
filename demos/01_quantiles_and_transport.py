"""
Empirical distributions, quantiles, and optimal transport in 1-D
================================================================

The whole toolkit rests on one fact: for distributions on an interval, the
optimal way to move one onto another is to match quantiles.  This script
walks through the primitives: CDF / pseudo-inverse evaluation, exact
Wasserstein distances, weighted barycenters, and the monotone transport map
onto the barycenter that a repair plan tabulates.
"""

import numpy as np

from fairrepair import (
    EmpiricalDistribution,
    RepairPlan,
    ScoreDomain,
    barycenter_quantile,
    wasserstein,
)

##############################################################################
# Two small score samples on [0, 1].

high = EmpiricalDistribution.from_samples([0.2, 0.4, 0.6, 0.8])
low = EmpiricalDistribution.from_samples([0.1, 0.2, 0.3, 0.4])

print("atoms (high):", high.atoms)
print("atoms (low): ", low.atoms)

##############################################################################
# The CDF is a right-continuous step function; the quantile function is its
# generalized inverse inf{t : F(t) >= a}.

for x in (0.1, 0.4, 0.5, 0.8):
    print(f"F_high({x:.1f}) = {high.cdf(x):.2f}")
for a in (0.0, 0.25, 0.5, 1.0):
    print(f"F_high^-1({a:.2f}) = {high.quantile(a):.2f}")

##############################################################################
# Wasserstein distance: the integral of the quantile-function gap, computed
# exactly over the merged breakpoint partition.  For equal-size uniform
# samples this reduces to the mean gap between order statistics.

w1 = wasserstein(high, low, p=1.0)
print(f"\nW1(high, low)   = {w1:.4f}")
print(f"sorted-pair mean = {np.mean(np.abs(high.atoms - low.atoms)):.4f}")
print(f"W2^2(high, low) = {wasserstein(high, low, p=2.0):.4f}")

##############################################################################
# The weighted barycenter averages quantile functions.  Transporting a point
# means reading off its quantile level in the source and landing on the
# barycenter's value at that level.

w = [0.5, 0.5]
for q in (0.25, 0.5, 1.0):
    print(f"barycenter quantile at {q:.2f}: {barycenter_quantile([high, low], w, q):.3f}")

##############################################################################
# A repair plan holds the groups' fitted distributions: atoms with integer
# counts, here one per sample.  Each group weighs its share of the total count
# (4 of 8 rows each, so 50/50).  The plan tabulates each group's transport map
# T(x) = Q_bary(F_group(x)) once: a step function that only changes value at
# the group's atoms.

print("\ncounts (high):", high.counts, " levels:", high.breakpoints)
plan = RepairPlan(ScoreDomain(0.0, 1.0), ("high", "low"),
                  {"high": high, "low": low}, {"high": 1.0, "low": 1.0})
print("group weights:", plan.group_weights)
x = 0.2
moved = plan.total_repair_score("high", x)
print(f"\nscore {x} from 'high' lands at {moved:.3f} on the 50/50 barycenter")

##############################################################################
# Pushing each group's atoms through its map lands both groups on the same
# barycenter when the sample sizes match, so their images coincide.

pushed = {g: plan.repaired_distribution(g, 1.0) for g in plan.groups}
print("pushforward atoms (high):", pushed["high"].atoms)
print("pushforward atoms (low): ", pushed["low"].atoms)
print("W1 between the images =", wasserstein(pushed["high"], pushed["low"], 1.0))
