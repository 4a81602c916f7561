"""
Repairing a binary-group model: how far to move, and two ways to decide
========================================================================

Full repair pushes both groups' scores onto their weighted barycenter, which
equalizes selection rates at every threshold but can overshoot label-aware
metrics.  Partial repair interpolates along the shortest path between each
group and the barycenter; one number lambda says how far to go.  Because the
disparity objective is convex in lambda, its slope is nondecreasing and the
minimizer is easy to find: by bisection on the slope's sign, or by a closed
form on conditional means.
"""

import numpy as np

from fairrepair import (
    PR,
    TPR,
    LambdaObjective,
    ScoreDomain,
    ThresholdGrid,
    distributional_disparity,
    fit_plan,
    objective_eval,
    parse_combo,
    solve_exact,
    solve_probabilistic,
    split,
    validate_dataset,
)

rng = np.random.default_rng(21)

##############################################################################
# Data: the lower-scoring group's label response is stronger, so PR-optimal
# repair and TPR-optimal repair disagree -- exactly the situation where a
# tunable lambda matters.

rows = []
for g, mu, off, n in (("a", 0.42, -0.2, 1200), ("b", 0.62, 0.2, 1400)):
    s = np.clip(rng.normal(mu, 0.14, n), 0, 1)
    y = (rng.random(n) < np.clip(s + off, 0, 1)).astype(int)
    rows += [(float(si), g, int(yi)) for si, yi in zip(s, y)]
ds = validate_dataset(rows, ScoreDomain(0.0, 1.0))
labeled, holdout = split(ds, 0.5, seed=0)

##############################################################################
# Fit the label-free plan on the labeled half and inspect the shift function.

plan = fit_plan(labeled)
print("group weights:", dict(zip(plan.groups, plan.group_weights.round(3))))
for x in (0.3, 0.5, 0.7):
    print(f"shift t({x:.1f}, a) = {float(plan.total_repair_score('a', x) - x):+.4f}"
          f"   t({x:.1f}, b) = {float(plan.total_repair_score('b', x) - x):+.4f}")

##############################################################################
# The objective along lambda is convex: sweep it, then solve two ways.

obj = LambdaObjective(parse_combo("tpr"))
lams = np.linspace(0, 1, 11)
vals = [objective_eval(plan, labeled, obj, float(l)) for l in lams]
print("\nlambda sweep (TPR disparity):")
for l, v in zip(lams, vals):
    print(f"  lambda={l:.1f}  objective={v:.5f}  {'#' * int(120 * v)}")

e = solve_exact(plan, labeled, obj)
p = solve_probabilistic(plan, labeled, TPR)
print(f"\nbisection   : lambda={e.lambda_star:.4f}  objective={e.objective_value:.6f}"
      f"  ({e.evaluations} evaluations)")
print(f"closed-form : lambda={p.lambda_star:.4f}  objective={p.objective_value:.6f}"
      f"  (clamped={p.clamped})")

##############################################################################
# Apply the chosen lambda to the held-out half and measure what changed.

tuned = plan.with_lambdas({g_: e.lambda_star for g_ in plan.groups})
repaired = tuned.apply(holdout)
grid = ThresholdGrid.linspace(ds.domain, 1001)
for kind in (PR, TPR):
    before = distributional_disparity(holdout, kind, 1.0, grid).exact_gap
    after = distributional_disparity(repaired, kind, 1.0, grid).exact_gap
    print(f"{kind}: holdout gap {before:.5f} -> {after:.5f}")
