"""
Beyond two groups: max-min and lexicographically fair repair vectors
====================================================================

With n groups each getting its own repair amount, "minimize the disparity"
stops being one number.  Max-min fairness minimizes the worst group's loss;
lexicographic fairness keeps going: fix the worst, then the second worst
subject to the first bound, and so on.  Max-min is an exact LP because the
label-conditioned mean of each group is affine in its own lambda; the later
rounds search the points where every group's mean is as near one common point
as its lambda lets it be, and every lexicographic optimum is one of those.

The scenario mirrors a credit-score setting: four groups on a 0-100 axis
whose score distributions AND score-to-outcome relationships differ, so full
repair (equal score distributions everywhere) barely helps the label-aware
loss while the solved repair vectors crush it.
"""

import numpy as np

from fairrepair import (
    TPR,
    build_problem,
    bundled_spec,
    fit_plan,
    sample,
    solve_lexicographic,
    solve_maxmin,
    split,
)

##############################################################################
# Sample the bundled 4-group joint spec and fit on the labeled half.

spec = bundled_spec()
print("groups:", spec.groups, "proportions:", spec.proportions.round(2))

ds = sample(spec, n=8000, seed=1)
labeled, holdout = split(ds, 0.5, seed=1)
plan = fit_plan(labeled)
prob = build_problem(plan, labeled, TPR)

# The mean model works in normalized units: scores mapped from 0-100 onto [0, 1].
print("\nnormalized conditional means (unrepaired):", prob.base_means.round(3))
print("normalized mean shifts at full repair:    ", prob.mean_shifts.round(3))

##############################################################################
# Solve both ways and compare against no repair and full repair.

maxmin = solve_maxmin(prob)
lex = solve_lexicographic(prob)

rows = {
    "Unrepaired": prob.losses(np.zeros(prob.n)),
    "Full repair": prob.losses(np.ones(prob.n)),
    "Max-min": prob.losses([maxmin.lambdas[g] for g in prob.groups]),
    "Lexicographic": prob.losses([lex.lambdas[g] for g in prob.groups]),
}
print(f"\nnormalized losses\n{'method':<14}" + "".join(f"{g:>10}" for g in prob.groups))
for name, losses in rows.items():
    print(f"{name:<14}" + "".join(f"{l:>10.4f}" for l in losses))

print("\nlex lambdas:  ", {g: round(l, 3) for g, l in lex.lambdas.items()})
print("round bounds: ", [round(e, 4) for e in lex.epsilons])

##############################################################################
# The returned vector transfers to unseen data.

from fairrepair import distributional_disparity

plan_lex = plan.with_lambdas(lex.lambdas)
before = distributional_disparity(holdout, TPR, 1.0)
after = distributional_disparity(plan_lex.apply(holdout), TPR, 1.0)
print(f"\nholdout mean pairwise TPR gap: {before.expected_gap:.4f} -> {after.expected_gap:.4f}"
      f"  ({1 - after.expected_gap / before.expected_gap:.0%} reduction)")
