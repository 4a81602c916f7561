"""
Threshold sweeps and distributional disparity
=============================================

A score model is thresholded downstream at a cutoff nobody controls upstream.
This script sweeps every threshold, draws the per-group selection / TPR / FPR
curves as data, and shows that the area between two groups' curves equals the
Wasserstein distance between their score distributions.
"""

import json

import numpy as np

from fairrepair import (
    FPR,
    PR,
    TPR,
    ScoreDomain,
    ThresholdGrid,
    distributional_disparity,
    rate_curve,
    validate_dataset,
)

rng = np.random.default_rng(7)

##############################################################################
# Synthetic scores: group "a" sits lower than group "b", labels follow score.

rows = []
for g, mu, n in (("a", 0.42, 600), ("b", 0.60, 800)):
    s = np.clip(rng.normal(mu, 0.14, n), 0, 1)
    y = (rng.random(n) < s).astype(int)
    rows += [(float(si), g, int(yi)) for si, yi in zip(s, y)]
ds = validate_dataset(rows, ScoreDomain(0.0, 1.0))

##############################################################################
# Rate curves on a 101-point grid; these rows are what a plot would consume.

grid = ThresholdGrid.linspace(ds.domain, 101)
for kind in (PR, TPR, FPR):
    curve = rate_curve(ds, kind, grid)
    mid = grid.count // 2
    print(f"{kind}: at tau=0.5   a={curve.values['a'][mid]:.3f}  b={curve.values['b'][mid]:.3f}")

##############################################################################
# Disparity report: the trapezoid estimate of the threshold-averaged gap
# converges to the exact Wasserstein number as the grid refines.

for count in (11, 101, 1001):
    rep = distributional_disparity(ds, PR, 1.0, ThresholdGrid.linspace(ds.domain, count))
    print(f"grid {count:5d}: estimate={rep.expected_gap:.5f}  exact={rep.exact_gap:.5f}"
          f"  max gap={rep.max_gap:.3f}")

##############################################################################
# The same report serializes to JSON for downstream tooling.

rep = distributional_disparity(ds, TPR, 1.0, ThresholdGrid.linspace(ds.domain, 1001))
print("\nTPR report:", json.dumps(rep.to_dict(), indent=2))
