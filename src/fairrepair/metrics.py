"""Threshold-sweep confusion-matrix rates and disparity functionals.

A rate curve is, per group, the probability that 1{score >= tau} equals a
chosen class, optionally conditioned on the true label, on a threshold grid.
The disparity over every threshold is exact; the grid only draws the curves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dataset import MetricKind, ScoreDomain, ScoredDataset, _conditional_scores, _quote
from .errors import DatasetError
from .ot import EmpiricalDistribution, wasserstein

__all__ = [
    "ThresholdGrid",
    "DisparityCurve",
    "PairGap",
    "DisparityReport",
    "rate_curve",
    "distributional_disparity",
]

DEFAULT_GRID_COUNT = 101


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly increasing thresholds spanning the score domain."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise DatasetError("threshold grid needs at least 2 points")
        if np.any(np.diff(pts) <= 0):
            raise DatasetError("threshold grid must be strictly increasing")
        object.__setattr__(self, "points", pts)
        pts.flags.writeable = False

    @classmethod
    def linspace(cls, domain: ScoreDomain, count: int = DEFAULT_GRID_COUNT) -> "ThresholdGrid":
        if count < 2:
            raise DatasetError("grid count must be >= 2")
        with np.errstate(over="ignore"):  # near the largest float, the last point overflows before it is set to hi
            return cls(np.linspace(domain.lo, domain.hi, count))

    @property
    def count(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class DisparityCurve:
    """Per-group rate values on a threshold grid."""

    metric: MetricKind
    grid: ThresholdGrid
    values: dict[str, np.ndarray]


def _write_curves(fh, curves) -> None:
    """Rows of every curve under one `threshold,group,metric,value` header; a group
    name is quoted as in a scored CSV, so every row reads back as four cells."""
    fh.write("threshold,group,metric,value\n")
    for curve in curves:
        for group in sorted(curve.values):
            cells = f"{_quote(group)},{curve.metric.name}"
            fh.writelines(f"{tau!r},{cells},{v!r}\n"
                          for tau, v in zip(curve.grid.points.tolist(), curve.values[group].tolist()))


def rate_curve(ds: ScoredDataset, kind: MetricKind, grid: ThresholdGrid) -> DisparityCurve:
    """Exact counting rates per group over the grid; no interpolation.

    For predicted class 1 the value at tau is the fraction of (conditioned)
    group scores >= tau; ties at tau count as positive.  Class 0 is the
    complement.
    """
    values = {}
    for g, x in zip(ds.groups, _conditional_scores(ds, kind, min_rows=1)):
        s = np.sort(x)
        frac_ge = 1.0 - np.searchsorted(s, grid.points, side="left") / s.size
        values[g] = frac_ge if kind.predicted_class == 1 else 1.0 - frac_ge
    return DisparityCurve(kind, grid, values)


@dataclass(frozen=True)
class PairGap:
    group_a: str
    group_b: str
    expected_gap: float  # E_tau |gamma_a - gamma_b|^p, tau uniform on the domain; exact
    exact_gap: float     # W_p^p between the conditional score distributions
    max_gap: float       # sup over tau of |gamma_a - gamma_b|; exact


@dataclass(frozen=True)
class DisparityReport:
    """Disparity summary for one metric: scalar gaps plus a pairwise table.

    For two groups the headline numbers are that pair's; for more, the
    headline expected/exact gaps average over pairs and max_gap is the worst
    pair's.  ``curve`` holds the rate curves on the grid that ``grid_count``
    counts; it is not part of the summary (``to_dict``, ``repr``, comparison).
    """

    metric: MetricKind
    p: float
    grid_count: int
    expected_gap: float
    exact_gap: float
    max_gap: float
    pairs: tuple[PairGap, ...] = field(default_factory=tuple)
    curve: DisparityCurve | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric.name,
            "p": self.p,
            "grid_count": self.grid_count,
            "expected_gap": self.expected_gap,
            "exact_gap": self.exact_gap,
            "max_gap": self.max_gap,
            "pairs": [
                {
                    "groups": [pg.group_a, pg.group_b],
                    "expected_gap": pg.expected_gap,
                    "exact_gap": pg.exact_gap,
                    "max_gap": pg.max_gap,
                }
                for pg in self.pairs
            ],
        }


def distributional_disparity(
    ds: ScoredDataset,
    kind: MetricKind,
    p: float = 1.0,
    grid: ThresholdGrid | None = None,
) -> DisparityReport:
    """Rate disparity over every threshold per group pair, exact; curves on ``grid``.

    The gap at normalized threshold u is |F_a(u-) - F_b(u-)|, F_g the CDF of
    g's conditional scores, constant between merged scores u_i.  So the
    integral of |gamma_a - gamma_b|^p d tau / width, ``expected_gap``, is
    sum_i (u_{i+1} - u_i) |F_a(u_i) - F_b(u_i)|^p (pairwise-summed, no BLAS),
    ``max_gap`` is the largest gap, and ``exact_gap`` is W_p^p: at p = 1 the same.
    """
    if len(ds.groups) < 2:
        raise DatasetError("disparity needs at least 2 groups")
    if grid is None:
        grid = ThresholdGrid.linspace(ds.domain)
    curve = rate_curve(ds, kind, grid)
    scores = _conditional_scores(ds, kind)
    dists = {g: EmpiricalDistribution.from_samples(ds.domain.normalize(x)) for g, x in zip(ds.groups, scores)}

    pairs = []
    for (a, da), (b, db) in itertools.combinations(dists.items(), 2):
        exact = wasserstein(da, db, p)  # rejects a bad p before gap**p
        u = np.union1d(da.atoms, db.atoms)
        gap = np.abs(da.cdf(u) - db.cdf(u))  # on [u_i, u_{i+1}); 0 past the last score
        pairs.append(PairGap(a, b, float((np.diff(u) * gap[:-1] ** p).sum()), exact, float(gap.max())))

    # For one pair the mean is that pair's value, bit for bit.
    expected_gap = float(np.mean([pg.expected_gap for pg in pairs]))
    exact_gap = float(np.mean([pg.exact_gap for pg in pairs]))
    max_gap = float(max(pg.max_gap for pg in pairs))
    return DisparityReport(kind, p, grid.count, expected_gap, exact_gap, max_gap, tuple(pairs), curve)
