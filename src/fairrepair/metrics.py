"""Threshold-sweep confusion-matrix rates and disparity functionals.

A rate curve evaluates, per group, the probability that the thresholded
prediction 1{score >= tau} equals a chosen class, optionally conditioned on
the true label, across a grid of thresholds.  Disparity between two groups is
both estimated on the grid (trapezoid rule against a uniform threshold) and
computed exactly as W_p^p between the groups' conditional score
distributions.  For order p = 1 the two agree up to grid resolution, and the
Wasserstein number is the authoritative one; for p != 1 they are different
quantities.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import MetricKind, ScoreDomain, ScoredDataset, _conditional_means, _conditional_scores
from .errors import DatasetError
from .ot import EmpiricalDistribution, wasserstein

__all__ = [
    "ThresholdGrid",
    "DisparityCurve",
    "PairGap",
    "DisparityReport",
    "rate_curve",
    "distributional_disparity",
    "probabilistic_parity_gap",
    "groupwise_lex_loss",
]

DEFAULT_GRID_COUNT = 101

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 2 renamed trapz


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

    def write_csv(self, fh) -> None:
        _write_curves(fh, (self,))


def _write_curves(fh, curves) -> None:
    """Rows of every curve under one `threshold,group,metric,value` header."""
    fh.write("threshold,group,metric,value\n")
    for curve in curves:
        for group in sorted(curve.values):
            for tau, v in zip(curve.grid.points.tolist(), curve.values[group].tolist()):
                fh.write(f"{tau!r},{group},{curve.metric.name},{v!r}\n")


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
    expected_gap: float  # trapezoid estimate of E_tau |gamma_a - gamma_b|^p
    exact_gap: float     # W_p^p between the conditional score distributions
    max_gap: float       # max over the grid of |gamma_a - gamma_b|


@dataclass(frozen=True)
class DisparityReport:
    """Disparity summary for one metric: scalar gaps plus a pairwise table.

    For two groups the headline numbers are that pair's; for more, the
    headline expected/exact gaps average over pairs and max_gap is the worst
    pair's.  ``curve`` holds the rate curves the gaps were computed from; it
    is not part of the summary (``to_dict``, ``repr``, comparison).
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

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def distributional_disparity(
    ds: ScoredDataset,
    kind: MetricKind,
    p: float = 1.0,
    grid: ThresholdGrid | None = None,
) -> DisparityReport:
    """Threshold-averaged rate disparity per group pair, both routes.

    ``expected_gap`` estimates the integral of |gamma_a(tau) - gamma_b(tau)|^p
    d tau / width on the grid (trapezoid rule).  ``exact_gap`` is W_p^p between
    the pair's conditional score distributions on the normalized domain.  At
    p = 1 the two are the same integral, so the estimate converges to W_1 as the
    grid refines; at p != 1 it converges to a different quantity.
    """
    if len(ds.groups) < 2:
        raise DatasetError("disparity needs at least 2 groups")
    if grid is None:
        grid = ThresholdGrid.linspace(ds.domain)
    curve = rate_curve(ds, kind, grid)
    scores = _conditional_scores(ds, kind)
    dists = {g: EmpiricalDistribution.from_samples(ds.domain.normalize(x)) for g, x in zip(ds.groups, scores)}

    width = ds.domain.width
    pairs = []
    for a, b in itertools.combinations(ds.groups, 2):
        exact = wasserstein(dists[a], dists[b], p)  # rejects a bad p before diff**p
        diff = np.abs(curve.values[a] - curve.values[b])
        expected = float(_trapezoid(diff**p, grid.points) / width)
        pairs.append(PairGap(a, b, expected, exact, float(diff.max())))

    # For one pair the mean is that pair's value, bit for bit.
    expected_gap = float(np.mean([pg.expected_gap for pg in pairs]))
    exact_gap = float(np.mean([pg.exact_gap for pg in pairs]))
    max_gap = float(max(pg.max_gap for pg in pairs))
    return DisparityReport(kind, p, grid.count, expected_gap, exact_gap, max_gap, tuple(pairs), curve)


def probabilistic_parity_gap(ds: ScoredDataset, kind: MetricKind) -> dict[tuple[str, str], float]:
    """Pairwise differences of label-conditioned mean scores, original units.

    Returns every ordered pair (g, g') -> E[score | cond, g] - E[score | cond, g'].
    """
    means = dict(zip(ds.groups, _conditional_means(ds, kind).tolist()))
    return {(a, b): means[a] - means[b] for a, b in itertools.permutations(sorted(means), 2)}


def _mean_gap_losses(means: np.ndarray) -> np.ndarray:
    """L_g = sum over other groups j of |m_g - m_j|."""
    return np.abs(means[:, None] - means[None, :]).sum(axis=1)


def groupwise_lex_loss(ds: ScoredDataset, kind: MetricKind) -> dict[str, float]:
    """Per-group sum of absolute pairwise conditional-mean gaps."""
    if len(ds.groups) < 2:
        raise DatasetError("lex loss needs at least 2 groups")
    return dict(zip(ds.groups, _mean_gap_losses(_conditional_means(ds, kind)).tolist()))
