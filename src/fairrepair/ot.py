"""Closed-form univariate optimal transport on empirical distributions.

All distributions here live on normalized scores in [0, 1].  An empirical
distribution is a weighted set of atoms; its CDF is a right-continuous step
function and its quantile function is the generalized inverse
F^-1(a) = inf{t : F(t) >= a}.  In one dimension that is enough for exact
Wasserstein distances, barycenters, and monotone transport maps: the distance
is an integral of the quantile difference, the barycenter's quantile function
is the weighted average of the inputs' quantile functions, and the transport
map from mu to nu is F_nu^-1 o F_mu (:class:`fairrepair.repair.RepairPlan`
tabulates it for each group's map onto the barycenter).
"""

from __future__ import annotations

import numpy as np

from .errors import DatasetError

__all__ = ["EmpiricalDistribution", "wasserstein", "barycenter_quantile"]

_WEIGHT_TOL = 1e-12


class EmpiricalDistribution:
    """Sorted atoms in [0, 1] with positive weights summing to 1.

    The weights are kept as given, so a distribution rebuilt from its own atoms
    and weights is bit for bit the same.  Duplicate atom values are merged
    (weights summed) so the CDF and quantile functions are well defined.
    ``breakpoints`` holds the cumulative weights, the last pinned to 1.0;
    quantile() is constant on (breakpoints[i-1], breakpoints[i]].
    Instances are immutable.
    """

    __slots__ = ("atoms", "weights", "breakpoints")

    def __init__(self, atoms, weights):
        atoms = np.asarray(atoms, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape:
            raise DatasetError("atoms and weights must be equal-length 1-d arrays")
        if atoms.size == 0:
            raise DatasetError("empirical distribution needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise DatasetError("atoms must be finite")
        if atoms.min() < -_WEIGHT_TOL or atoms.max() > 1 + _WEIGHT_TOL:
            raise DatasetError("atoms must lie in [0, 1] (normalized scores)")
        if not np.all(weights > 0):  # also rejects NaN
            raise DatasetError("weights must be positive")
        total = weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise DatasetError(f"weights must sum to 1, got {total}")

        order = np.argsort(atoms, kind="stable")
        atoms = np.clip(atoms[order], 0.0, 1.0)
        weights = weights[order]

        # Merge exact ties.
        keep = np.empty(atoms.size, dtype=bool)
        keep[0] = True
        np.not_equal(atoms[1:], atoms[:-1], out=keep[1:])
        idx = np.cumsum(keep) - 1
        merged_atoms = atoms[keep]
        merged_weights = np.zeros(merged_atoms.size)
        np.add.at(merged_weights, idx, weights)

        cumw = np.cumsum(merged_weights)
        cumw[-1] = 1.0  # kill cumulative rounding at the top

        self.atoms = merged_atoms
        self.weights = merged_weights
        self.breakpoints = cumw
        for a in (self.atoms, self.weights, self.breakpoints):
            a.flags.writeable = False

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        """Distribution of a sample, each point weighted equally.

        Requires at least two sample points; ties may still merge to a single
        atom (a legitimate point mass).
        """
        values = np.asarray(values, dtype=float)
        if values.size < 2:
            raise DatasetError("need at least 2 sample points")
        weights = np.full(values.size, 1.0 / values.size)
        return cls(values, weights / weights.sum())

    def _toward(self, targets: np.ndarray, lam: float) -> "EmpiricalDistribution":
        """The same weights on atoms moved a fraction lam of the way to targets.

        Targets are nondecreasing in [0, 1], one per atom, so the moved atoms
        stay sorted.  Unlike the constructor this does not merge ties: the
        cumulative weights stay bit-identical, and atoms that meet stay
        separate, which leaves the CDF and quantile function unchanged.
        """
        out = object.__new__(EmpiricalDistribution)
        out.atoms = np.clip((1.0 - lam) * self.atoms + lam * targets, 0.0, 1.0)
        out.weights, out.breakpoints = self.weights, self.breakpoints
        out.atoms.flags.writeable = False
        return out

    @property
    def n_atoms(self) -> int:
        return self.atoms.size

    def cdf(self, x):
        """P(X <= x); right-continuous step function."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.atoms, x, side="right")
        padded = np.concatenate(([0.0], self.breakpoints))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def quantile(self, a):
        """Generalized inverse inf{t : F(t) >= a} for a in [0, 1].

        a = 0 returns the smallest atom (infimum over the support).
        """
        a = np.asarray(a, dtype=float)
        if not np.all((a >= -_WEIGHT_TOL) & (a <= 1 + _WEIGHT_TOL)):  # also rejects NaN
            raise DatasetError("quantile level must lie in [0, 1]")
        # Levels are at most 1.0, the last breakpoint, so idx < n_atoms.
        idx = np.searchsorted(self.breakpoints, np.clip(a, 0.0, 1.0), side="left")
        out = self.atoms[idx]
        return float(out) if out.ndim == 0 else out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmpiricalDistribution)
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"EmpiricalDistribution({self.n_atoms} atoms on [{self.atoms[0]:g}, {self.atoms[-1]:g}])"


def wasserstein(d1: EmpiricalDistribution, d2: EmpiricalDistribution, p: float = 1.0) -> float:
    """p-th power of the p-Wasserstein distance, W_p^p.

    Computed exactly as the integral over [0, 1] of |F1^-1 - F2^-1|^p: both
    quantile functions are constant between consecutive merged cumulative
    weights, so the integral is a finite sum over that partition.
    """
    if not 1.0 <= p < np.inf:  # also rejects NaN
        raise DatasetError(f"order p must be finite and >= 1, got {p}")
    q = np.union1d(d1.breakpoints, d2.breakpoints)
    seg = np.diff(q, prepend=0.0)
    diff = np.abs(d1.quantile(q) - d2.quantile(q))
    return float(seg @ diff**p)


def barycenter_quantile(dists, w, q):
    """Quantile of the weighted barycenter: sum_i w_i F_i^-1(q)."""
    w = np.asarray(w, dtype=float)
    if len(dists) < 2:
        raise DatasetError("barycenter needs at least 2 distributions")
    if w.shape != (len(dists),):
        raise DatasetError("one weight per distribution required")
    if not np.all(w >= 0):
        raise DatasetError("barycenter weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DatasetError(f"barycenter weights must sum to 1, got {w.sum()}")
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape)
    for wi, d in zip(w, dists):
        if wi != 0.0:
            out = out + wi * d.quantile(q)
    return float(out) if out.ndim == 0 else out
