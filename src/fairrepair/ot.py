"""Closed-form univariate optimal transport on empirical distributions.

All distributions here live on normalized scores in [0, 1].  An empirical
distribution is a set of atoms with integer counts; its CDF is a
right-continuous step function and its quantile function is the generalized
inverse F^-1(a) = inf{t : F(t) >= a}.  In one dimension that is enough for exact
Wasserstein distances, barycenters, and monotone transport maps: the distance
is an integral of the quantile difference, the barycenter's quantile function
is the weighted average of the inputs' quantile functions, and the transport
map from mu to nu is F_nu^-1 o F_mu (:class:`fairrepair.repair.RepairPlan`
tabulates it for each group's map onto the barycenter).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DatasetError

__all__ = ["EmpiricalDistribution", "wasserstein", "barycenter_quantile"]

_MAX_TOTAL = 2**53  # every integer up to here is a float, so each level k/n rounds once


class EmpiricalDistribution:
    """Sorted atoms in [0, 1], each with a positive integer count.

    Duplicate atom values are merged (counts summed) so the CDF and quantile
    functions are well defined.  With n the total count, ``breakpoints`` holds
    the levels cumsum(counts) / n: each is the exact rational k/n rounded once,
    so equal levels of different distributions are equal floats, and the last
    is 1.0.  quantile() is constant on (breakpoints[i-1], breakpoints[i]].
    Instances are immutable.
    """

    __slots__ = ("atoms", "counts", "breakpoints")

    def __init__(self, atoms, counts):
        atoms = np.asarray(atoms, dtype=float)
        counts = np.asarray(counts)
        if atoms.ndim != 1 or atoms.shape != counts.shape:
            raise DatasetError("atoms and counts must be equal-length 1-d arrays")
        if atoms.size == 0:
            raise DatasetError("empirical distribution needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise DatasetError("atoms must be finite")
        if atoms.min() < 0.0 or atoms.max() > 1.0:
            raise DatasetError("atoms must lie in [0, 1] (normalized scores)")
        if counts.dtype.kind not in "iu" or not np.all(counts > 0):
            raise DatasetError("counts must be positive integers")
        total = counts.sum(dtype=float)  # exact up to 2**53, and it cannot overflow
        if total <= _MAX_TOTAL:
            total = counts.sum()  # exact: the float sum rounds 2**53 + 1 down
        if total > _MAX_TOTAL:
            raise DatasetError(f"counts must total at most 2**53, got {total}")

        # Each temporary is dropped once used: a constructor's peak is the peak of fit_plan and load_plan.
        order = np.argsort(atoms, kind="stable")
        atoms = atoms[order]
        counts = counts.astype(np.int64, copy=False)[order]
        del order
        first = np.flatnonzero(np.concatenate(([True], atoms[1:] != atoms[:-1])))  # exact ties merge
        self.atoms = atoms[first]
        del atoms
        self.counts = np.add.reduceat(counts, first)
        del counts, first
        self.breakpoints = np.cumsum(self.counts) / self.counts.sum()  # integers up to 2**53: one rounding each
        for a in (self.atoms, self.counts, self.breakpoints):
            a.flags.writeable = False

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        """Distribution of a sample, each point counted once.

        Requires at least two sample points; ties may still merge to a single
        atom (a legitimate point mass).
        """
        values = np.asarray(values, dtype=float)
        if values.size < 2:
            raise DatasetError("need at least 2 sample points")
        return cls(values, np.ones(values.size, dtype=np.int64))

    def _toward(self, targets: np.ndarray, lam: float) -> "EmpiricalDistribution":
        """The same counts on atoms moved a fraction lam of the way to targets.

        Targets are nondecreasing in [0, 1], one per atom, so the moved atoms
        stay sorted.  Unlike the constructor this does not merge ties: the
        levels stay bit-identical, and atoms that meet stay separate, which
        leaves the CDF and quantile function unchanged.
        """
        out = object.__new__(EmpiricalDistribution)
        out.atoms = _geodesic(self.atoms, targets, lam, 0.0, 1.0)
        out.counts, out.breakpoints = self.counts, self.breakpoints
        out.atoms.flags.writeable = False
        return out

    @property
    def n_atoms(self) -> int:
        return self.atoms.size

    def cdf(self, x):
        """P(X <= x); right-continuous step function."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise DatasetError("cdf argument must not be NaN")
        idx = np.searchsorted(self.atoms, x, side="right")
        padded = np.concatenate(([0.0], self.breakpoints))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def quantile(self, a):
        """Generalized inverse inf{t : F(t) >= a} for a in [0, 1].

        a = 0 returns the smallest atom (infimum over the support).
        """
        a = np.asarray(a, dtype=float)
        if not np.all((a >= 0.0) & (a <= 1.0)):  # also rejects NaN
            raise DatasetError("quantile level must lie in [0, 1]")
        # Levels are at most 1.0, the last breakpoint, so idx < n_atoms.
        idx = np.searchsorted(self.breakpoints, a, side="left")
        out = self.atoms[idx]
        return float(out) if out.ndim == 0 else out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmpiricalDistribution)
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:
        return f"EmpiricalDistribution({self.n_atoms} atoms on [{self.atoms[0]:g}, {self.atoms[-1]:g}])"


def _geodesic(x, t, lam: float, lo: float, hi: float) -> np.ndarray:
    """(1 - lam) * x + lam * t, clipped into [lo, hi].  For x and t in [lo, hi]
    that is x at lam = 0 and t at lam = 1, exactly."""
    return np.clip((1.0 - lam) * np.asarray(x, dtype=float) + lam * t, lo, hi)


class _Levels(NamedTuple):
    """The merged level partition of two distributions' quantile functions.

    ``seg`` holds the widths of the pieces of (0, 1] cut at every level of
    either distribution; on piece k the quantile functions take the values
    ``atoms[i1[k]]`` and ``atoms[i2[k]]``.  The partition depends on the
    levels only, so it serves any atoms with these ``breakpoints``.
    """

    b1: np.ndarray
    b2: np.ndarray
    seg: np.ndarray
    i1: np.ndarray
    i2: np.ndarray


def _levels(d1: EmpiricalDistribution, d2: EmpiricalDistribution) -> _Levels:
    q = np.union1d(d1.breakpoints, d2.breakpoints)
    # Same lookup as quantile(): the last level is 1.0, so every index is in range.
    i1 = np.searchsorted(d1.breakpoints, q, side="left")
    i2 = np.searchsorted(d2.breakpoints, q, side="left")
    return _Levels(d1.breakpoints, d2.breakpoints, np.diff(q, prepend=0.0), i1, i2)


def wasserstein(
    d1: EmpiricalDistribution, d2: EmpiricalDistribution, p: float = 1.0, levels: _Levels | None = None
) -> float:
    """p-th power of the p-Wasserstein distance, W_p^p.

    Computed exactly as the integral over [0, 1] of |F1^-1 - F2^-1|^p: both
    quantile functions are constant between consecutive merged levels, so the
    integral is a finite sum over that partition.  ``levels`` is that
    partition, built once by ``_levels`` for callers that evaluate many atom
    sets on fixed levels; it must have been built from these two
    ``breakpoints`` arrays.  The sum is numpy's pairwise sum, not a BLAS dot
    product, so the result does not depend on the BLAS thread count.
    """
    if not 1.0 <= p < np.inf:  # also rejects NaN
        raise DatasetError(f"order p must be finite and >= 1, got {p}")
    if levels is None:
        levels = _levels(d1, d2)
    elif levels.b1 is not d1.breakpoints or levels.b2 is not d2.breakpoints:
        raise DatasetError("levels were built for other distributions")
    diff = np.abs(d1.atoms[levels.i1] - d2.atoms[levels.i2])
    return float((levels.seg * diff**p).sum())


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
