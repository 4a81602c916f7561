"""Barycenter repair plans: fit, shift, partial application, serialization.

A plan stores each group's fitted (unconditional) score distribution as atoms
with integer counts; the group proportions are the groups' shares of the
total count.  Full repair transports a score onto the proportion-weighted
barycenter of all group distributions; partial repair moves it a
fraction lambda of the way along that straight-line path.  Fitting needs no
labels; labels only ever enter through the choice of lambda.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from .dataset import ScoreDomain, ScoredDataset, _check_keys, _named, _numbers, _read_json, _write_json
from .errors import DatasetError
from .ot import _MAX_TOTAL, EmpiricalDistribution, barycenter_quantile

__all__ = ["RepairPlan", "fit_plan", "load_plan", "save_plan"]

PLAN_FORMAT_VERSION = 3
_PLAN_KEYS = {"format_version", "domain", "groups", "fitted", "lambdas"}


@dataclass(frozen=True)
class RepairPlan:
    """Fitted per-group quantile tables and a lambda per group.

    ``group_weights`` are the proportions p_g: each group's total count over
    the grand total, in ``groups`` order.  The full-repair targets are
    tabulated once per fitted set, on first use, and shared by
    :meth:`with_lambdas`.

    On tied scores T_g = Q_bary o F_g leaves a residual.  Atom i of g, upper
    level b_i, maps to Q_bary(b_i), and Q_bary(u) <= t iff u <= G(t), G the
    barycenter's CDF.  So F'_g(t), the repaired CDF, is g's largest level
    <= G(t), and 0 <= G(t) - F'_g(t) < m_g, g's largest atom share: every PR
    gap on the fit data is below max_g m_g (``apply``'s rounding of
    x + (T(x) - x) can split a tie by an ulp and reach it).
    """

    domain: ScoreDomain
    groups: tuple[str, ...]
    fitted: dict[str, EmpiricalDistribution]
    lambdas: dict[str, float]
    group_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _targets: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.groups) < 2 or len(set(self.groups)) != len(self.groups):
            raise DatasetError("repair needs at least 2 distinct groups")
        for name, table in (("fitted distributions", self.fitted), ("lambdas", self.lambdas)):
            if set(table) != set(self.groups):
                raise DatasetError(f"plan {name} must cover exactly the groups {sorted(self.groups)}")
        for g in self.groups:
            if not 0.0 <= self.lambdas[g] <= 1.0:
                raise DatasetError(f"lambda for group '{g}' must lie in [0, 1]")
        # Each total is exact: at most 2**53.
        totals = np.array([self.fitted[g].counts.sum() for g in self.groups], dtype=float)
        object.__setattr__(self, "group_weights", totals / totals.sum())
        object.__setattr__(self, "_targets", {})  # filled by _targets_of

    # -- core maps (x in original score units) ------------------------------

    def _targets_of(self, group: str) -> np.ndarray:
        if group not in self.fitted:
            raise DatasetError(f"group '{group}' not in plan")
        if not self._targets:
            # Full repair T_g = Q_bary o F_g is a step function that changes value
            # only at g's atoms: tabulate Q_bary at 0 and at each of g's levels.
            dists = [self.fitted[g] for g in self.groups]
            self._targets.update({
                g: barycenter_quantile(dists, self.group_weights, np.concatenate(([0.0], d.breakpoints)))
                for g, d in zip(self.groups, dists)
            })
        return self._targets[group]

    def total_repair_score(self, group: str, x):
        """Fully repaired score: transport of x onto the group barycenter."""
        targets = self._targets_of(group)
        z = self.domain.normalize(x)
        if not np.all((z >= 0) & (z <= 1)):  # also rejects NaN
            raise DatasetError("score outside plan domain")
        idx = np.searchsorted(self.fitted[group].atoms, z, side="right")
        return self.domain.denormalize(targets[idx])

    def shift(self, group: str, x):
        """Signed adjustment t(x) = fully-repaired(x) - x; may be negative."""
        return self.total_repair_score(group, x) - np.asarray(x, dtype=float)

    def repaired_score(self, group: str, x):
        """Partial repair x + lambda * t(x) with the plan's lambda for ``group``."""
        t = self.shift(group, x)  # rejects an unknown group before the lambda lookup
        out = np.asarray(x, dtype=float) + self.lambdas[group] * t
        return np.clip(out, self.domain.lo, self.domain.hi)

    def apply(self, ds: ScoredDataset) -> ScoredDataset:
        """Repair every row's score with its group's lambda; labels untouched."""
        if ds.domain != self.domain:
            raise DatasetError(
                f"dataset domain [{ds.domain.lo}, {ds.domain.hi}] does not match "
                f"plan domain [{self.domain.lo}, {self.domain.hi}]"
            )
        return ds.replace_scores(self._repaired(ds.groups, ds.group_indices, ds.scores))

    def _repaired(self, names, index, scores) -> np.ndarray:
        """Each score repaired with its group's lambda; row i is in group ``names[index[i]]``."""
        out = np.empty_like(scores)
        for k, g in enumerate(names):
            rows = index == k
            out[rows] = self.repaired_score(g, scores[rows])
        return out

    def repaired_distribution(self, group: str, lam: float) -> EmpiricalDistribution:
        """The group's fitted atoms pushed through the lambda-repair map.

        Normalized units.  lambda = 0 returns the fitted distribution;
        lambda = 1 is the group's image on the barycenter.
        """
        if not 0.0 <= lam <= 1.0:
            raise DatasetError("lambda must lie in [0, 1]")
        targets = self._targets_of(group)[1:]
        return self.fitted[group]._toward(targets, lam)

    def with_lambdas(self, lambdas: dict[str, float]) -> "RepairPlan":
        merged = dict(self.lambdas)
        merged.update(lambdas)
        plan = RepairPlan(self.domain, self.groups, self.fitted, merged)
        object.__setattr__(plan, "_targets", self._targets)  # same fitted set, same table
        return plan

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "domain": {"lo": float(self.domain.lo), "hi": float(self.domain.hi)},
            "groups": list(self.groups),
            "fitted": {g: {"atoms": _pack(d.atoms, "<f8"), "counts": _pack(d.counts, "<i8")}
                       for g, d in self.fitted.items()},
            "lambdas": {g: float(self.lambdas[g]) for g in self.groups},
        }

    @classmethod
    def from_dict(cls, data) -> "RepairPlan":
        """Rebuild a plan from :meth:`to_dict` output, validating every field."""
        if not isinstance(data, dict):
            raise DatasetError("plan must be a JSON object")
        version = data.get("format_version")
        if version != PLAN_FORMAT_VERSION:  # 1 and 2 stored JSON arrays: re-fitting packs them
            raise DatasetError(f"unsupported plan format_version {version!r}; this release reads "
                               f"format_version {PLAN_FORMAT_VERSION}: re-run `fairrepair fit` to write one")
        _check_keys("plan", data, _PLAN_KEYS)
        _check_keys("plan domain", data["domain"], {"lo", "hi"})
        groups = data["groups"]
        if not isinstance(groups, list) or not all(isinstance(g, str) for g in groups):
            raise DatasetError("plan groups must be a JSON array of strings")
        try:
            lo, hi = (_numbers(f"plan domain {k}", data["domain"][k]) for k in ("lo", "hi"))
            domain = _named("plan domain", ScoreDomain, lo, hi)
            fitted = {}
            for g, spec in data["fitted"].items():
                _check_keys(f"plan fitted entry '{g}'", spec, {"atoms", "counts"})
                atoms = _unpack(f"plan atoms of '{g}'", spec["atoms"], "<f8")
                counts = _unpack(f"plan counts of '{g}'", spec["counts"], "<i8")
                bad = (counts < 1) | (counts > _MAX_TOTAL)
                if bad.any():
                    raise DatasetError(f"malformed plan counts of '{g}': {counts[bad][0]} is not "
                                       "an integer in [1, 2**53]")
                fitted[g] = _named(f"plan fitted entry '{g}'", EmpiricalDistribution, atoms, counts)
            lambdas = {g: _numbers(f"plan lambda of '{g}'", v) for g, v in data["lambdas"].items()}
            return cls(domain, tuple(groups), fitted, lambdas)
        except DatasetError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise DatasetError(f"malformed plan ({type(exc).__name__}: {exc})") from None


def fit_plan(ds: ScoredDataset) -> RepairPlan:
    """Fit per-group unconditional distributions, one count per row.

    Label-free.  Every lambda is 1 (full repair); solvers replace them
    afterwards via :meth:`RepairPlan.with_lambdas`.
    """
    if len(ds.groups) < 2:
        raise DatasetError("need at least 2 groups to fit a repair plan")
    fitted = {
        g: EmpiricalDistribution.from_samples(ds.domain.normalize(ds.group_scores(g)))
        for g in ds.groups
    }
    return RepairPlan(ds.domain, ds.groups, fitted, dict.fromkeys(ds.groups, 1.0))


def _pack(values: np.ndarray, dtype: str) -> str:
    """``values`` as base64 text of their ``dtype`` bytes."""
    return base64.b64encode(values.astype(dtype).tobytes()).decode("ascii")


def _unpack(what: str, value, dtype: str) -> np.ndarray:
    """The inverse of :func:`_pack` for an 8-byte ``dtype``; bad input names ``what``."""
    if not isinstance(value, str):
        raise DatasetError(f"malformed {what}: expected a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DatasetError(f"malformed {what}: not base64 ({exc})") from None
    if len(raw) % 8:
        raise DatasetError(f"malformed {what}: {len(raw)} bytes is not a multiple of 8")
    return np.frombuffer(raw, dtype=dtype)


def save_plan(plan: RepairPlan, path) -> None:
    """Write ``plan`` as JSON; an existing file is replaced only once the write succeeds."""
    _write_json(path, plan.to_dict())


def load_plan(path) -> RepairPlan:
    return RepairPlan.from_dict(_read_json(path, "plan", DatasetError))
