"""Seeded synthetic datasets from a joint (group, score, label) specification.

A JointSpec fixes group proportions, a per-group probability mass over a
discrete score support, and a per-group per-score probability of the positive
label.  Sampling is driven by a named, portable PRNG so identical
(spec, n, seed) inputs reproduce byte-identical datasets anywhere.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass

import numpy as np

from .dataset import ScoreDomain, ScoredDataset, _check_keys, _index_groups, _named, _numbers, _read_json
from .errors import DatasetError, SpecError

__all__ = ["JointSpec", "sample", "split", "bundled_spec", "GENERATOR_ID"]

GENERATOR_ID = "numpy-pcg64"

_BUNDLED_SPEC = "synthetic_joint_4group.json"
_SPEC_KEYS = {"domain", "groups", "score_support", "score_pmf", "label1_prob"}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class JointSpec:
    """Joint distribution over (group, score, label) on a discrete support."""

    domain: ScoreDomain
    groups: tuple[str, ...]
    proportions: np.ndarray
    support: np.ndarray
    pmf: dict[str, np.ndarray]          # group -> mass over support
    label1_prob: dict[str, np.ndarray]  # group -> P(Y=1 | score) over support

    def __post_init__(self):
        props = np.asarray(self.proportions, dtype=float)
        support = np.asarray(self.support, dtype=float)
        # Each check reads "not np.all(ok)": a NaN fails every comparison.
        if len(self.groups) < 1 or props.shape != (len(self.groups),):
            raise SpecError("one proportion per group required")
        if not (np.all(props > 0) and abs(props.sum() - 1.0) <= 1e-9):
            raise SpecError("group proportions must be positive and sum to 1")
        if support.ndim != 1 or support.size < 1 or not np.all(np.diff(support) > 0):
            raise SpecError("score support must be strictly increasing")
        if not self.domain.lo <= support[0] <= support[-1] <= self.domain.hi:  # also rejects NaN and inf
            raise SpecError("score support must lie inside the domain")
        for g in self.groups:
            p = np.asarray(self.pmf.get(g), dtype=float)
            q = np.asarray(self.label1_prob.get(g), dtype=float)
            if p.shape != support.shape or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
                raise SpecError(f"pmf for group '{g}' must be over the support and sum to 1")
            if q.shape != support.shape or not np.all((q >= 0) & (q <= 1)):
                raise SpecError(f"label probabilities for group '{g}' must lie in [0, 1]")
        object.__setattr__(self, "proportions", props)
        object.__setattr__(self, "support", support)

    def to_dict(self) -> dict:
        return {
            "domain": {"lo": self.domain.lo, "hi": self.domain.hi},
            "groups": [
                {"name": g, "proportion": float(p)} for g, p in zip(self.groups, self.proportions)
            ],
            "score_support": [float(s) for s in self.support],
            "score_pmf": {g: [float(v) for v in self.pmf[g]] for g in self.groups},
            "label1_prob": {g: [float(v) for v in self.label1_prob[g]] for g in self.groups},
        }

    @classmethod
    def from_dict(cls, data) -> "JointSpec":
        """Build a spec from :meth:`to_dict` output, validating every field."""
        _check_keys("spec", data, _SPEC_KEYS, SpecError)
        _check_keys("spec domain", data["domain"], {"lo", "hi"}, SpecError)
        entries = data["groups"]
        if not isinstance(entries, list):
            raise SpecError("spec groups must be a JSON array")
        groups = []
        for entry in entries:
            _check_keys("spec group entry", entry, {"name", "proportion"}, SpecError)
            if not isinstance(entry["name"], str) or entry["name"] in groups:
                raise SpecError(f"spec group names must be distinct strings, got {entry['name']!r}")
            groups.append(entry["name"])
        for table in ("score_pmf", "label1_prob"):
            _check_keys(f"spec {table}", data[table], set(groups), SpecError)

        def numbers(what, value, many=False):
            return _numbers(f"joint spec {what}", value, SpecError, many)

        try:
            lo, hi = (numbers(f"domain {k}", data["domain"][k]) for k in ("lo", "hi"))
            props = np.array([numbers(f"proportion of '{e['name']}'", e["proportion"]) for e in entries])
            support = numbers("score_support", data["score_support"], many=True)
            pmf = {g: numbers(f"score_pmf of '{g}'", data["score_pmf"][g], many=True) for g in groups}
            lab = {g: numbers(f"label1_prob of '{g}'", data["label1_prob"][g], many=True) for g in groups}
        except OverflowError as exc:  # an integer too large for a float
            raise SpecError(f"malformed joint spec ({type(exc).__name__}: {exc})") from None
        domain = _named("spec domain", ScoreDomain, lo, hi, error=SpecError)
        return cls(domain, tuple(groups), props, support, pmf, lab)

    @classmethod
    def from_json(cls, path) -> "JointSpec":
        return cls.from_dict(_read_json(path, "spec", SpecError))


def bundled_spec() -> JointSpec:
    """The synthetic 4-group example spec shipped with the package."""
    ref = importlib.resources.files("fairrepair").joinpath("data", _BUNDLED_SPEC)
    return JointSpec.from_dict(json.loads(ref.read_text(encoding="utf-8")))


def sample(spec: JointSpec, n: int, seed: int) -> ScoredDataset:
    """Draw n rows: group ~ proportions, score ~ group pmf, label ~ Bernoulli."""
    if n < 2 * len(spec.groups):
        raise SpecError(f"need n >= {2 * len(spec.groups)} for {len(spec.groups)} groups")
    rng = _rng(seed)
    gidx = rng.choice(len(spec.groups), size=n, p=spec.proportions)
    cum_pmf = np.stack([np.cumsum(spec.pmf[g]) for g in spec.groups])
    cum_pmf[:, -1] = 1.0
    u_score = rng.random(n)
    sidx = np.empty(n, dtype=int)
    for k in range(len(spec.groups)):
        mask = gidx == k
        sidx[mask] = np.searchsorted(cum_pmf[k], u_score[mask], side="left")
    scores = spec.support[sidx]
    lab_prob = np.stack([spec.label1_prob[g] for g in spec.groups])
    labels = (rng.random(n) < lab_prob[gidx, sidx]).astype(int)
    names, index = _index_groups(list(spec.groups))  # a group that drew too few rows fails the count
    return ScoredDataset._indexed(scores, names, index[gidx], labels, spec.domain, where=" in the sample")


def split(ds: ScoredDataset, fraction: float, seed: int) -> tuple[ScoredDataset, ScoredDataset]:
    """Deterministic random partition into (labeled, holdout) parts.

    Every group must survive in both parts with enough rows to validate.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError("split fraction must lie strictly between 0 and 1")
    n = len(ds)
    k = int(round(fraction * n))
    if k < 1 or k > n - 1:
        raise DatasetError("split fraction leaves one side empty")
    perm = _rng(seed).permutation(n)
    return tuple(ScoredDataset._indexed(ds.scores[idx], ds.groups, ds.group_indices[idx], ds.labels[idx], ds.domain,
                                        where=f" in the {name} part")
                 for idx, name in ((np.sort(perm[:k]), "labeled"), (np.sort(perm[k:]), "holdout")))
