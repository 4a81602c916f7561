"""Core domain types: score domains, scored datasets, metric selectors, CSV I/O,
JSON input checks and atomic file writes.

Scores are kept in the caller's original units.  Everything downstream that
does transport math normalizes to [0, 1] through :class:`ScoreDomain` and maps
results back, so the same code serves probability outputs and e.g. 0-100
credit-score axes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DatasetError

__all__ = [
    "ScoreDomain",
    "ScoredDataset",
    "MetricKind",
    "MetricCombo",
    "PR",
    "TPR",
    "FPR",
    "NR",
    "TNR",
    "FNR",
    "METRICS_BY_NAME",
    "parse_metric",
    "parse_combo",
    "validate_dataset",
    "subset_by_label",
    "load_csv",
    "write_csv",
]

# A group needs at least this many rows for its empirical quantile function
# to be meaningful.
MIN_ROWS_PER_GROUP = 2


@dataclass(frozen=True)
class ScoreDomain:
    """Closed interval [lo, hi] that every score must lie in."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DatasetError("score domain bounds must be finite")
        if not self.hi > self.lo:
            raise DatasetError(f"score domain needs hi > lo, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise DatasetError(f"score domain [{self.lo}, {self.hi}] has width {self.hi - self.lo}; "
                               "hi - lo must be finite")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(x)) and np.all(x >= self.lo) and np.all(x <= self.hi))

    def normalize(self, x):
        """Affine map of scores onto [0, 1]."""
        return (np.asarray(x, dtype=float) - self.lo) / self.width

    def denormalize(self, z):
        """Inverse of :meth:`normalize`."""
        return self.lo + np.asarray(z, dtype=float) * self.width


class ScoredDataset:
    """Validated collection of scored rows with a fixed domain and group order.

    Immutable after construction; the numpy views exposed here are read-only.
    Build instances through :func:`validate_dataset` (or :func:`load_csv`),
    not the constructor.
    """

    def __init__(self, scores, groups, labels, domain):
        names, group_idx = _index_groups(list(groups))
        self._init(scores, names, group_idx, labels, domain)
        for g, c in zip(self.groups, self._counts):
            if c < MIN_ROWS_PER_GROUP:
                raise DatasetError(f"group '{g}' has {c} row(s), needs at least {MIN_ROWS_PER_GROUP}")

    def _init(self, scores, groups, group_idx, labels, domain) -> None:
        scores = np.array(scores, dtype=float)
        labels = np.array(labels, dtype=int)  # -1 encodes "no label"
        if scores.ndim != 1 or group_idx.size != scores.size or labels.size != scores.size:
            raise DatasetError("scores, groups and labels must be equal-length 1-d sequences")
        if scores.size == 0:
            raise DatasetError("dataset has zero rows")
        if not np.all(np.isfinite(scores)):
            raise DatasetError("scores must be finite")
        if scores.min() < domain.lo or scores.max() > domain.hi:
            bad = scores[(scores < domain.lo) | (scores > domain.hi)][0]
            raise DatasetError(
                f"score out of domain: {bad} not in [{domain.lo}, {domain.hi}]"
            )
        ok = (labels == -1) | (labels == 0) | (labels == 1)
        if not np.all(ok):
            raise DatasetError(f"non-binary label: {labels[~ok][0]}")

        self.domain = domain
        self.groups, self._group_idx = groups, group_idx
        self._scores = scores
        self._labels = labels
        self._scores.flags.writeable = False
        self._labels.flags.writeable = False
        self._group_idx.flags.writeable = False
        self._counts = np.bincount(group_idx, minlength=len(groups))

    def _derive(self, scores, group_idx, labels) -> "ScoredDataset":
        """Rows over this dataset's groups, each group keeping at least one row."""
        out = object.__new__(ScoredDataset)
        out._init(scores, self.groups, group_idx, labels, self.domain)
        return out

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return self._scores.size

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    @property
    def labels(self) -> np.ndarray:
        """Per-row labels; -1 marks a missing label."""
        return self._labels

    @property
    def group_indices(self) -> np.ndarray:
        """Per-row index into :attr:`groups`."""
        return self._group_idx

    @property
    def is_labeled(self) -> bool:
        return bool(np.all(self._labels >= 0))

    @property
    def proportions(self) -> np.ndarray:
        """Group proportions p_g in :attr:`groups` order; sums to 1."""
        return self._counts / self._scores.size

    def group_count(self, group: str) -> int:
        return int(self._counts[self._group_index_of(group)])

    def group_scores(self, group: str) -> np.ndarray:
        return self._scores[self._group_idx == self._group_index_of(group)]

    def _group_index_of(self, group: str) -> int:
        try:
            return self.groups.index(group)
        except ValueError:
            raise DatasetError(f"unknown group '{group}'") from None

    def replace_scores(self, new_scores) -> "ScoredDataset":
        """Same rows with new scores (used by repair application)."""
        return self._derive(new_scores, self._group_idx, self._labels)


def _index_groups(groups: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct groups in lexicographic order, and each row's index into them.

    Indexes Python strings: a numpy string array would drop trailing NULs and
    merge e.g. 'a' with 'a\\0'.
    """
    names = tuple(sorted(set(groups)))
    index = {g: i for i, g in enumerate(names)}
    return names, np.fromiter((index[g] for g in groups), dtype=int, count=len(groups))


def validate_dataset(rows, domain: ScoreDomain) -> ScoredDataset:
    """Validate raw rows into a :class:`ScoredDataset`.

    Rows are (score, group[, label]) tuples.  Groups are discovered from the
    data and ordered lexicographically; every group must contribute at least
    two rows.
    """
    scores, groups, labels = [], [], []
    for row in rows:
        score, group = row[0], row[1]
        label = row[2] if len(row) > 2 else None
        scores.append(float(score) if score is not None else np.nan)
        groups.append(str(group))
        labels.append(-1 if label is None else int(label))
    return ScoredDataset(scores, groups, labels, domain)


# ---------------------------------------------------------------------------
# Metric selectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricKind:
    """A thresholded confusion-matrix rate.

    ``label_condition`` is 1, 0, or None (unconditional); ``predicted_class``
    is the predicted side whose probability the rate measures.
    """

    name: str
    label_condition: int | None
    predicted_class: int

    def __post_init__(self):
        if self.label_condition not in (None, 0, 1):
            raise DatasetError("label_condition must be 0, 1 or None")
        if self.predicted_class not in (0, 1):
            raise DatasetError("predicted_class must be 0 or 1")

    def __str__(self) -> str:
        return self.name


PR = MetricKind("pr", None, 1)
TPR = MetricKind("tpr", 1, 1)
FPR = MetricKind("fpr", 0, 1)
NR = MetricKind("nr", None, 0)
TNR = MetricKind("tnr", 0, 0)
FNR = MetricKind("fnr", 1, 0)

METRICS_BY_NAME = {m.name: m for m in (PR, TPR, FPR, NR, TNR, FNR)}


def parse_metric(name: str) -> MetricKind:
    try:
        return METRICS_BY_NAME[name.strip().lower()]
    except KeyError:
        raise DatasetError(
            f"unknown metric '{name}' (choose from {', '.join(METRICS_BY_NAME)})"
        ) from None


@dataclass(frozen=True)
class MetricCombo:
    """Nonnegatively weighted combination of metric kinds; the weights have a positive sum."""

    terms: tuple[tuple[MetricKind, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise DatasetError("metric combination needs at least one term")
        total = 0.0
        for kind, w in self.terms:
            if not (math.isfinite(w) and w >= 0):
                raise DatasetError(f"weight for {kind} must be finite and >= 0")
            total += w
        if not 0.0 < total < math.inf:
            raise DatasetError(f"metric weights must have a positive, finite sum, got {total} for '{self}'")

    @property
    def kinds(self) -> list[MetricKind]:
        return [k for k, _ in self.terms]

    @property
    def single_kind(self) -> MetricKind | None:
        return self.terms[0][0] if len(self.terms) == 1 else None

    def __str__(self) -> str:
        return ",".join(f"{k.name}:{w:g}" for k, w in self.terms)


def parse_combo(text: str) -> MetricCombo:
    """Parse ``"tpr"`` or weighted forms like ``"tpr:1,fpr:0.5"``."""
    terms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, w = part.partition(":")
            try:
                weight = float(w)
            except ValueError:
                raise DatasetError(f"bad metric weight in '{part}'") from None
        else:
            name, weight = part, 1.0
        terms.append((parse_metric(name), weight))
    return MetricCombo(tuple(terms))


# ---------------------------------------------------------------------------
# Label conditioning
# ---------------------------------------------------------------------------


def subset_by_label(ds: ScoredDataset, kind: MetricKind) -> ScoredDataset:
    """Rows matching the metric's label condition (all rows if unconditional).

    Raises if the condition needs labels the data does not carry, or if any
    group is left empty (its conditional distribution would be undefined).
    """
    if kind.label_condition is None:
        return ds
    if not ds.is_labeled:
        raise DatasetError(f"metric '{kind}' conditions on labels but the data is unlabeled")
    mask = ds.labels == kind.label_condition
    kept = np.bincount(ds.group_indices[mask], minlength=len(ds.groups))
    for g, c in zip(ds.groups, kept):
        if c == 0:
            raise DatasetError(f"group '{g}' is empty under Y={kind.label_condition}")
    return ds._derive(ds.scores[mask], ds.group_indices[mask], ds.labels[mask])


def _conditional_scores(ds: ScoredDataset, kind: MetricKind, min_rows=MIN_ROWS_PER_GROUP) -> list[np.ndarray]:
    """Each group's scores under the metric's label condition, in ``ds.groups`` order.

    Every group needs ``min_rows`` of them: by default enough for a distribution.
    """
    sub = subset_by_label(ds, kind)
    scores = [sub.group_scores(g) for g in ds.groups]
    for g, x in zip(ds.groups, scores):
        if x.size < min_rows:
            raise DatasetError(f"group '{g}' has {x.size} row(s) under Y={kind.label_condition}, "
                               f"needs at least {min_rows}")
    return scores


def _conditional_means(ds: ScoredDataset, kind: MetricKind, shift=None):
    """Each group's mean score under the metric's label condition, in ``ds.groups`` order.

    Given ``shift(group, scores)``, returns the pair (means, mean shifts).
    """
    scores = _conditional_scores(ds, kind, min_rows=1)  # subset_by_label rejects an empty group
    means = np.array([x.mean() for x in scores])
    if shift is None:
        return means
    return means, np.array([shift(g, x).mean() for g, x in zip(ds.groups, scores)])


# ---------------------------------------------------------------------------
# CSV interface: header "score,group,label", label column optional
# ---------------------------------------------------------------------------


class _ScoredCsv(NamedTuple):
    """A scored CSV: raw cells by column, the score and group parsed."""

    header: list[str]
    columns: list[list[str]]  # raw cells per header column; the score column stays empty
    lines: array              # file line each record ends on, if read from a file
    scores: np.ndarray
    groups: list[str]         # stripped

    def write(self, fh, new_scores) -> None:
        """Write the table back with each record's score cell replaced."""
        columns = list(self.columns)
        columns[self.header.index("score")] = map(repr, np.asarray(new_scores, dtype=float).tolist())
        writer = csv.writer(fh)
        writer.writerow(self.header)
        writer.writerows(zip(*columns))


def _read_scored_csv(path, domain: ScoreDomain) -> _ScoredCsv:
    """Read a CSV with 'score' and 'group' columns; errors name path:line.

    Blank lines are skipped, as csv.DictReader skips them, and short records
    are padded with empty cells.  A record may not have more cells than the
    header, and its score must be a finite number inside ``domain``.
    """
    def fail(message: str):
        return DatasetError(f"{path}:{reader.line_num}: {message}")

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or "score" not in header or "group" not in header:
                raise DatasetError(f"{path}: CSV must have 'score' and 'group' columns")
            if len(set(header)) != len(header):
                raise DatasetError(f"{path}: CSV header repeats a column name")
            width, si, gi = len(header), header.index("score"), header.index("group")
            columns = [[] for _ in header]
            raw_columns = [(j, columns[j]) for j in range(width) if j != si]
            lines, scores, groups = array("q"), array("d"), []
            for rec in reader:
                if not rec:
                    continue
                if len(rec) != width:
                    if len(rec) > width:
                        raise fail(f"{len(rec)} cells but the header has {width}")
                    rec += [""] * (width - len(rec))
                raw = rec[si].strip()
                try:
                    scores.append(float(raw))
                except ValueError:
                    raise fail(f"bad score '{raw}'" if raw else "missing score") from None
                for j, column in raw_columns:
                    column.append(rec[j])
                lines.append(reader.line_num)
                groups.append(rec[gi].strip())
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise fail(str(exc)) from None

    scores = np.array(scores, dtype=float)
    bad = np.flatnonzero(~((scores >= domain.lo) & (scores <= domain.hi)))  # NaN included
    if bad.size:
        raise DatasetError(
            f"{path}:{lines[bad[0]]}: score out of domain: {scores[bad[0]]} is not a "
            f"finite number in [{domain.lo}, {domain.hi}]"
        )
    return _ScoredCsv(header, columns, lines, scores, groups)


def load_csv(path, domain: ScoreDomain) -> ScoredDataset:
    table = _read_scored_csv(path, domain)
    labels = [-1] * len(table.groups)
    if "label" in table.header:
        raw_labels = table.columns[table.header.index("label")]
        for i, (raw, line) in enumerate(zip(raw_labels, table.lines)):
            raw = raw.strip()
            if not raw:
                continue
            try:
                labels[i] = int(raw)
            except ValueError:
                raise DatasetError(f"{path}:{line}: bad label '{raw}'") from None
            if labels[i] not in (0, 1):
                raise DatasetError(f"{path}:{line}: non-binary label: {labels[i]}")
    return ScoredDataset(table.scores, table.groups, labels, domain)


def write_csv(ds: ScoredDataset, path) -> None:
    """Write ``ds`` as a scored CSV; an existing file is replaced only once the write succeeds.

    The label column is written when any row has a label, with an empty cell
    for each missing one.
    """
    groups = [ds.groups[g] for g in ds.group_indices.tolist()]
    header, columns = ["score", "group"], [[], groups]
    if ds.labels.max() >= 0:
        header.append("label")
        columns.append(["" if y < 0 else y for y in ds.labels.tolist()])  # csv.writer formats the ints
    table = _ScoredCsv(header, columns, array("q"), ds.scores, groups)
    _atomic_write(path, lambda fh: table.write(fh, ds.scores))


def _atomic_write(path, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then rename it over ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_json(path, what: str, error: type[Exception]):
    """Parse the JSON file at ``path``; bad JSON or non-UTF-8 bytes raise ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError included
            raise error(f"{path}: not valid {what} JSON ({exc})") from None


def _check_keys(what: str, obj, keys: set[str], error: type[Exception] = DatasetError) -> None:
    if not isinstance(obj, dict) or set(obj) != keys:
        raise error(f"{what} must be a JSON object with exactly the keys {sorted(keys)}")


def _numbers(what: str, value, error: type[Exception] = DatasetError, many: bool = False):
    """A JSON number as a float, or with ``many`` a JSON array of them as a float array.

    float() would also take a boolean or a numeric string; here either one is
    an error that names the field.
    """
    if many and not isinstance(value, list):
        raise error(f"malformed {what}: expected a JSON array, got {type(value).__name__}")
    for v in value if many else [value]:
        if type(v) not in (int, float):
            raise error(f"malformed {what}: {v!r:.40} is not a JSON number")
    return np.array(value, dtype=float) if many else float(value)


def _named(what: str, make, *args, error: type[Exception] = DatasetError):
    """``make(*args)``, a ``DatasetError`` from it naming ``what`` and raised as ``error``."""
    try:
        return make(*args)
    except DatasetError as exc:
        raise error(f"{what}: {exc}") from None


def _write_json(path, payload) -> None:
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)  # streamed: no whole-text copy
        fh.write("\n")

    _atomic_write(path, write)
