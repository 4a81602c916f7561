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

    def normalize(self, x):
        """Affine map of scores onto [0, 1]."""
        return (np.asarray(x, dtype=float) - self.lo) / self.width

    def denormalize(self, z):
        """Inverse of :meth:`normalize`, clipped into [lo, hi]: lo + 1 * width can round past hi."""
        return np.clip(self.lo + np.asarray(z, dtype=float) * self.width, self.lo, self.hi)


class ScoredDataset:
    """Validated collection of scored rows with a fixed domain and group order.

    Immutable after construction; the numpy views exposed here are read-only.
    The constructor takes the scores, group names and labels as sequences;
    :func:`validate_dataset` takes rows and :func:`load_csv` a file, all checked alike.
    Groups are counted only where their sizes are checked.
    """

    def __init__(self, scores, groups, labels, domain):
        names, index = _index_groups(list(groups))
        self._init(_floats(scores, "non-numeric score"), names, index, _floats(labels, "non-binary label"),
                   domain, MIN_ROWS_PER_GROUP)

    @classmethod
    def _indexed(cls, scores, groups, group_idx, labels, domain, min_rows=MIN_ROWS_PER_GROUP, where=""):
        """As the constructor, from sorted distinct ``groups`` and each row's index into them;
        keeps the arrays, uncopied: float scores and int (or float) labels that no one else holds.
        ``where`` says where the rows were counted, for the too-few-rows error."""
        out = object.__new__(cls)
        out._init(scores, groups, group_idx, labels, domain, min_rows, where)
        return out

    def _init(self, scores, groups, group_idx, labels, domain, min_rows, where="") -> None:
        if scores.ndim != 1 or group_idx.size != scores.size or labels.size != scores.size:
            raise DatasetError("scores, groups and labels must be equal-length 1-d sequences")
        if scores.size == 0:
            raise DatasetError("dataset has zero rows")
        if not np.all(np.isfinite(scores)):
            raise DatasetError("scores must be finite")
        if scores.min() < domain.lo or scores.max() > domain.hi:
            bad = scores[(scores < domain.lo) | (scores > domain.hi)][0]
            raise DatasetError(f"score out of domain: {bad} not in [{domain.lo}, {domain.hi}]")
        ok = (labels == -1) | (labels == 0) | (labels == 1)  # -1 encodes "no label"
        if not np.all(ok):
            raise DatasetError(f"non-binary label: {labels[~ok][0]}")

        if min_rows:  # before the index is read-only, which np.bincount would copy
            _check_rows(groups, np.bincount(group_idx, minlength=len(groups)), min_rows, where)
        self.domain = domain
        self.groups, self._group_idx = groups, group_idx
        self._scores, self._labels = scores, labels.astype(int, copy=False)
        for a in (self._scores, self._labels, group_idx):
            a.flags.writeable = False

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

    def group_scores(self, group: str) -> np.ndarray:
        if group not in self.groups:
            raise DatasetError(f"unknown group '{group}'")
        return self._scores[self._group_idx == self.groups.index(group)]

    def replace_scores(self, new_scores) -> "ScoredDataset":
        """Same rows with new scores (used by repair application)."""
        return self._indexed(_floats(new_scores, "non-numeric score"), self.groups, self._group_idx,
                             self._labels, self.domain, 0)


def _check_rows(groups, counts, min_rows: int, where: str) -> None:
    """Raise unless each group's count is at least ``min_rows``; ``where`` says where the rows were counted."""
    for g, c in zip(groups, counts):
        if c < min_rows:
            raise DatasetError(f"group '{g}' has {c} row(s){where}, needs at least {min_rows}")


def _floats(values, what: str) -> np.ndarray:
    """A float copy of ``values``, so a dataset shares no caller's array and a label 0.5 is not cut to 0."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:  # the string "a", say
        raise DatasetError(f"{what}: {exc}") from None


def _index_groups(groups: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct groups in lexicographic order, and each row's index into them.

    Indexes Python strings: a numpy string array would drop trailing NULs and
    merge e.g. 'a' with 'a\\0'.
    """
    try:
        names = set(groups)
    except TypeError:  # an unhashable name, which the check below reports
        names = groups
    for g in names:
        if not isinstance(g, str) or not g:
            raise DatasetError(f"group names must be non-empty strings, got {g!r}")
    names = tuple(sorted(names))
    index = {g: i for i, g in enumerate(names)}
    return names, np.fromiter(map(index.__getitem__, groups), dtype=int, count=len(groups))


def validate_dataset(rows, domain: ScoreDomain) -> ScoredDataset:
    """Validate raw rows into a :class:`ScoredDataset`.

    Rows are (score, group[, label]) tuples, checked as the constructor checks
    them.  Groups are discovered from the data and ordered lexicographically;
    every group must contribute at least two rows.
    """
    scores, groups, labels = [], [], []
    for row in rows:
        try:
            score, group = row[0], row[1]
            label = row[2] if len(row) > 2 and row[2] is not None else -1
        except (TypeError, LookupError):  # not a sequence, or too short
            raise DatasetError(f"row {row!r:.40} needs a score and a group") from None
        scores.append(score)
        groups.append(group)
        labels.append(label)
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
    """Nonnegatively weighted combination of distinct metric kinds; the weights have a positive sum."""

    terms: tuple[tuple[MetricKind, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise DatasetError("metric combination needs at least one term")
        total = 0.0
        for i, (kind, w) in enumerate(self.terms):
            if kind in self.kinds[:i]:
                raise DatasetError(f"metric '{kind}' is named twice in '{self}'")
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
    group_idx = ds.group_indices[mask]
    _check_rows(ds.groups, np.bincount(group_idx, minlength=len(ds.groups)), 1, f" under Y={kind.label_condition}")
    return ds._indexed(ds.scores[mask], ds.groups, group_idx, ds.labels[mask], ds.domain, 0)


def _conditional_scores(ds: ScoredDataset, kind: MetricKind, min_rows=MIN_ROWS_PER_GROUP) -> list[np.ndarray]:
    """Each group's scores under the metric's label condition, in ``ds.groups`` order.

    Every group needs ``min_rows`` of them: by default enough for a distribution.
    """
    sub = subset_by_label(ds, kind)
    scores = [sub.group_scores(g) for g in ds.groups]
    where = "" if kind.label_condition is None else f" under Y={kind.label_condition}"
    _check_rows(ds.groups, [x.size for x in scores], min_rows, where)
    return scores


# ---------------------------------------------------------------------------
# CSV interface: header "score,group,label", label column optional
# ---------------------------------------------------------------------------


def _quote(cell: str) -> str:
    """``cell`` as csv.writer's default (minimal) quoting writes it."""
    quote = "," in cell or '"' in cell or "\r" in cell or "\n" in cell
    return '"' + cell.replace('"', '""') + '"' if quote else cell


class _ScoredCsv(NamedTuple):
    """A scored CSV by column: the scores parsed, every other cell kept raw."""

    columns: dict       # by name in file order: None for the score; (distinct cells, row index,
                        # line each cell first appears on) for group and label; else the cells
    scores: np.ndarray

    def write(self, fh, new_scores, chunk=1 << 14) -> None:
        """Write the table, each score as ``repr(float)``, ``chunk`` rows at a time, as csv.writer would."""
        fh.write(",".join(map(_quote, self.columns)) + "\r\n")
        quoted = [[_quote(c) for c in col[0]] if isinstance(col, tuple) else None for col in self.columns.values()]
        for start in range(0, new_scores.size, chunk):
            part = slice(start, start + chunk)
            cells = [map(repr, new_scores[part].tolist()) if col is None
                     else map(q.__getitem__, col[1][part].tolist()) if q is not None
                     else map(_quote, col[part]) for col, q in zip(self.columns.values(), quoted)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _read_scored_csv(path, domain: ScoreDomain) -> _ScoredCsv:
    """Read a CSV with 'score' and 'group' columns in one pass; errors name path:line.

    A UTF-8 byte-order mark is skipped, and so are blank lines, as
    csv.DictReader skips them; short records are padded with empty cells.
    Each record is checked as it is read: it may not have more cells than
    the header or a blank group, and its score must be a finite number inside
    ``domain``.  Group and label cells are keyed by raw text, each distinct
    one checked once and kept with the line it first appears on.
    """
    def fail(message: str):
        return DatasetError(f"{path}:{reader.line_num}: {message}")

    lo, hi = domain.lo, domain.hi
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or "score" not in header or "group" not in header:
                raise DatasetError(f"{path}: CSV must have 'score' and 'group' columns")
            if len(set(header)) != len(header):
                raise DatasetError(f"{path}: CSV header repeats a column name")
            width, si, gi = len(header), header.index("score"), header.index("group")
            columns = {n: None if n == "score" else ({}, array("q"), array("q")) if n in ("group", "label") else []
                       for n in header}
            keyed = [(j, *c) for j, c in enumerate(columns.values()) if isinstance(c, tuple)]
            others = [(j, c) for j, c in enumerate(columns.values()) if isinstance(c, list)]
            scores = array("d")
            for rec in reader:
                if len(rec) != width:
                    if not rec:
                        continue
                    if len(rec) > width:
                        raise fail(f"{len(rec)} cells but the header has {width}")
                    rec += [""] * (width - len(rec))
                raw = rec[si].strip()
                try:
                    x = float(raw)
                except ValueError:
                    raise fail(f"bad score '{raw}'" if raw else "missing score") from None
                for j, ids, index, first in keyed:
                    k = ids.get(rec[j])
                    if k is None:
                        if j == gi and not rec[j].strip():
                            raise fail("missing group")
                        k = ids[rec[j]] = len(ids)
                        first.append(reader.line_num)
                    index.append(k)
                if not lo <= x <= hi:  # NaN included; after the group, which a record reports first
                    raise fail(f"score out of domain: {x} is not a finite number in [{lo}, {hi}]")
                scores.append(x)
                for j, column in others:
                    column.append(rec[j])
    except UnicodeDecodeError:
        raise DatasetError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise fail(str(exc)) from None

    columns = {n: (tuple(c[0]), np.frombuffer(c[1], dtype=np.int64), c[2]) if isinstance(c, tuple) else c
               for n, c in columns.items()}
    return _ScoredCsv(columns, np.frombuffer(scores))


def load_csv(path, domain: ScoreDomain) -> ScoredDataset:
    """A scored CSV as a dataset; group and label cells are stripped, and an empty label is missing.

    The first bad label is named at the line it first appears on.  The dataset keeps the read arrays."""
    table = _read_scored_csv(path, domain)
    cells, index, _ = table.columns["group"]
    groups, group_idx = _index_groups([c.strip() for c in cells])
    if "label" not in table.columns:
        labels = np.full(table.scores.size, -1)
    else:
        cells, ids, lines = table.columns["label"]
        values = []
        for raw, line in zip(map(str.strip, cells), lines):  # in file order
            try:
                values.append(int(raw) if raw else -1)
            except ValueError:
                raise DatasetError(f"{path}:{line}: bad label '{raw}'") from None
            if raw and values[-1] not in (0, 1):
                raise DatasetError(f"{path}:{line}: non-binary label: {values[-1]}")
        labels = np.array(values)[ids]
    return _named(path, ScoredDataset._indexed, table.scores, groups, group_idx[index], labels, domain)


def write_csv(ds: ScoredDataset, path) -> None:
    """Write ``ds`` as a scored CSV; an existing file is replaced only once the write succeeds.

    The label column is written when any row has a label, with an empty cell
    for each missing one.
    """
    columns = {"score": None, "group": (ds.groups, ds.group_indices, ())}
    if ds.labels.max() >= 0:
        columns["label"] = (("", "0", "1"), ds.labels + 1, ())
    table = _ScoredCsv(columns, ds.scores)
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
    """Parse the JSON file at ``path``; bad JSON, non-UTF-8 bytes or nesting too
    deep for the parser raise ``error``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
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
