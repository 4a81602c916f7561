import csv
import io
import tracemalloc

import numpy as np
import pytest

from fairrepair import ScoreDomain, ScoredDataset, validate_dataset

UNIT = ScoreDomain(0.0, 1.0)


def make_dataset(group_scores, group_labels=None, domain=UNIT):
    """Dataset from {group: scores} plus optional {group: labels}."""
    rows = []
    for g, scores in group_scores.items():
        labels = group_labels.get(g) if group_labels else [None] * len(scores)
        rows.extend((s, g, l) for s, l in zip(scores, labels))
    return validate_dataset(rows, domain)


def csv_writer_bytes(header, rows) -> bytes:
    """The reference for the scored-CSV writers: what csv.writer writes in its default dialect."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def random_binary_dataset(rng, n_per_group=(300, 400), means=(0.45, 0.6), sd=0.14,
                          label_offsets=(0.05, -0.05), domain=UNIT):
    """Two clipped-Gaussian score groups with score-driven Bernoulli labels."""
    rows = []
    for g, n, mu, off in zip(("a", "b"), n_per_group, means, label_offsets):
        span = domain.hi - domain.lo
        s = np.clip(rng.normal(domain.lo + mu * span, sd * span, n), domain.lo, domain.hi)
        p = np.clip((s - domain.lo) / span + off, 0.0, 1.0)
        y = (rng.random(n) < p).astype(int)
        rows.extend((float(si), g, int(yi)) for si, yi in zip(s, y))
    return validate_dataset(rows, domain)


def two_equal_groups(n):
    """n uniform scores, alternately in groups a and b, with labels."""
    rng = np.random.default_rng(0)
    return ScoredDataset(rng.random(n), np.array(["a", "b"])[np.arange(n) % 2].tolist(), rng.integers(0, 2, n), UNIT)


def group_shares(ds):
    """Each group's share of the rows, in ``ds.groups`` order: the proportions p_g."""
    return np.bincount(ds.group_indices, minlength=len(ds.groups)) / len(ds)


def traced_peak(call) -> int:
    """The peak bytes tracemalloc traces while ``call()`` runs: the pattern of every memory budget test."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def conditional_means(ds, label):
    """Each group's mean score over its rows with ``label``, read straight off the rows."""
    rows = ds.labels == label
    return np.array([ds.scores[rows & (ds.group_indices == k)].mean() for k in range(len(ds.groups))])


def random_distribution(rng, max_atoms=5):
    """Atoms and integer counts of a small random empirical distribution on [0, 1]."""
    k = rng.integers(2, max_atoms + 1)
    return np.sort(rng.random(k)), rng.integers(1, 10, k)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
