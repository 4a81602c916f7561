import numpy as np
import pytest

from fairrepair import ScoreDomain, validate_dataset

UNIT = ScoreDomain(0.0, 1.0)


def make_dataset(group_scores, group_labels=None, domain=UNIT):
    """Dataset from {group: scores} plus optional {group: labels}."""
    rows = []
    for g, scores in group_scores.items():
        labels = group_labels.get(g) if group_labels else [None] * len(scores)
        rows.extend((s, g, l) for s, l in zip(scores, labels))
    return validate_dataset(rows, domain)


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


def random_distribution(rng, max_atoms=5):
    """Atoms and integer counts of a small random empirical distribution on [0, 1]."""
    k = rng.integers(2, max_atoms + 1)
    return np.sort(rng.random(k)), rng.integers(1, 10, k)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
