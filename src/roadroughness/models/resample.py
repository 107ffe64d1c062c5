"""Adaptive synthetic oversampling for imbalanced ordinal classes.

Each minority class is grown to the majority count. Synthetic rows are
allocated per sample proportionally to the fraction of non-minority
neighbors among its k nearest rows (harder samples get more), then drawn on
the line segment between the sample and a random same-class neighbor.
"""
from __future__ import annotations

import warnings

import numpy as np

from .neighbors import nearest_neighbours

DEFAULT_K = 5


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` proportional to ``weights``."""
    if weights.sum() <= 0:
        weights = np.ones_like(weights)
    quota = weights / weights.sum() * total
    counts = np.floor(quota).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def adasyn_resample(x, y, k_neighbors: int = DEFAULT_K, seed: int = 0):
    """Returns (x_out, y_out) with every class brought up to the majority
    count, except a class with a single sample, which has no neighbour to
    interpolate towards and is left as it is. A balanced input is returned
    unchanged."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    counts = np.bincount(y)
    classes = np.flatnonzero(counts)
    if len(classes) < 2:
        raise ValueError("oversampling requires at least 2 classes")
    majority = int(counts.max())
    rng = np.random.default_rng(seed)
    x_parts = [x]
    y_parts = [y]
    for cls in classes:
        deficit = majority - int(counts[cls])
        if deficit == 0:
            continue
        members = np.flatnonzero(y == cls)
        k_all = min(k_neighbors, len(x) - 1)
        k_cls = min(k_neighbors, len(members) - 1)
        if k_cls < 1:
            warnings.warn(f"class {cls} has a single sample; left "
                          "un-oversampled", stacklevel=2)
            continue
        if k_all < k_neighbors or k_cls < k_neighbors:
            warnings.warn(
                f"reducing k_neighbors to {min(k_all, k_cls)} for class {cls}"
                " (not enough samples)", stacklevel=2)
        # Hardness ratio: share of other-class rows among the k nearest
        # neighbors in the full dataset. A query row is at distance 0 from
        # itself, so the nearest of k + 1 neighbours is dropped.
        nn_all = nearest_neighbours(x, x[members], k_all + 1)[:, 1:]
        ratio = np.mean(y[nn_all] != cls, axis=1)
        alloc = _largest_remainder(ratio, deficit)
        nn_cls = nearest_neighbours(x[members], x[members], k_cls + 1)[:, 1:]
        for m, n_new in enumerate(alloc):
            if n_new == 0:
                continue
            base = x[members[m]]
            picks = rng.integers(0, k_cls, n_new)
            gaps = rng.random(n_new)
            neigh = x[members[nn_cls[m, picks]]]
            x_parts.append(base + gaps[:, None] * (neigh - base))
            y_parts.append(np.full(n_new, cls, dtype=int))
    if len(x_parts) == 1:
        return x, y
    return np.vstack(x_parts), np.concatenate(y_parts)
