"""Adaptive synthetic oversampling for imbalanced ordinal classes.

Each minority class is grown to the majority count. Synthetic rows are
allocated per sample proportionally to the fraction of non-minority
neighbors among its k nearest rows (harder samples get more), then drawn on
the line segment between the sample and a random same-class neighbor.
"""
from __future__ import annotations

import warnings

import numpy as np

from .neighbors import query_chunk

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


def _knn_indices(x: np.ndarray, query: np.ndarray, k: int,
                 exclude_self: bool) -> np.ndarray:
    first = 1 if exclude_self else 0
    chunk = query_chunk(x.shape)
    out = np.empty((len(query), k), dtype=np.intp)
    for lo in range(0, len(query), chunk):
        q = query[lo:lo + chunk]
        d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        out[lo:lo + chunk] = order[:, first:first + k]
    return out


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
        # neighbors in the full dataset.
        nn_all = _knn_indices(x, x[members], k_all, exclude_self=True)
        ratio = np.mean(y[nn_all] != cls, axis=1)
        alloc = _largest_remainder(ratio, deficit)
        nn_cls = _knn_indices(x[members], x[members], k_cls,
                              exclude_self=True)
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
