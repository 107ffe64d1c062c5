"""Exact selection of the k smallest entries of each row, in stable order."""
from __future__ import annotations

import numpy as np


def smallest_k(values, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries along the last axis.

    Equal to ``np.argsort(values, axis=-1, kind="stable")[..., :k]``:
    ascending, ties in index order, NaN last. Each row is partitioned at its
    k-th smallest value and only the entries not above it are sorted, every
    entry tied at that value included, so a row of n entries costs O(n) plus
    a sort of about k entries.
    """
    values = np.asarray(values)
    if k < 0:
        raise ValueError("k must be non-negative")
    n = values.shape[-1]
    k = min(k, n)
    if k == 0:
        return np.empty(values.shape[:-1] + (0,), dtype=np.intp)
    rows = values.reshape(-1, n)
    kth = np.partition(rows, k - 1, axis=1)[:, k - 1:k]
    # ~(x > kth) keeps the ties at kth and, in a row whose kth is NaN, the
    # whole row; np.nonzero lists each row's entries in index order.
    r, c = np.nonzero(~(rows > kth))
    order = np.lexsort((rows[r, c], r))   # stable: ties keep index order
    counts = np.bincount(r, minlength=len(rows))
    first = np.cumsum(counts) - counts
    picked = c[order][first[:, None] + np.arange(k)]
    return picked.reshape(values.shape[:-1] + (k,))
