"""k-nearest-neighbor regression and classification."""
from __future__ import annotations

import numpy as np

from ..core import N_LEVELS, training_data
from ..topk import smallest_k

# Bytes of the (query chunk x n_train x d) difference tensor built per chunk
# of a brute-force neighbour search.
CHUNK_BYTES = 1 << 24


def query_chunk(train_shape: tuple[int, ...]) -> int:
    """Query rows per chunk so that the difference tensor against a training
    matrix of ``train_shape`` stays within CHUNK_BYTES."""
    n_train, d = train_shape
    return max(1, CHUNK_BYTES // (8 * max(1, n_train * d)))


def nearest_neighbours(x_train: np.ndarray, query: np.ndarray,
                       k: int) -> np.ndarray:
    """Indices into ``x_train`` of each query row's ``k`` nearest rows by
    Euclidean distance, nearest first, ties to the lower index."""
    chunk = query_chunk(x_train.shape)
    out = np.empty((len(query), min(k, len(x_train))), dtype=np.intp)
    for lo in range(0, len(query), chunk):
        q = query[lo:lo + chunk]
        d2 = ((q[:, None, :] - x_train[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + chunk] = smallest_k(d2, k)
    return out


class KnnModel:
    """Stores the training set; prediction aggregates the k nearest rows by
    Euclidean distance. Distance ties go to the lower row index and vote
    ties to the lower ordinal class."""

    def __init__(self, k: int = 5, task: str = "regression"):
        if k < 1:
            raise ValueError("k must be positive")
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task: {task}")
        self.k = k
        self.task = task
        self.x_train: np.ndarray | None = None
        self.y_train: np.ndarray | None = None

    def fit(self, x, y) -> "KnnModel":
        x, y = training_data(x, y, self.task)
        if self.k > len(x):
            raise ValueError(f"k={self.k} exceeds {len(x)} training rows")
        self.x_train = x
        self.y_train = np.asarray(y, dtype=float)
        return self

    def predict(self, x) -> np.ndarray:
        if self.x_train is None:
            raise ValueError("model is not fitted")
        nearest = nearest_neighbours(self.x_train,
                                     np.asarray(x, dtype=float), self.k)
        vals = self.y_train[nearest]
        if self.task == "regression":
            return vals.mean(axis=1)
        votes = (vals.astype(int)[:, :, None]
                 == np.arange(N_LEVELS)).sum(axis=1)
        return np.argmax(votes, axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"k": self.k, "task": self.task,
                "x_train": self.x_train.tolist(),
                "y_train": self.y_train.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "KnnModel":
        return cls(state["k"], state["task"]).fit(
            state["x_train"], state["y_train"])
