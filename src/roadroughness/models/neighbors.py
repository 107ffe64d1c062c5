"""k-nearest-neighbor regression and classification."""
from __future__ import annotations

import numpy as np

from .tree import N_CLASSES

# Bytes of the (query chunk x n_train x d) difference tensor built per chunk
# of a brute-force neighbour search.
CHUNK_BYTES = 1 << 24


def query_chunk(train_shape: tuple[int, ...]) -> int:
    """Query rows per chunk so that the difference tensor against a training
    matrix of ``train_shape`` stays within CHUNK_BYTES."""
    n_train, d = train_shape
    return max(1, CHUNK_BYTES // (8 * max(1, n_train * d)))


class KnnModel:
    """Stores the training set; prediction aggregates the k nearest rows by
    Euclidean distance. Distance ties go to the lower row index and vote
    ties to the lower ordinal class."""

    def __init__(self, k: int = 5, task: str = "regression",
                 n_classes: int = N_CLASSES):
        if k < 1:
            raise ValueError("k must be positive")
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task: {task}")
        self.k = k
        self.task = task
        self.n_classes = n_classes
        self.x_train: np.ndarray | None = None
        self.y_train: np.ndarray | None = None

    def fit(self, x, y) -> "KnnModel":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.k > len(x):
            raise ValueError(f"k={self.k} exceeds {len(x)} training rows")
        self.x_train = x
        self.y_train = y
        return self

    def predict(self, x) -> np.ndarray:
        if self.x_train is None:
            raise ValueError("model is not fitted")
        x = np.asarray(x, dtype=float)
        out = np.empty(len(x))
        chunk = query_chunk(self.x_train.shape)
        for lo in range(0, len(x), chunk):
            q = x[lo:lo + chunk]
            d2 = ((q[:, None, :] - self.x_train[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
            vals = self.y_train[nearest]
            if self.task == "regression":
                out[lo:lo + chunk] = vals.mean(axis=1)
            else:
                for i, row in enumerate(vals.astype(int)):
                    counts = np.bincount(row, minlength=self.n_classes)
                    out[lo + i] = float(np.argmax(counts))
        return out

    def state_dict(self) -> dict:
        return {"k": self.k, "task": self.task, "n_classes": self.n_classes,
                "x_train": self.x_train.tolist(),
                "y_train": self.y_train.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "KnnModel":
        model = cls(state["k"], state["task"], state["n_classes"])
        model.x_train = np.array(state["x_train"], dtype=float)
        model.y_train = np.array(state["y_train"], dtype=float)
        return model
