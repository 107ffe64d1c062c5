"""Gaussian naive Bayes classification."""
from __future__ import annotations

import numpy as np

from .tree import N_CLASSES

VAR_FLOOR = 1e-9


class GaussianNBModel:
    """Class priors from frequencies and per-class per-feature Gaussians with
    a variance floor; prediction maximizes the log posterior."""

    task = "classification"

    def __init__(self, n_classes: int = N_CLASSES):
        self.n_classes = n_classes
        self.log_prior: np.ndarray | None = None
        self.mean: np.ndarray | None = None
        self.var: np.ndarray | None = None

    def fit(self, x, y) -> "GaussianNBModel":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        counts = np.bincount(y, minlength=self.n_classes)
        present = counts > 0
        if present.sum() < 1:
            raise ValueError("empty training set")
        d = x.shape[1]
        self.mean = np.zeros((self.n_classes, d))
        self.var = np.full((self.n_classes, d), VAR_FLOOR)
        log_prior = np.full(self.n_classes, -np.inf)
        for k in range(self.n_classes):
            if not present[k]:
                continue
            xk = x[y == k]
            self.mean[k] = xk.mean(axis=0)
            self.var[k] = np.maximum(xk.var(axis=0), VAR_FLOOR)
            log_prior[k] = np.log(counts[k] / len(y))
        self.log_prior = log_prior
        return self

    def log_posterior(self, x) -> np.ndarray:
        """Unnormalized log P(class | x) per row and class."""
        if self.mean is None:
            raise ValueError("model is not fitted")
        x = np.asarray(x, dtype=float)
        out = np.empty((len(x), self.n_classes))
        for k in range(self.n_classes):
            ll = -0.5 * np.sum(np.log(2.0 * np.pi * self.var[k])
                               + (x - self.mean[k]) ** 2 / self.var[k], axis=1)
            out[:, k] = self.log_prior[k] + ll
        return out

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.log_posterior(x), axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"n_classes": self.n_classes,
                "log_prior": self.log_prior.tolist(),
                "mean": self.mean.tolist(), "var": self.var.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "GaussianNBModel":
        model = cls(state["n_classes"])
        model.log_prior = np.array(state["log_prior"], dtype=float)
        model.mean = np.array(state["mean"], dtype=float)
        model.var = np.array(state["var"], dtype=float)
        return model
