"""Gaussian naive Bayes classification."""
from __future__ import annotations

import numpy as np

from ..core import N_LEVELS, training_data

VAR_FLOOR = 1e-9


class GaussianNBModel:
    """Class priors from frequencies and per-class per-feature Gaussians with
    a variance floor; prediction maximizes the log posterior."""

    task = "classification"

    def __init__(self):
        self.log_prior: np.ndarray | None = None
        self.mean: np.ndarray | None = None
        self.var: np.ndarray | None = None

    def fit(self, x, y) -> "GaussianNBModel":
        x, y = training_data(x, y, self.task)
        counts = np.bincount(y, minlength=N_LEVELS)
        present = counts > 0
        d = x.shape[1]
        self.mean = np.zeros((N_LEVELS, d))
        self.var = np.full((N_LEVELS, d), VAR_FLOOR)
        log_prior = np.full(N_LEVELS, -np.inf)
        for k in range(N_LEVELS):
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
        out = np.empty((len(x), N_LEVELS))
        for k in range(N_LEVELS):
            ll = -0.5 * np.sum(np.log(2.0 * np.pi * self.var[k])
                               + (x - self.mean[k]) ** 2 / self.var[k], axis=1)
            out[:, k] = self.log_prior[k] + ll
        return out

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.log_posterior(x), axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"log_prior": self.log_prior.tolist(),
                "mean": self.mean.tolist(), "var": self.var.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "GaussianNBModel":
        model = cls()
        model.log_prior = np.array(state["log_prior"], dtype=float)
        model.mean = np.array(state["mean"], dtype=float)
        model.var = np.array(state["var"], dtype=float)
        return model
