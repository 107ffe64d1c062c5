"""Constant-output reference models."""
from __future__ import annotations

import numpy as np

from ..core import N_LEVELS, training_data


class BaselineModel:
    """Predicts the train mean (regression) or majority class (classification),
    with class ties resolved to the lower ordinal."""

    def __init__(self, task: str = "regression"):
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task: {task}")
        self.task = task
        self.constant: float | None = None

    def fit(self, x, y) -> "BaselineModel":
        _, y = training_data(x, y, self.task)
        if self.task == "regression":
            self.constant = float(np.mean(y))
        else:
            counts = np.bincount(y, minlength=N_LEVELS)
            self.constant = float(np.argmax(counts))
        return self

    def predict(self, x) -> np.ndarray:
        if self.constant is None:
            raise ValueError("model is not fitted")
        return np.full(len(np.asarray(x)), self.constant)

    def state_dict(self) -> dict:
        return {"task": self.task, "constant": self.constant}

    @classmethod
    def from_state(cls, state: dict) -> "BaselineModel":
        model = cls(state["task"])
        model.constant = state["constant"]
        return model
