"""Multinomial logistic regression with L2 regularization.

Minimizes mean cross-entropy plus lam * sum(W^2) (bias unpenalized) by
gradient descent with backtracking line search, stopping when the gradient
norm falls below tolerance.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

GRAD_TOL = 1e-6
MAX_ITER = 50_000


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                  y_onehot: np.ndarray, lam: float):
    """Cross-entropy + L2 objective and its analytic gradients."""
    n = len(x)
    p = softmax(x @ w + b)
    ce = -float(np.sum(y_onehot * np.log(np.clip(p, 1e-300, None)))) / n
    loss = ce + lam * float(np.sum(w ** 2))
    diff = (p - y_onehot) / n
    grad_w = x.T @ diff + 2.0 * lam * w
    grad_b = diff.sum(axis=0)
    return loss, grad_w, grad_b


def _descend(x: np.ndarray, y_onehot: np.ndarray, lam: float, tol: float,
             max_iter: int):
    d, c = x.shape[1], y_onehot.shape[1]
    w = np.zeros((d, c))
    b = np.zeros(c)
    step = 1.0
    loss, gw, gb = loss_and_grad(w, b, x, y_onehot, lam)
    for _ in range(max_iter):
        gnorm2 = float(np.sum(gw ** 2) + np.sum(gb ** 2))
        gnorm = np.sqrt(gnorm2)
        if gnorm <= tol:
            return w, b
        # Armijo backtracking on the full-batch objective.
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, gw_new, gb_new = loss_and_grad(w_new, b_new, x,
                                                     y_onehot, lam)
            if loss_new <= loss - 0.5 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
        step = min(step * 1.5, 1e4)
    raise ConvergenceError(
        f"gradient descent did not reach tolerance {tol:.1e} in "
        f"{max_iter} iterations (final gradient norm {gnorm:.3e})")


class LogisticModel:
    task = "classification"

    def __init__(self, lam: float = 0.1, n_classes: int = 3,
                 tol: float = GRAD_TOL, max_iter: int = MAX_ITER):
        if lam < 0:
            raise ValueError("lam must be non-negative")
        self.lam = lam
        self.n_classes = n_classes
        self.tol = tol
        self.max_iter = max_iter
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None

    def fit(self, x, y) -> "LogisticModel":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        if len(np.unique(y)) < 2:
            raise ValueError("need at least 2 classes in training data")
        onehot = np.zeros((len(y), self.n_classes))
        onehot[np.arange(len(y)), y] = 1.0
        self.weights, self.bias = _descend(x, onehot, self.lam, self.tol,
                                           self.max_iter)
        return self

    def decision_values(self, x) -> np.ndarray:
        if self.weights is None:
            raise ValueError("model is not fitted")
        return np.asarray(x, dtype=float) @ self.weights + self.bias

    def predict_proba(self, x) -> np.ndarray:
        return softmax(self.decision_values(x))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.decision_values(x), axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"lam": self.lam, "n_classes": self.n_classes,
                "weights": self.weights.tolist(), "bias": self.bias.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "LogisticModel":
        model = cls(state["lam"], state["n_classes"])
        model.weights = np.array(state["weights"], dtype=float)
        model.bias = np.array(state["bias"], dtype=float)
        return model
