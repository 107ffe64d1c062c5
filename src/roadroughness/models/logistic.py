"""Multinomial logistic regression with L2 regularization.

Minimizes mean cross-entropy plus lam * sum(W^2) (bias unpenalized) by
gradient descent with backtracking line search, stopping when the gradient
norm falls below tolerance.

The solver and the MLP run thousands of steps on arrays of a few hundred
rows, so numpy's cost per call, not the arithmetic, decides their speed.
``softmax`` takes the row max and sum over the ``N_LEVELS`` = 3 columns
one column at a time: numpy reduces a row of fewer than 8 elements left
to right, so the floats are the same, in fewer and longer calls.
Only an accepted line-search trial gets a gradient.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import N_LEVELS, training_data
from .errors import ConvergenceError

GRAD_TOL = 1e-6
MAX_ITER = 50_000


def _fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded left to right over the columns of ``a``: one call
    per column rather than numpy's row-by-row reduction loop. numpy's sum
    starts from 0.0, so it differs from this fold only on a row of -0.0s,
    which ``exp`` never gives."""
    cols = a.T
    acc = cols[0]
    for k in range(1, len(cols)):
        acc = ufunc(acc, cols[k])
    return acc


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits ``z`` (rows x classes)."""
    e = z - _fold_columns(np.maximum, z)[:, None]
    np.exp(e, out=e)
    e /= _fold_columns(np.add, e)[:, None]
    return e


def one_hot(y: np.ndarray) -> np.ndarray:
    """Rows of ``N_LEVELS`` 0.0s with 1.0 in column ``y[i]``."""
    onehot = np.zeros((len(y), N_LEVELS))
    onehot[np.arange(len(y)), y.astype(int)] = 1.0
    return onehot


def cross_entropy(p: np.ndarray, y_onehot: np.ndarray) -> float:
    """Mean cross-entropy of the probability rows ``p``."""
    logs = np.maximum(p, 1e-300)
    np.log(logs, out=logs)
    logs *= y_onehot
    return -float(np.add.reduce(logs, None)) / len(p)


def _loss(w, b, x, y_onehot, lam: float):
    """The objective and the softmax probabilities it was computed from."""
    z = x @ w
    z += b
    p = softmax(z)
    return cross_entropy(p, y_onehot) + lam * float(
        np.add.reduce(w * w, None)), p


def _grad(p, w, x, y_onehot, lam: float):
    """The objective's gradients at ``w``, from its probabilities ``p``,
    which it overwrites."""
    p -= y_onehot
    p /= len(x)
    grad_w = x.T @ p
    grad_w += 2.0 * lam * w
    return grad_w, np.add.reduce(p, 0)


def loss_and_grad(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                  y_onehot: np.ndarray, lam: float):
    """Cross-entropy + L2 objective and its analytic gradients."""
    loss, p = _loss(w, b, x, y_onehot, lam)
    return (loss, *_grad(p, w, x, y_onehot, lam))


def _descend(x: np.ndarray, y_onehot: np.ndarray, lam: float, tol: float,
             max_iter: int):
    """Returns (w, b, accepted steps)."""
    d, c = x.shape[1], y_onehot.shape[1]
    w = np.zeros((d, c))
    b = np.zeros(c)
    step = 1.0
    loss, p = _loss(w, b, x, y_onehot, lam)
    for it in range(max_iter):
        gw, gb = _grad(p, w, x, y_onehot, lam)
        gnorm2 = float(np.add.reduce(gw * gw, None) + np.add.reduce(gb * gb))
        gnorm = math.sqrt(gnorm2)
        if gnorm <= tol:
            return w, b, it
        # Armijo backtracking on the full-batch objective.
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new, p = _loss(w_new, b_new, x, y_onehot, lam)
            if loss_new <= loss - 0.5 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
        w, b, loss = w_new, b_new, loss_new
        step = min(step * 1.5, 1e4)
    raise ConvergenceError(
        f"gradient descent did not reach tolerance {tol:.1e} in "
        f"{max_iter} iterations (final gradient norm {gnorm:.3e})")


class LogisticModel:
    task = "classification"

    def __init__(self, lam: float = 0.1, tol: float = GRAD_TOL,
                 max_iter: int = MAX_ITER):
        if lam < 0:
            raise ValueError("lam must be non-negative")
        self.lam = lam
        self.tol = tol
        self.max_iter = max_iter
        self.weights: np.ndarray | None = None
        self.bias: np.ndarray | None = None
        # Solver diagnostic of the last fit: accepted descent steps.
        self.n_iter: int | None = None

    def fit(self, x, y) -> "LogisticModel":
        x, y = training_data(x, y, self.task)
        if len(np.unique(y)) < 2:
            raise ValueError("need at least 2 classes in training data")
        self.weights, self.bias, self.n_iter = _descend(
            x, one_hot(y), self.lam, self.tol, self.max_iter)
        return self

    def decision_values(self, x) -> np.ndarray:
        if self.weights is None:
            raise ValueError("model is not fitted")
        return np.asarray(x, dtype=float) @ self.weights + self.bias

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.decision_values(x), axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"lam": self.lam, "weights": self.weights.tolist(),
                "bias": self.bias.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "LogisticModel":
        model = cls(state["lam"])
        model.weights = np.array(state["weights"], dtype=float)
        model.bias = np.array(state["bias"], dtype=float)
        return model
