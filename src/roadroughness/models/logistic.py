"""Multinomial logistic regression with L2 regularization.

Minimizes mean cross-entropy plus lam * sum(W^2) (bias unpenalized) by
gradient descent with backtracking line search, stopping when the gradient
norm falls below tolerance.

The solver and the MLP run thousands of steps on arrays of a few hundred
rows, so numpy's cost per call, not the arithmetic, decides their speed.
``softmax`` takes the row max and sum over the ``N_LEVELS`` = 3 columns
one column at a time: numpy reduces a row of fewer than 8 elements left
to right, so the floats are the same, in fewer and longer calls.

The solver (``_objective``, ``_descend``) goes further and works
class-major. Once per fit it builds ``x1T``, the columns of x plus a row
of ones ((d + 1) x n), and ``yT`` (c x n); the parameters are one
(d + 1) x c array ``wb``, the rows of w and then b. A line-search trial
is then one update, ``wb - step * gwb``, and its logits one product,
``wb.T @ x1T``. The softmax reduces whole class rows
(``np.maximum.reduce`` and ``np.add.reduce`` over axis 0 fold the
classes left to right, as ``_fold_columns`` does), then subtracts,
exponentiates and divides in place. Only an accepted trial gets a
gradient. Five rules keep every iterate equal to the row-major solver's,
bit for bit:

- ``wb.T @ x1T`` has the bits of ``(x @ w + b).T`` where both are
  matrix-matrix products. With one row or one class numpy multiplies a
  matrix by a vector, which sums the rows of ``x1T`` in blocks, so the
  bias row would join a partial sum: there the bias is added after
  ``w.T @ x.T``;
- the cross-entropy sums the same n * c values in row-major order
  (numpy sums a flattened array pairwise, so the order decides the bits):
  its last product is written into a row-major buffer;
- ``x.T @ p`` runs on a row-major (n, c) copy of the residuals, one
  transposed copy per gradient: ``pT @ x``, ``xT @ p`` and the augmented
  ``x1T @ p`` round differently;
- the bias gradient is ``np.add.accumulate(pT, 1)[:, -1]``, the same
  sequential sum as ``np.add.reduce(p, 0)``, in one call per class
  rather than one per row;
- the gradient norm stays two sums, over the w part and the b part.
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


def _objective(x: np.ndarray, y_onehot: np.ndarray, lam: float):
    """The objective of one fit and its gradient as functions of the
    class-major parameters ``wb``: ``(loss, grad)``.

    ``loss(wb)`` leaves its softmax probabilities in ``pT``. ``grad(wb)``,
    called after ``loss`` of the same ``wb``, turns them into residuals
    and returns the (d + 1) x c gradient in a buffer that its next call
    overwrites. Both work in buffers allocated here, once per fit.
    """
    n, d = x.shape
    c = y_onehot.shape[1]
    xT = x.T
    x1T = np.ones((d + 1, n))
    x1T[:d] = xT
    yT = np.ascontiguousarray(y_onehot.T)
    pT = np.empty(yT.shape)
    work = np.empty(yT.shape)
    logs = np.empty(y_onehot.shape)             # row-major, written as logsT
    p = np.empty(y_onehot.shape)                # row-major, written as pview
    logsT, pview = logs.T, p.T
    gwb = np.empty((d + 1, c))
    gw, gb = gwb[:-1], gwb[-1]
    penalty = 2.0 * lam
    fold_bias = min(n, c) > 1

    def loss(wb: np.ndarray) -> float:
        if fold_bias:
            np.matmul(wb.T, x1T, out=pT)
        else:
            np.matmul(wb[:-1].T, xT, out=pT)
            np.add(pT, wb[-1, :, None], out=pT)
        np.subtract(pT, np.maximum.reduce(pT, 0), out=pT)
        np.exp(pT, out=pT)
        np.divide(pT, np.add.reduce(pT, 0), out=pT)
        np.maximum(pT, 1e-300, out=work)
        np.log(work, out=work)
        np.multiply(work, yT, out=logsT)
        w = wb[:-1]
        return -float(np.add.reduce(logs, None)) / n + lam * float(
            np.add.reduce(w * w, None))

    def grad(wb: np.ndarray) -> np.ndarray:
        np.subtract(pT, yT, out=pT)
        np.divide(pT, n, out=pT)
        pview[...] = pT
        np.matmul(xT, p, out=gw)
        np.add(gw, penalty * wb[:-1], out=gw)
        np.add.accumulate(pT, 1, out=work)
        gb[...] = work[:, -1]
        return gwb

    return loss, grad


def loss_and_grad(w: np.ndarray, b: np.ndarray, x: np.ndarray,
                  y_onehot: np.ndarray, lam: float):
    """Cross-entropy + L2 objective and its analytic gradients."""
    loss, grad = _objective(x, y_onehot, lam)
    wb = np.vstack([w, b])
    value = loss(wb)
    gwb = grad(wb)
    return value, gwb[:-1], gwb[-1]


def _descend(x: np.ndarray, y_onehot: np.ndarray, lam: float, tol: float,
             max_iter: int):
    """Returns (w, b, accepted steps)."""
    objective, gradient = _objective(x, y_onehot, lam)
    wb = np.zeros((x.shape[1] + 1, y_onehot.shape[1]))
    step = 1.0
    loss = objective(wb)
    for it in range(max_iter):
        gwb = gradient(wb)
        sq = gwb * gwb
        gnorm2 = float(np.add.reduce(sq[:-1], None) + np.add.reduce(sq[-1]))
        gnorm = math.sqrt(gnorm2)
        if gnorm <= tol:
            return wb[:-1].copy(), wb[-1].copy(), it
        # Armijo backtracking on the full-batch objective.
        while True:
            wb_new = wb - step * gwb
            loss_new = objective(wb_new)
            if loss_new <= loss - 0.5 * step * gnorm2 or step < 1e-16:
                break
            step *= 0.5
        wb, loss = wb_new, loss_new
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
