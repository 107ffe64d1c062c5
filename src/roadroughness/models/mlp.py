"""Fully connected feedforward network trained with Adam.

ReLU hidden activations; linear output with squared-error loss for
regression, softmax over the ``N_LEVELS`` levels with cross-entropy for
classification; L2 weight decay on the weights (not biases). Training runs
in batches of 200 with an adaptive learning rate (halved after a 2-epoch
plateau) and stops early when the epoch loss fails to improve by 1e-4 for
10 epochs.

Batches are a few hundred rows, so the cost per numpy call decides the
speed: the softmax takes its class-axis max and sum column by column
(``logistic.softmax``: the same floats as numpy's row loop, in fewer
calls), the one-hot rows are built once per fit, and the Adam moments are
updated in place.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import N_LEVELS, is_integer, training_data
from .errors import ConvergenceError
from .logistic import cross_entropy, one_hot, softmax

BATCH_SIZE = 200
LOSS_TOL = 1e-4
STOP_PATIENCE = 10
LR_PATIENCE = 2
MAX_EPOCHS = 500
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8


def init_params(layer_sizes: list[int], rng: np.random.Generator):
    """He-style initialization for the ReLU stack."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def layer_views(flat: np.ndarray, layer_sizes: list[int]):
    """Each layer's weight matrix and bias vector as views into ``flat``,
    laid out as W0, b0, W1, b1, ..."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


def forward(weights, biases, x):
    """Returns the list of layer activations; last entry is the raw output."""
    acts = [x]
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def objective(out, target, task: str):
    """Data loss of the raw outputs ``out`` against ``target`` (y for
    regression, one-hot rows for classification), and the residual the
    output gradient is built from (out - y, or softmax - onehot)."""
    if task == "regression":
        resid = out[:, 0] - target
        return float(np.add.reduce(resid * resid)) / len(out), resid
    p = softmax(out)
    loss = cross_entropy(p, target)
    p -= target
    return loss, p


def penalty(squares, l2: float) -> float:
    """The L2 penalty, from the squared weights of each layer."""
    return l2 * sum(float(np.add.reduce(s, None)) for s in squares)


def _loss_and_grads_into(weights, biases, x, target, task: str, l2: float,
                         penalty_value: float, grads_w, grads_b) -> float:
    """Objective on (x, target), whose L2 term is ``penalty_value``; writes
    its parameter gradients into the arrays ``grads_w`` and ``grads_b``."""
    n = len(x)
    acts = forward(weights, biases, x)
    loss, delta = objective(acts[-1], target, task)
    if task == "regression":
        delta *= 2.0
        delta = delta[:, None]
    delta /= n
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        grads_w[i] += 2.0 * l2 * weights[i]
        np.add.reduce(delta, 0, out=grads_b[i])
        if i > 0:
            delta = delta @ weights[i].T
            delta *= acts[i] > 0
    return loss + penalty_value


def loss_and_grads(weights, biases, x, y, task: str, l2: float):
    """Objective (data loss + L2 penalty) and analytic parameter gradients."""
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    target = y if task == "regression" else one_hot(y)
    loss = _loss_and_grads_into(weights, biases, x, target, task, l2,
                                penalty([w * w for w in weights], l2),
                                grads_w, grads_b)
    return loss, grads_w, grads_b


class MlpModel:
    def __init__(self, layers=(16, 16), lr0: float = 0.01, l2: float = 0.1,
                 task: str = "regression", seed: int = 0,
                 batch_size: int = BATCH_SIZE, max_epochs: int = MAX_EPOCHS):
        layers = tuple(layers)
        if not all(is_integer(v) and v >= 1 for v in layers):
            raise ValueError(f"layer sizes must be positive integers, got "
                             f"{layers!r}")
        layers = tuple(map(int, layers))
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task: {task}")
        self.layers = layers
        self.lr0 = lr0
        self.l2 = l2
        self.task = task
        self.seed = seed
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.weights: list[np.ndarray] | None = None
        self.biases: list[np.ndarray] | None = None
        self.loss_history: list[float] = []

    def fit(self, x, y) -> "MlpModel":
        x, y = training_data(x, y, self.task)
        if self.task == "regression":
            out_dim, target = 1, y
        else:
            out_dim, target = N_LEVELS, one_hot(y)
        n, d = x.shape
        sizes = [d, *self.layers, out_dim]
        rng = np.random.default_rng(self.seed)
        # Every parameter is a view into one flat vector, and so is every
        # gradient, so each Adam step is one set of whole-vector operations,
        # in place: theta is updated under the views, and the moments and
        # step go into buffers allocated once.
        theta = np.concatenate([
            a.ravel() for pair in zip(*init_params(sizes, rng)) for a in pair])
        weights, biases = layer_views(theta, sizes)
        grad = np.empty_like(theta)
        grads_w, grads_b = layer_views(grad, sizes)
        squares = np.empty_like(theta)
        squares_w, _ = layer_views(squares, sizes)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        upd = np.empty_like(theta)
        den = np.empty_like(theta)
        lr = self.lr0
        best_loss = np.inf
        stall_stop = 0
        stall_lr = 0
        step = 0
        self.loss_history = []
        for _ in range(self.max_epochs):
            order = rng.permutation(n)
            for lo in range(0, n, self.batch_size):
                batch = order[lo:lo + self.batch_size]
                np.multiply(theta, theta, out=squares)
                loss = _loss_and_grads_into(weights, biases, x[batch],
                                            target[batch], self.task,
                                            self.l2,
                                            penalty(squares_w, self.l2),
                                            grads_w, grads_b)
                if not math.isfinite(loss):
                    raise ConvergenceError("training loss diverged")
                step += 1
                corr1 = 1.0 - ADAM_B1 ** step
                corr2 = 1.0 - ADAM_B2 ** step
                m *= ADAM_B1
                np.multiply(grad, 1 - ADAM_B1, out=upd)
                m += upd
                v *= ADAM_B2
                np.multiply(grad, grad, out=upd)
                upd *= 1 - ADAM_B2
                v += upd
                # theta -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
                np.divide(m, corr1, out=upd)
                upd *= lr
                np.divide(v, corr2, out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                upd /= den
                theta -= upd
            np.multiply(theta, theta, out=squares)
            epoch_loss = objective(forward(weights, biases, x)[-1], target,
                                   self.task)[0] + penalty(squares_w, self.l2)
            if not math.isfinite(epoch_loss):
                raise ConvergenceError("training loss diverged")
            self.loss_history.append(epoch_loss)
            if epoch_loss < best_loss - LOSS_TOL:
                best_loss = epoch_loss
                stall_stop = 0
                stall_lr = 0
            else:
                stall_stop += 1
                stall_lr += 1
                if stall_stop >= STOP_PATIENCE:
                    break
                if stall_lr >= LR_PATIENCE:
                    lr *= 0.5
                    stall_lr = 0
        self.weights = weights
        self.biases = biases
        return self

    def _raw_output(self, x) -> np.ndarray:
        if self.weights is None:
            raise ValueError("model is not fitted")
        return forward(self.weights, self.biases,
                       np.asarray(x, dtype=float))[-1]

    def predict(self, x) -> np.ndarray:
        out = self._raw_output(x)
        if self.task == "regression":
            return out[:, 0]
        return np.argmax(out, axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"layers": list(self.layers), "lr0": self.lr0, "l2": self.l2,
                "task": self.task, "seed": self.seed,
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_state(cls, state: dict) -> "MlpModel":
        model = cls(state["layers"], state["lr0"], state["l2"], state["task"],
                    state["seed"])
        model.weights = [np.array(w, dtype=float) for w in state["weights"]]
        model.biases = [np.array(b, dtype=float) for b in state["biases"]]
        return model
