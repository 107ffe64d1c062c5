"""Fully connected feedforward network trained with Adam.

ReLU hidden activations; linear output with squared-error loss for
regression, softmax output with cross-entropy for classification; L2 weight
decay on the weights (not biases). Training runs in batches of 200 with an
adaptive learning rate (halved after a 2-epoch plateau) and stops early when
the epoch loss fails to improve by 1e-4 for 10 epochs.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .logistic import softmax
from .tree import N_CLASSES

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
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return acts


def objective(weights, out, y, task: str, l2: float):
    """Data loss of the raw outputs ``out`` plus the L2 penalty, and the
    residual the output gradient is built from (out - y for regression,
    softmax - onehot for classification)."""
    if task == "regression":
        resid = out[:, 0] - y
        data_loss = float(np.mean(resid ** 2))
    else:
        p = softmax(out)
        onehot = np.zeros_like(p)
        onehot[np.arange(len(out)), y.astype(int)] = 1.0
        data_loss = float(-np.sum(onehot * np.log(np.clip(p, 1e-300, None)))
                          / len(out))
        resid = p - onehot
    penalty = l2 * sum(float(np.sum(w ** 2)) for w in weights)
    return data_loss + penalty, resid


def _loss_and_grads_into(weights, biases, x, y, task: str, l2: float,
                         grads_w, grads_b) -> float:
    """Objective on (x, y); writes its parameter gradients into the arrays
    ``grads_w`` and ``grads_b``."""
    n = len(x)
    acts = forward(weights, biases, x)
    loss, resid = objective(weights, acts[-1], y, task, l2)
    delta = (2.0 * resid / n)[:, None] if task == "regression" else resid / n
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        grads_w[i] += 2.0 * l2 * weights[i]
        np.sum(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = (delta @ weights[i].T) * (acts[i] > 0)
    return loss


def loss_and_grads(weights, biases, x, y, task: str, l2: float):
    """Objective (data loss + L2 penalty) and analytic parameter gradients."""
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    loss = _loss_and_grads_into(weights, biases, x, y, task, l2, grads_w,
                                grads_b)
    return loss, grads_w, grads_b


class MlpModel:
    def __init__(self, layers=(16, 16), lr0: float = 0.01, l2: float = 0.1,
                 task: str = "regression", seed: int = 0,
                 n_classes: int = N_CLASSES, batch_size: int = BATCH_SIZE,
                 max_epochs: int = MAX_EPOCHS):
        layers = tuple(int(v) for v in layers)
        if any(v < 1 for v in layers):
            raise ValueError("layer sizes must be positive")
        if task not in ("regression", "classification"):
            raise ValueError(f"unknown task: {task}")
        self.layers = layers
        self.lr0 = lr0
        self.l2 = l2
        self.task = task
        self.seed = seed
        self.n_classes = n_classes
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.weights: list[np.ndarray] | None = None
        self.biases: list[np.ndarray] | None = None
        self.loss_history: list[float] = []

    def fit(self, x, y) -> "MlpModel":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = x.shape
        out_dim = 1 if self.task == "regression" else self.n_classes
        sizes = [d, *self.layers, out_dim]
        rng = np.random.default_rng(self.seed)
        # Every parameter is a view into one flat vector, and so is every
        # gradient, so each Adam step is one set of whole-vector operations;
        # theta is updated in place, under the views.
        theta = np.concatenate([
            a.ravel() for pair in zip(*init_params(sizes, rng)) for a in pair])
        weights, biases = layer_views(theta, sizes)
        grad = np.empty_like(theta)
        grads_w, grads_b = layer_views(grad, sizes)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
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
                loss = _loss_and_grads_into(weights, biases, x[batch],
                                            y[batch], self.task, self.l2,
                                            grads_w, grads_b)
                if not np.isfinite(loss):
                    raise ConvergenceError("training loss diverged")
                step += 1
                corr1 = 1.0 - ADAM_B1 ** step
                corr2 = 1.0 - ADAM_B2 ** step
                m = ADAM_B1 * m + (1 - ADAM_B1) * grad
                v = ADAM_B2 * v + (1 - ADAM_B2) * grad ** 2
                theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
            epoch_loss, _ = objective(weights, forward(weights, biases, x)[-1],
                                      y, self.task, self.l2)
            if not np.isfinite(epoch_loss):
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
                "n_classes": self.n_classes,
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_state(cls, state: dict) -> "MlpModel":
        model = cls(state["layers"], state["lr0"], state["l2"], state["task"],
                    state["seed"], state["n_classes"])
        model.weights = [np.array(w, dtype=float) for w in state["weights"]]
        model.biases = [np.array(b, dtype=float) for b in state["biases"]]
        return model
