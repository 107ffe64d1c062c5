"""Support vector regression and classification with an RBF kernel.

Both tasks are solved in the standard box-constrained dual

    min  1/2 lam' Q lam + p' lam   s.t.  z' lam = 0,  0 <= lam <= C

by sequential minimal optimization with second-order working-set selection
(WSS 3 of Fan, Chen & Lin 2005, JMLR), stopping when the KKT gap m - M
drops below tolerance. Every variable e has the kernel row k[e % n], so
Q[e, f] = z[e] z[f] k[e % n, f % n]: classification has one variable per
row, while the epsilon-insensitive regression dual stacks two blocks of
coefficients over the same rows. Classification is one-vs-rest with argmax
over the decision values; its solves share one kernel matrix.
"""
from __future__ import annotations

import numpy as np

from ..core import N_LEVELS, training_data
from .errors import ConvergenceError

KKT_TOL = 1e-3
MAX_ITER = 500_000
_EPS = 1e-12
# Floor on the curvature a of a working pair (tau in WSS 3): a is 0 for two
# equal rows, and for the two coefficients of one row in regression.
_TAU = 1e-12


def rbf_kernel(a, b, gamma: float) -> np.ndarray:
    """exp(-gamma * ||x - x'||^2) for all row pairs, built in place in the
    one result buffer."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    out = np.matmul(a, b.T, out=np.empty((len(a), len(b))))
    out *= -2.0
    out += np.sum(a ** 2, axis=1)[:, None]
    out += np.sum(b ** 2, axis=1)[None, :]
    np.maximum(out, 0.0, out=out)
    out *= -gamma
    return np.exp(out, out=out)


def smo_solve(k: np.ndarray, p: np.ndarray, z: np.ndarray, c: float,
              tol: float = KKT_TOL, max_iter: int = MAX_ITER):
    """SMO over len(p) variables, a multiple of n = len(k), whose kernel
    row is k[e % n]; z is +-1.

    Returns (lam, grad, bias, kkt_gap, n_iter).
    """
    n = len(k)
    diag = k.diagonal()
    lam = np.zeros(len(p))
    # v = -z * grad, the quantity the working set is chosen by. A step moves
    # lam[i] by z[i] d and lam[j] by -z[j] d, which adds d (k_i - k_j) to
    # the gradient in every block, scaled by z: v -= d (k_i - k_j) blockwise.
    v = -z * p
    blocks = v.reshape(-1, n)
    pos = z > 0
    up = pos.copy()     # lam can move by +z without leaving the box
    low = ~pos          # ... and by -z
    a = np.empty(n)
    u = np.empty(n)
    gap = np.inf
    for it in range(max_iter):
        i = int(np.argmax(np.where(up, v, -np.inf)))
        low_vals = np.where(low, v, np.inf)
        m_up = v[i]
        m_low = low_vals.min()
        gap = m_up - m_low
        if gap <= tol:
            bias = float((m_up + m_low) / 2.0)
            return lam, -z * v, bias, float(gap), it
        ki = k[i % n]
        # WSS 3: j maximises b^2 / a over I_low with b = m_up - v > 0.
        np.multiply(ki, -2.0, out=a)
        a += diag
        a += diag[i % n]
        np.maximum(a, _TAU, out=a)
        score = np.subtract(m_up, low_vals, out=low_vals).reshape(-1, n)
        np.maximum(score, 0.0, out=score)
        score *= score
        score /= a
        j = int(np.argmax(score))
        d = (m_up - v[j]) / a[j % n]
        d = min(d, c - lam[i] if pos[i] else lam[i])
        d = min(d, lam[j] if pos[j] else c - lam[j])
        lam[i] += z[i] * d
        lam[j] -= z[j] * d
        for t in (i, j):
            # lam + (c - lam) can round to one ulp above c.
            lam[t] = min(lam[t], c)
            up[t] = lam[t] < c - _EPS if pos[t] else lam[t] > _EPS
            low[t] = lam[t] > _EPS if pos[t] else lam[t] < c - _EPS
        np.subtract(ki, k[j % n], out=u)
        u *= d
        blocks -= u
    raise ConvergenceError(
        f"SMO did not converge in {max_iter} iterations "
        f"(max KKT violation {gap:.3e})")


def _solve_svr(k: np.ndarray, y: np.ndarray, c: float, epsilon: float,
               tol: float, max_iter: int):
    """Epsilon-insensitive dual via the stacked 2N formulation.

    Returns (beta, bias, dual objective, kkt_gap, n_iter).
    """
    n = len(y)
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    lam, g, bias, gap, n_iter = smo_solve(k, p, z, c, tol, max_iter)
    beta = lam[:n] - lam[n:]
    objective = 0.5 * float(lam @ g + lam @ p)
    return beta, bias, objective, gap, n_iter


def _solve_binary_svc(k: np.ndarray, z: np.ndarray, c: float, tol: float,
                      max_iter: int):
    """Returns (coef, bias, dual objective, kkt_gap, n_iter)."""
    lam, g, bias, gap, n_iter = smo_solve(k, -np.ones(len(z)), z, c, tol,
                                          max_iter)
    objective = 0.5 * float(lam @ g) - 0.5 * float(lam.sum())
    return lam * z, bias, objective, gap, n_iter


class SvmModel:
    """RBF-kernel SVM; ``task`` selects epsilon-SVR or one-vs-rest SVC."""

    def __init__(self, task: str = "svr", c: float = 1.0, gamma: float = 0.01,
                 epsilon: float = 0.1, tol: float = KKT_TOL,
                 max_iter: int = MAX_ITER):
        if task not in ("svr", "svc"):
            raise ValueError(f"unknown task: {task}")
        if c <= 0 or gamma <= 0:
            raise ValueError("C and gamma must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.task = "regression" if task == "svr" else "classification"
        self.kind = task
        self.c = c
        self.gamma = gamma
        self.epsilon = epsilon
        self.tol = tol
        self.max_iter = max_iter
        self.sv_x: np.ndarray | None = None
        self.sv_coef: np.ndarray | None = None   # (n_sv,) or (n_sv, N_LEVELS)
        self.bias: np.ndarray | None = None
        # Solver diagnostics of the last fit: SMO iterations and final KKT
        # gap, one per one-vs-rest class for classification.
        self.n_iter: int | list | None = None
        self.kkt_gap: float | list | None = None

    def fit(self, x, y) -> "SvmModel":
        x, y = training_data(x, y, self.task)
        k = rbf_kernel(x, x, self.gamma)
        if self.kind == "svr":
            beta, bias, _, self.kkt_gap, self.n_iter = _solve_svr(
                k, y, self.c, self.epsilon, self.tol, self.max_iter)
            keep = np.abs(beta) > _EPS
            self.sv_x = x[keep]
            self.sv_coef = beta[keep]
            self.bias = np.array([bias])
        else:
            coefs = np.zeros((len(x), N_LEVELS))
            biases = np.zeros(N_LEVELS)
            self.n_iter, self.kkt_gap = [], []
            for cls in range(N_LEVELS):
                z = np.where(y == cls, 1.0, -1.0)
                if np.all(z < 0) or np.all(z > 0):
                    biases[cls] = -np.inf if np.all(z < 0) else np.inf
                    self.n_iter.append(0)
                    self.kkt_gap.append(0.0)
                    continue
                coef, bias, _, gap, n_iter = _solve_binary_svc(
                    k, z, self.c, self.tol, self.max_iter)
                coefs[:, cls] = coef
                biases[cls] = bias
                self.n_iter.append(n_iter)
                self.kkt_gap.append(gap)
            keep = np.any(np.abs(coefs) > _EPS, axis=1)
            self.sv_x = x[keep]
            self.sv_coef = coefs[keep]
            self.bias = biases
        return self

    def decision_values(self, x) -> np.ndarray:
        if self.sv_x is None:
            raise ValueError("model is not fitted")
        k = rbf_kernel(np.asarray(x, dtype=float), self.sv_x, self.gamma)
        return k @ self.sv_coef + self.bias

    def predict(self, x) -> np.ndarray:
        vals = self.decision_values(x)
        if self.kind == "svr":
            return vals[:, 0] if vals.ndim == 2 else vals
        return np.argmax(vals, axis=1).astype(float)

    def state_dict(self) -> dict:
        return {"kind": self.kind, "c": self.c, "gamma": self.gamma,
                "epsilon": self.epsilon, "sv_x": self.sv_x.tolist(),
                "sv_coef": self.sv_coef.tolist(), "bias": self.bias.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "SvmModel":
        model = cls(state["kind"], state["c"], state["gamma"],
                    state["epsilon"])
        model.sv_x = np.array(state["sv_x"], dtype=float)
        model.sv_coef = np.array(state["sv_coef"], dtype=float)
        model.bias = np.array(state["bias"], dtype=float)
        return model
