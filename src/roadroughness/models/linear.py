"""Ordinary, ridge, lasso and elastic-net linear regression.

Objectives follow the common library conventions so published penalty
values carry over directly:

    ols:          ||y - Xw - b||^2
    ridge:        ||y - Xw - b||^2 + lam * ||w||^2
    lasso:        (1/2N) ||y - Xw - b||^2 + lam * ||w||_1
    elastic_net:  (1/2N) ||y - Xw - b||^2
                  + lam * (l1_ratio * ||w||_1 + (1 - l1_ratio)/2 * ||w||^2)

The intercept is never penalized. OLS/ridge solve the normal equations
exactly; lasso/elastic-net run cyclic coordinate descent with
soft-thresholding until the largest coefficient change drops below 1e-6.
"""
from __future__ import annotations

import numpy as np

from ..core import training_data
from .errors import ConvergenceError

CD_TOL = 1e-6
CD_MAX_SWEEPS = 10_000
KINDS = ("ols", "ridge", "lasso", "elastic_net")


def soft_threshold(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


class LinearModel:
    task = "regression"

    def __init__(self, kind: str = "ols", lam: float = 0.0,
                 l1_ratio: float = 1.0):
        if kind not in KINDS:
            raise ValueError(f"unknown kind: {kind}")
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        self.kind = kind
        self.lam = lam
        self.l1_ratio = l1_ratio
        self.coef: np.ndarray | None = None
        self.intercept: float = 0.0

    def _fit_normal_equations(self, xc: np.ndarray, yc: np.ndarray,
                              ridge_lam: float) -> np.ndarray:
        d = xc.shape[1]
        gram = xc.T @ xc + ridge_lam * np.eye(d)
        rhs = xc.T @ yc
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "singular normal equations; consider ridge regularization"
            ) from exc
        if ridge_lam == 0.0 and not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError(
                "singular normal equations; consider ridge regularization")
        return coef

    def _fit_coordinate_descent(self, xc: np.ndarray, yc: np.ndarray) -> np.ndarray:
        n, d = xc.shape
        l1 = self.lam * (self.l1_ratio if self.kind == "elastic_net" else 1.0)
        l2 = (self.lam * (1.0 - self.l1_ratio)
              if self.kind == "elastic_net" else 0.0)
        col_sq = np.sum(xc ** 2, axis=0) / n
        coef = np.zeros(d)
        resid = yc.copy()
        for _ in range(CD_MAX_SWEEPS):
            max_delta = 0.0
            for j in range(d):
                if col_sq[j] == 0.0:
                    continue
                old = coef[j]
                rho = (xc[:, j] @ resid) / n + col_sq[j] * old
                new = soft_threshold(rho, l1) / (col_sq[j] + l2)
                if new != old:
                    resid += xc[:, j] * (old - new)
                    coef[j] = new
                    max_delta = max(max_delta, abs(new - old))
            if max_delta < CD_TOL:
                return coef
        raise ConvergenceError(
            f"coordinate descent did not converge in {CD_MAX_SWEEPS} sweeps "
            f"(last max coefficient change {max_delta:.3e})")

    def fit(self, x, y) -> "LinearModel":
        x, y = training_data(x, y, self.task)
        # Centering makes the intercept exact and keeps it unpenalized.
        x_mean = x.mean(axis=0)
        y_mean = float(y.mean())
        xc = x - x_mean
        yc = y - y_mean
        if self.kind == "ols":
            coef = self._fit_normal_equations(xc, yc, 0.0)
        elif self.kind == "ridge":
            coef = self._fit_normal_equations(xc, yc, self.lam)
        else:
            coef = self._fit_coordinate_descent(xc, yc)
        self.coef = coef
        self.intercept = y_mean - float(x_mean @ coef)
        return self

    def predict(self, x) -> np.ndarray:
        if self.coef is None:
            raise ValueError("model is not fitted")
        return np.asarray(x, dtype=float) @ self.coef + self.intercept

    def state_dict(self) -> dict:
        return {"kind": self.kind, "lam": self.lam, "l1_ratio": self.l1_ratio,
                "coef": self.coef.tolist(), "intercept": self.intercept}

    @classmethod
    def from_state(cls, state: dict) -> "LinearModel":
        model = cls(state["kind"], state["lam"], state["l1_ratio"])
        model.coef = np.array(state["coef"], dtype=float)
        model.intercept = float(state["intercept"])
        return model
