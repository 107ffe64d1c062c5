"""Feature selection and dimensionality reduction.

Pipeline order: drop constant columns, greedy forward selection (SFS)
scored by cross-validated random-forest RMSE on ordered folds, then a
principal component projection keeping the smallest number of components
whose explained-variance ratio reaches the target.

A candidate's score is the RMSE over the folds of a regression forest
(``max_features="sqrt"``) grown on the fold's train rows of the selected
columns plus the candidate. Per (step, fold), every remaining candidate's
forest grows in one engine call (``forests_predict``): the candidates of
a fold share their bootstraps and keys, so each forest is the one
``RandomForestModel.fit`` grows on the candidate's columns, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ordered_kfold
from .models.tree import forests_predict

PCA_VARIANCE_TARGET = 0.99
SFS_TREES = 200
SFS_DEPTH = 8


def _require_finite(where: str, x: np.ndarray) -> None:
    """Raises a ValueError naming the first entry of ``x`` that is NaN or
    infinite."""
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        raise ValueError(f"{where}: x[{', '.join(map(str, at))}] is not "
                         f"finite ({x[at]})")


def drop_constant(x: np.ndarray):
    """Returns (reduced matrix, indices of retained columns)."""
    x = np.asarray(x, dtype=float)
    _require_finite("drop_constant", x)
    keep = np.flatnonzero(np.ptp(x, axis=0) > 0.0)
    if len(keep) == 0:
        raise ValueError("all feature columns are constant")
    return x[:, keep], keep


@dataclass
class SfsResult:
    """Greedy inclusion order with the cross-validated RMSE after each
    addition; ``chosen_size`` is the count minimizing that curve (ties go to
    the smaller subset)."""

    order: list[int]
    cv_rmse: list[float]

    @property
    def chosen_size(self) -> int:
        return int(np.argmin(self.cv_rmse)) + 1

    @property
    def chosen(self) -> list[int]:
        return self.order[:self.chosen_size]


def sfs_forward(x, y, k_folds: int = 5, max_features: int | None = None,
                n_trees: int = SFS_TREES, max_depth: int = SFS_DEPTH,
                seed: int = 0, max_rows: int | None = None) -> SfsResult:
    """Forward selection: at each step add the feature whose inclusion gives
    the lowest cross-validated RMSE (ties go to the lower feature index).

    ``max_rows`` optionally caps the rows used for scoring (a contiguous
    prefix, preserving the ordered-fold structure) to bound the runtime.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0 or y.shape != (len(x),):
        raise ValueError(f"sfs_forward needs x of rows x columns and one y "
                         f"per row, got {x.shape} and {y.shape}")
    _require_finite("sfs_forward", x)
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise ValueError(f"sfs_forward: y[{bad[0]}] is not finite "
                         f"({y[bad[0]]})")
    if max_features is not None and max_features < 1:
        raise ValueError(f"max_features must be at least 1, got "
                         f"{max_features}")
    if max_rows is not None and len(x) > max_rows:
        x, y = x[:max_rows], y[:max_rows]
    n_total = x.shape[1]
    if max_features is None:
        max_features = n_total
    max_features = min(max_features, n_total)
    folds = ordered_kfold(len(x), k_folds)
    selected: list[int] = []
    curve: list[float] = []
    remaining = list(range(n_total))
    for _ in range(max_features):
        cols = [selected + [feat] for feat in remaining]
        fold_mse = [[np.mean((pred - y[va]) ** 2) for pred in
                     forests_predict(x[tr], y[tr], cols, x[va], n_trees,
                                     max_depth, seed)]
                    for tr, va in folds]
        best_feat = None
        best_rmse = np.inf
        for i, feat in enumerate(remaining):
            rmse = float(np.sqrt(np.mean([errs[i] for errs in fold_mse])))
            if rmse < best_rmse:
                best_feat, best_rmse = feat, rmse
        selected.append(best_feat)
        remaining.remove(best_feat)
        curve.append(best_rmse)
    return SfsResult(order=selected, cv_rmse=curve)


@dataclass(frozen=True)
class PcaBasis:
    """Centering vector and orthonormal component matrix (d x m)."""

    mean: np.ndarray
    components: np.ndarray
    explained_ratios: np.ndarray = field(default=None)


def pca_fit(x, variance_target: float = PCA_VARIANCE_TARGET) -> PcaBasis:
    """Eigendecomposition of the covariance; keeps the smallest component
    count whose cumulative explained-variance ratio reaches the target."""
    x = np.asarray(x, dtype=float)
    if not 0.0 < variance_target <= 1.0:
        raise ValueError("variance_target must be in (0, 1]")
    _require_finite("pca_fit", x)
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / len(x)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals, kind="stable")[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = evals.sum()
    if total <= 0.0:
        raise ValueError("zero total variance; nothing to project")
    ratios = evals / total
    m = int(np.searchsorted(np.cumsum(ratios), variance_target) + 1)
    m = min(m, len(evals))
    comps = evecs[:, :m]
    # Sign convention: largest-magnitude entry of each component positive.
    for j in range(m):
        pivot = np.argmax(np.abs(comps[:, j]))
        if comps[pivot, j] < 0:
            comps[:, j] = -comps[:, j]
    return PcaBasis(mean=mean, components=comps,
                    explained_ratios=ratios[:m])


def pca_transform(basis: PcaBasis, x) -> np.ndarray:
    return (np.asarray(x, dtype=float) - basis.mean) @ basis.components
