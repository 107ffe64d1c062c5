"""Hyperparameter grid search over ordered, expanding-window folds.

Folds come from :func:`roadroughness.core.ordered_kfold`: the data is cut
into k contiguous blocks and round i trains on blocks 0..i and validates on
block i+1, so validation rows always come after training rows. A fold plan
fits the standardizer (and optional oversampling) on each fold's training
rows only, once per task; the index ranges per round are kept for auditing.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..core import classification_metrics, ordered_kfold
from ..features import standardize_apply, standardize_fit
from .baseline import BaselineModel
from .bayes import GaussianNBModel
from .errors import ConvergenceError
from .linear import LinearModel
from .logistic import LogisticModel
from .mlp import MlpModel
from .neighbors import KnnModel
from .resample import adasyn_resample
from .svm import SvmModel
from .tree import RandomForestModel

TASKS = ("regression", "classification")


@dataclass(frozen=True)
class Family:
    """One model family: the class that rebuilds it from a stored state,
    the tasks it supports, a constructor adapter
    ``(task, hyperparams, seed) -> model`` and its default grid."""
    cls: type
    tasks: tuple
    build: Callable
    grid: dict


def _linear(kind: str, grid: dict) -> Family:
    return Family(LinearModel, ("regression",),
                  lambda task, hp, seed: LinearModel(kind=kind, **hp), grid)


# The one place where a model family is declared.
FAMILIES = {
    "baseline": Family(BaselineModel, TASKS,
                       lambda task, hp, seed: BaselineModel(task=task, **hp),
                       {}),
    "ols": _linear("ols", {}),
    "ridge": _linear("ridge", {"lam": [60.0, 600.0, 6000.0]}),
    "lasso": _linear("lasso", {"lam": [0.01, 0.05, 0.1]}),
    "elastic_net": _linear("elastic_net", {"lam": [0.01, 0.05, 0.1],
                                           "l1_ratio": [0.2, 0.5, 0.8]}),
    "logistic": Family(LogisticModel, ("classification",),
                       lambda task, hp, seed: LogisticModel(**hp),
                       {"lam": [0.01, 0.1, 1.0]}),
    "knn": Family(KnnModel, TASKS,
                  lambda task, hp, seed: KnnModel(task=task, **hp),
                  {"k": [5, 22, 50]}),
    "gaussian_nb": Family(GaussianNBModel, ("classification",),
                          lambda task, hp, seed: GaussianNBModel(**hp), {}),
    "random_forest": Family(
        RandomForestModel, TASKS,
        lambda task, hp, seed: RandomForestModel(task=task, seed=seed, **hp),
        {"n_trees": [100, 400], "max_depth": [5, 10],
         "max_features": [6, "sqrt"]}),
    "svm": Family(
        SvmModel, TASKS,
        lambda task, hp, seed: SvmModel(
            task="svr" if task == "regression" else "svc", **hp),
        {"gamma": [1e-3, 1e-2], "c": [1.0, 10.0]}),
    "mlp": Family(MlpModel, TASKS,
                  lambda task, hp, seed: MlpModel(task=task, seed=seed, **hp),
                  {"layers": [(2, 4, 6), (16, 16)], "lr0": [0.01],
                   "l2": [0.1, 1.0]}),
}


def family_record(family: str, task: str) -> Family:
    """The table's record for ``family``; raises ValueError for an unknown
    task or family, or a family that does not support ``task``."""
    if task not in TASKS:
        raise ValueError(f"unknown task: {task}")
    if family not in FAMILIES:
        raise ValueError(f"unknown model family: {family}")
    record = FAMILIES[family]
    if task not in record.tasks:
        raise ValueError(f"{family} does not support {task}")
    return record


def make_model(family: str, task: str, hyperparams: dict | None = None,
               seed: int = 0):
    """Instantiates a model of the given family for ``task`` (``regression``
    or ``classification``)."""
    return family_record(family, task).build(task, dict(hyperparams or {}),
                                             seed)


def grid_points(grid: dict) -> list[dict]:
    """Cartesian product of the grid in declaration order; ``[{}]`` for an
    empty grid."""
    return [dict(zip(grid, combo))
            for combo in itertools.product(*grid.values())]


@dataclass
class GridSearchResult:
    """The fields are the family's entry in training.json."""
    metric: str
    best_params: dict
    best_score: float
    cv_table: list
    fold_bounds: list


FOLD_ERRORS = (ConvergenceError, ValueError, np.linalg.LinAlgError)


def _frozen(*arrays):
    for a in arrays:  # a model writing into a shared input fails loudly
        a.setflags(write=False)
    return arrays


def prepare_train_rows(task: str, x_tr, y_tr, seed: int, adasyn: bool):
    """Fits the standardizer on the train rows and scales them, then for
    classification with ``adasyn`` and two levels or more oversamples them.
    Returns ``(scaler, x, y)``, the arrays read-only copies."""
    scaler = standardize_fit(x_tr)
    x_tr = standardize_apply(scaler, x_tr)
    y_tr = np.array(y_tr, dtype=float)
    if adasyn and task == "classification" and len(np.unique(y_tr)) > 1:
        x_tr, y_tr = adasyn_resample(x_tr, y_tr.astype(int), seed=seed)
        y_tr = y_tr.astype(float)
    return (scaler, *_frozen(x_tr, y_tr))


@dataclass(frozen=True)
class FoldPlan:
    """One task's ordered folds, prepared once for all families: per fold
    ``(x_train, y_train, x_val, y_val)``, read-only, or the error raised."""
    task: str
    seed: int
    fold_bounds: list
    folds: list


def fold_plan(task: str, x, y, k_folds: int, seed: int,
              adasyn: bool) -> FoldPlan:
    """Prepares each ordered fold by :func:`prepare_train_rows` and scales
    its validation rows by the fold's train standardizer."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    folds = ordered_kfold(len(x), k_folds)
    prepared = []
    for tr, va in folds:
        try:
            scaler, x_tr, y_tr = prepare_train_rows(task, x[tr], y[tr], seed,
                                                    adasyn)
            prepared.append((x_tr, y_tr, *_frozen(
                standardize_apply(scaler, x[va]), y[va])))
        except FOLD_ERRORS as exc:
            prepared.append(exc)
    return FoldPlan(task, seed, [((int(tr[0]), int(tr[-1]) + 1),
                                  (int(va[0]), int(va[-1]) + 1))
                                 for tr, va in folds], prepared)


def _fold_score(family, task, params, seed, fold):
    """The fold's validation RMSE (regression) or macro F1
    (classification)."""
    if isinstance(fold, Exception):  # preparing the fold failed
        raise fold.with_traceback(None)
    x_tr, y_tr, x_val, y_val = fold
    model = make_model(family, task, params, seed=seed).fit(x_tr, y_tr)
    pred = model.predict(x_val)
    if task == "regression":
        return float(np.sqrt(np.mean((pred - y_val) ** 2)))
    return classification_metrics(y_val.astype(int), pred.astype(int),
                                  average="macro")["f1"]


def grid_search(family: str, task: str, plan: FoldPlan,
                grid: dict | None = None) -> GridSearchResult:
    """Scores every grid point on every fold of ``plan`` by RMSE
    (regression, lower is better) or macro F1 (classification) and returns
    the point with the best mean score (ties go to the earlier grid
    point)."""
    if task != plan.task:
        raise ValueError(f"the fold plan is for {plan.task}, not {task}")
    metric = "rmse" if task == "regression" else "macro_f1"
    candidates = grid_points(family_record(family, task).grid if grid is None
                             else grid)
    if not candidates:
        raise ValueError(f"the grid of family {family} has no points: "
                         f"{grid!r}")
    best_idx = best_mean = None
    table = []
    for idx, params in enumerate(candidates):
        scores, errors = [], []
        for fold_idx, fold in enumerate(plan.folds):
            try:
                scores.append(_fold_score(family, task, params, plan.seed,
                                          fold))
            except FOLD_ERRORS as exc:
                scores.append(None)
                errors.append(f"fold {fold_idx}: {type(exc).__name__}: {exc}")
        valid = [s for s in scores if s is not None]
        mean = float(np.mean(valid)) if valid else float("nan")
        table.append({"params": dict(params), "fold_scores": scores,
                      "mean_score": mean, "errors": errors})
        if valid and (best_mean is None or (mean < best_mean
                                            if metric == "rmse"
                                            else mean > best_mean)):
            best_idx, best_mean = idx, mean
    if best_idx is None:
        raise RuntimeError(
            f"grid search failed for every candidate of family {family}; "
            f"first error: {table[0]['errors'][0]}")
    return GridSearchResult(metric, dict(candidates[best_idx]), best_mean,
                            table, plan.fold_bounds)
