"""Correctness checks on the program's outputs.

Every check is computed apart from the program: with plain numpy from the
artifacts, from the benchmark's own ground truth, or from a property the
method must have. A failed check raises ``CheckError``; the run then
reports ``correct: false`` and exits non-zero.
"""
from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6371008.8
SNAP_SIGMAS = 6.0   # snapped-fix error bound, in GPS noise sigmas


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def haversine_m(lat1, lon1, lat2, lon2):
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(a, dtype=float))
                              for a in (lat1, lon1, lat2, lon2))
    h = (np.sin((lat2 - lat1) / 2) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def point_at(cum, lats, lons, s):
    """Lat/lon at chainage ``s`` along a polyline with cumulative length
    ``cum``."""
    return np.interp(s, cum, lats), np.interp(s, cum, lons)


# ------------------------------------------------------------- map matching

def check_snaps(snap_lat, snap_lon, true_lat, true_lon,
                gps_sigma_m: float) -> np.ndarray:
    """Every snapped fix lies within SNAP_SIGMAS GPS sigmas of the true
    position. Returns the errors in metres."""
    err = haversine_m(snap_lat, snap_lon, true_lat, true_lon)
    require(len(err) > 0, "no snapped fixes")
    bound = SNAP_SIGMAS * gps_sigma_m
    worst = int(np.argmax(err))
    require(np.all(np.isfinite(err)) and err[worst] <= bound,
            f"snapped fix {worst} is {err[worst]:.1f} m from its true "
            f"position (bound {bound:.1f} m)")
    return err


def check_walk(edges, edge_nodes) -> None:
    """Consecutive matched edges are equal or share a junction, so the
    matched edges form a connected walk. ``edge_nodes[e]`` holds the two
    node ids of edge e as written to the network file."""
    edges = np.asarray(edges, dtype=int)
    nodes = np.asarray(edge_nodes)
    require(np.all((edges >= 0) & (edges < len(nodes))),
            "matched edge index out of range")
    a, b = nodes[edges[:-1]], nodes[edges[1:]]
    linked = ((edges[:-1] == edges[1:])
              | (a[:, 0] == b[:, 0]) | (a[:, 0] == b[:, 1])
              | (a[:, 1] == b[:, 0]) | (a[:, 1] == b[:, 1]))
    bad = np.flatnonzero(~linked)
    if len(bad):
        i = bad[0]
        raise CheckError(f"matched edges {edges[i]} -> {edges[i + 1]} at "
                         f"fix {i} share no junction")


# ---------------------------------------------------------------- windows

def check_window_iri(window_ids, window_iri, piece_iri, pieces: int) -> None:
    """Each window's IRI is the mean of the reference pieces it spans."""
    window_ids = np.asarray(window_ids, dtype=int)
    piece_iri = np.asarray(piece_iri, dtype=float)
    require(len(window_ids) > 0, "no windows")
    require(window_ids.max() + pieces <= len(piece_iri),
            "window runs past the last reference piece")
    spans = window_ids[:, None] + np.arange(pieces)
    expected = piece_iri[spans].mean(axis=1)
    err = np.abs(np.asarray(window_iri, dtype=float) - expected)
    worst = int(np.argmax(err))
    require(err[worst] <= 1e-12 * max(1.0, abs(expected[worst])),
            f"window {window_ids[worst]} IRI differs from the mean of its "
            f"{pieces} reference pieces by {err[worst]:.3g}")


# Recomputed per channel from the stored window arrays.
RECOMPUTED = {
    "mean": lambda x: x.mean(axis=1),
    "std": lambda x: x.std(axis=1),
    "min": lambda x: x.min(axis=1),
    "max": lambda x: x.max(axis=1),
    "rms": lambda x: np.sqrt((x ** 2).mean(axis=1)),
    "peak_to_peak": lambda x: x.max(axis=1) - x.min(axis=1),
}


def resample_rows(t, channel, offsets, target_len: int) -> np.ndarray:
    """Linear interpolation of every window onto ``target_len`` uniform
    time points between its first and last sample."""
    out = np.empty((len(offsets) - 1, target_len))
    for i in range(len(offsets) - 1):
        a, b = offsets[i], offsets[i + 1]
        grid = np.linspace(t[a], t[b - 1], target_len)
        out[i] = np.interp(grid, t[a:b], channel[a:b])
    return out


def check_features(names, x, t, channels: dict, offsets,
                   target_len: int) -> None:
    """Mean, std, min, max, rms and peak-to-peak of each channel, recomputed
    from the stored windows, match the feature table."""
    col = {name: i for i, name in enumerate(names)}
    for channel, values in channels.items():
        rows = resample_rows(t, values, offsets, target_len)
        for feature, fn in RECOMPUTED.items():
            name = f"{feature}@{channel}"
            require(name in col, f"feature column {name} missing")
            expected = fn(rows)
            got = x[:, col[name]]
            err = np.abs(got - expected)
            tol = 1e-9 * np.maximum(1.0, np.abs(expected))
            bad = np.flatnonzero(~(err <= tol))
            if len(bad):
                i = bad[0]
                raise CheckError(f"feature {name} of window row {i} is "
                                 f"{got[i]!r}, recomputed {expected[i]!r}")


# ----------------------------------------------------------------- models

def rmse(y, pred) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred, dtype=float) - y) ** 2)))


def macro_f1(y, pred, n_classes: int = 3) -> float:
    y = np.asarray(y, dtype=int)
    pred = np.asarray(pred, dtype=int)
    f1 = []
    for c in range(n_classes):
        tp = np.sum((pred == c) & (y == c))
        denom = np.sum(pred == c) + np.sum(y == c)
        f1.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(f1))


def check_regressors(y, predictions: dict) -> dict:
    """Every non-baseline regressor has a lower RMSE than the baseline.
    Returns the RMSE per family."""
    scores = {}
    for family, pred in predictions.items():
        pred = np.asarray(pred, dtype=float)
        require(pred.shape == np.shape(y) and np.all(np.isfinite(pred)),
                f"regressor {family} gave malformed predictions")
        scores[family] = rmse(y, pred)
    require("baseline" in scores, "no baseline regressor")
    for family, score in scores.items():
        require(family == "baseline" or score < scores["baseline"],
                f"regressor {family} RMSE {score:.4f} does not beat the "
                f"baseline RMSE {scores['baseline']:.4f}")
    return scores


def check_levels(y_len: int, predictions: dict, n_classes: int = 3) -> None:
    """Every classifier predicts one valid level per row."""
    for family, pred in predictions.items():
        pred = np.asarray(pred, dtype=float)
        require(pred.shape == (y_len,)
                and np.all(np.isin(pred, np.arange(n_classes))),
                f"classifier {family} predicted a level outside "
                f"0..{n_classes - 1}")


def check_best_classifier(levels, predictions: dict, train_levels) -> None:
    """The best classifier's macro F1 beats the baseline's on the held-out
    windows whose level occurs in ``train_levels``: no classifier can
    predict a level it never saw in training (seed 102's fit table holds 17
    held-out windows of level 0 and none in the train split, and there
    every classifier ties the baseline). When the baseline already gets
    every such level right (a held-out stretch of one level, the train
    majority), the best classifier must match it."""
    check_levels(len(levels), predictions)
    seen = np.isin(levels, train_levels)
    levels = np.asarray(levels)[seen]
    predictions = {f: np.asarray(p)[seen] for f, p in predictions.items()}
    scores = {f: macro_f1(levels, p) for f, p in predictions.items()}
    require("baseline" in scores, "no baseline classifier")
    best = max((f for f in scores if f != "baseline"), key=scores.get)
    perfect = bool(np.all(predictions["baseline"] == np.asarray(levels)))
    require(scores[best] > scores["baseline"]
            or (perfect and scores[best] == scores["baseline"]),
            f"best classifier {best} macro F1 {scores[best]:.4f} does not "
            f"beat the baseline {scores['baseline']:.4f}")


# -------------------------------------------------------------- selection

def check_folds(fold_bounds, n_train: int) -> None:
    """Each CV fold trains on a prefix and validates on the rows that
    follow it, inside the train split."""
    require(len(fold_bounds) > 0, "no CV folds")
    for (tr_lo, tr_hi), (va_lo, va_hi) in fold_bounds:
        require(tr_lo == 0 and 0 < tr_hi == va_lo < va_hi <= n_train,
                f"fold train [{tr_lo}, {tr_hi}) validate [{va_lo}, {va_hi}) "
                f"is not a prefix followed by its next rows inside "
                f"[0, {n_train})")


def check_sfs(order, chosen, n_columns: int) -> None:
    """SFS columns are distinct, in range, and the chosen set is a prefix
    of the inclusion order."""
    require(len(order) == len(set(order)), f"SFS order {order} repeats")
    require(all(0 <= c < n_columns for c in order),
            f"SFS order {order} leaves the {n_columns} kept columns")
    require(list(chosen) == list(order[:len(chosen)]) and chosen,
            f"chosen columns {chosen} are not a prefix of {order}")


def check_pca(components) -> None:
    """PCA components are orthonormal."""
    c = np.asarray(components, dtype=float)
    gram = c.T @ c
    err = float(np.max(np.abs(gram - np.eye(c.shape[1]))))
    require(err <= 1e-9,
            f"PCA components are not orthonormal (error {err:.2e})")
