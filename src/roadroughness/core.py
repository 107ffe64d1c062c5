"""Shared domain types, ordered data splitting and evaluation metrics.

Everything here is immutable after construction and safe to share across
workers; the metric functions are pure.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

# IRI severity boundaries in m/km. The band between the published Medium
# upper bound (1.6) and the High lower bound (2.5) is folded into Medium so
# that the three levels partition [0, inf).
IRI_LOW_MAX = 0.9
IRI_MEDIUM_MAX = 2.5


class IriLevel(enum.IntEnum):
    """Ordinal road roughness severity."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


def iri_levels(iri) -> np.ndarray:
    """Map continuous IRI values (m/km) onto their severity levels, the
    ``IriLevel`` values as ints, in one comparison per boundary."""
    iri = np.asarray(iri, dtype=float)
    bad = ~np.isfinite(iri) | (iri < 0)
    if bad.any():
        raise ValueError(f"IRI must be finite and non-negative, got "
                         f"{iri[bad][0]}")
    return (iri > IRI_LOW_MAX).astype(int) + (iri > IRI_MEDIUM_MAX)


@dataclass
class TelemetryTrace:
    """A time-ordered trace of vertical acceleration, speed and GPS fixes.

    Channels are stored as flat arrays; ``gps_idx`` holds the sample indices
    at which a fix was recorded (``gps_lat``/``gps_lon`` run parallel to it).
    """

    t: np.ndarray
    acc_z: np.ndarray
    speed: np.ndarray
    gps_idx: np.ndarray
    gps_lat: np.ndarray
    gps_lon: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.acc_z = np.asarray(self.acc_z, dtype=float)
        self.speed = np.asarray(self.speed, dtype=float)
        self.gps_idx = np.asarray(self.gps_idx, dtype=int)
        self.gps_lat = np.asarray(self.gps_lat, dtype=float)
        self.gps_lon = np.asarray(self.gps_lon, dtype=float)
        n = len(self.t)
        if not (len(self.acc_z) == len(self.speed) == n):
            raise ValueError("channel lengths differ")
        # A fix position may be non-finite: map matching drops such fixes.
        for name in ("t", "acc_z", "speed"):
            values = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise ValueError(f"{name} must be finite: sample {bad[0]} "
                                 f"is {values[bad[0]]}")
        if n > 1 and np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(self.speed < 0):
            raise ValueError("speed must be non-negative")
        if not (len(self.gps_idx) == len(self.gps_lat) == len(self.gps_lon)):
            raise ValueError("gps arrays differ in length")
        if len(self.gps_idx) and not (0 <= self.gps_idx.min()
                                      and self.gps_idx.max() < n):
            raise ValueError("gps_idx holds an index outside the samples")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def gps_t(self) -> np.ndarray:
        return self.t[self.gps_idx]


class BadSegmentError(ValueError):
    """A reference segment holds a bad value; ``segment`` is its index."""

    def __init__(self, message: str, segment: int):
        super().__init__(message)
        self.segment = segment


@dataclass
class Reference:
    """Road pieces with ground-truth IRI labels, one row per piece: piece
    ``i`` runs from (``start_lat[i]``, ``start_lon[i]``) to (``end_lat[i]``,
    ``end_lon[i]``), in WGS84 degrees, over ``length[i]`` m and has the IRI
    ``iri[i]`` in m/km. The fields are the columns of ``reference.csv``."""

    start_lat: np.ndarray
    start_lon: np.ndarray
    end_lat: np.ndarray
    end_lon: np.ndarray
    length: np.ndarray
    iri: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), float))
        if self.iri.ndim != 1 or any(getattr(self, f.name).shape
                                     != self.iri.shape for f in fields(self)):
            raise ValueError("reference fields must be 1-D, of one length")
        lat = np.stack([self.start_lat, self.end_lat], axis=1)
        lon = np.stack([self.start_lon, self.end_lon], axis=1)
        for message, values, ok in (
                ("latitude out of range", lat, np.abs(lat) <= 90.0),
                ("longitude out of range", lon, np.abs(lon) <= 180.0),
                ("length must be positive and finite", self.length,
                 np.isfinite(self.length) & (self.length > 0)),
                ("IRI must be finite and non-negative", self.iri,
                 np.isfinite(self.iri) & (self.iri >= 0))):
            bad = np.argwhere(~ok)
            if len(bad):
                raise BadSegmentError(f"{message} in segment {bad[0][0]}: "
                                      f"{values[tuple(bad[0])]}",
                                      int(bad[0][0]))

    def __len__(self) -> int:
        return len(self.iri)


@dataclass
class Windows:
    """Road windows as one ragged record: window ``i`` holds the samples
    ``offsets[i]:offsets[i + 1]`` of the flat channels ``t``, ``acc_z`` and
    ``speed``, the route window id ``window_id[i]`` and the IRI label
    ``iri[i]``. The fields are the arrays of the ``windows/`` artifact."""

    t: np.ndarray
    acc_z: np.ndarray
    speed: np.ndarray
    offsets: np.ndarray
    window_id: np.ndarray
    iri: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.acc_z = np.asarray(self.acc_z, dtype=float)
        self.speed = np.asarray(self.speed, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.window_id = np.asarray(self.window_id, dtype=np.int64)
        self.iri = np.asarray(self.iri, dtype=float)
        if self.offsets.ndim != 1 or self.offsets[:1].tolist() != [0]:
            raise ValueError("offsets must be a 1-D array starting at 0")
        lengths = np.diff(self.offsets)
        if np.any(lengths < 0):
            raise ValueError("offsets must not decrease")
        if np.any(lengths < 2):
            raise ValueError("every window needs at least 2 samples")
        if not (len(self.t) == len(self.acc_z) == len(self.speed)
                == self.offsets[-1]):
            raise ValueError("channel lengths differ from offsets[-1]")
        if not (len(self.window_id) == len(self.iri) == len(lengths)):
            raise ValueError("window_id and iri lengths differ from the "
                             "window count")
        if not np.all(np.isfinite(self.iri) & (self.iri >= 0)):
            raise ValueError("IRI must be finite and non-negative")

    def __len__(self) -> int:
        return len(self.window_id)


@dataclass
class Dataset:
    """Feature matrix with continuous and ordinal per-segment targets."""

    X: np.ndarray
    y: np.ndarray
    level: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.level = np.asarray(self.level, dtype=int)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        n = self.X.shape[0]
        if not (len(self.y) == len(self.level) == n):
            raise ValueError("target lengths do not match X")
        if self.feature_names and len(self.feature_names) != self.X.shape[1]:
            raise ValueError("feature_names length does not match X columns")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X contains non-finite values")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y contains non-finite values")

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, rows) -> "Dataset":
        return Dataset(self.X[rows], self.y[rows], self.level[rows],
                       list(self.feature_names))


def ordered_split(dataset: Dataset, train_frac: float) -> tuple[Dataset, Dataset]:
    """Split a route-ordered dataset into leading train and trailing test parts."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    n_train = int(np.floor(n * train_frac))
    if n_train == 0 or n_train == n:
        raise ValueError(f"split leaves one side empty (N={n}, frac={train_frac})")
    return dataset.take(slice(0, n_train)), dataset.take(slice(n_train, n))


def ordered_kfold(n: int, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Expanding-window folds over ``k`` contiguous blocks.

    Round ``i`` trains on blocks ``0..i`` and validates on block ``i+1``, so
    every validation index strictly follows every train index.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} rows, got {n}")
    blocks = np.array_split(np.arange(n), k)
    return [(np.concatenate(blocks[: i + 1]), blocks[i + 1])
            for i in range(k - 1)]


def regression_metrics(y, yhat) -> dict[str, float]:
    """R^2, MAE, RMSE and mean relative error of predictions.

    R^2 is computed against the mean of the evaluated targets, so a constant
    predictor fitted elsewhere may score below zero. MRE requires strictly
    positive targets.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if len(y) < 2:
        raise ValueError("need at least 2 samples")
    if np.any(y <= 0):
        raise ValueError("MRE requires strictly positive targets")
    err = y - yhat
    ss_res = float(np.sum(err ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("targets are constant; R^2 is undefined")
    return {
        "r2": 1.0 - ss_res / ss_tot,
        "mae": float(np.mean(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err ** 2))),
        "mre": float(np.mean(np.abs(err) / y)),
    }


def confusion_matrix(y, yhat, n_classes: int = 3) -> np.ndarray:
    """Counts with entry (i, j) = true class i predicted as class j."""
    y = np.asarray(y, dtype=int)
    yhat = np.asarray(yhat, dtype=int)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    cm = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(cm, (y, yhat), 1)
    return cm


def classification_metrics(y, yhat, n_classes: int = 3,
                           average: str = "macro") -> dict[str, float]:
    """Precision, recall and F1 averaged over all classes.

    A class absent from both truth and prediction contributes zeros to the
    macro average. ``average="weighted"`` weights classes by support instead.
    """
    if average not in ("macro", "weighted"):
        raise ValueError(f"unknown average: {average}")
    cm = confusion_matrix(y, yhat, n_classes)
    tp = np.diag(cm).astype(float)
    pred = cm.sum(axis=0).astype(float)
    support = cm.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred > 0, tp / pred, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / pr, 0.0)
    if average == "macro":
        w = np.full(n_classes, 1.0 / n_classes)
    else:
        w = support / support.sum()
    return {
        "precision": float(np.sum(w * precision)),
        "recall": float(np.sum(w * recall)),
        "f1": float(np.sum(w * f1)),
    }
