"""Segment resampling, the temporal/statistical feature catalog and
train-fit standardization.

Per channel, 34 extractors are evaluated; over the two channels
(vertical acceleration and speed) this yields the 68-column feature matrix.
The catalog follows tsfel (Barandas et al. 2020). Every extractor works on a
whole (n_windows x n_points) matrix at once, one window per row: reductions
along the rows, one row sort for the order statistics, a sliding-window view
for the neighbourhood peaks and a row-wise copy of ``np.histogram``'s
equal-width binning for the entropy.

Conventions pinned here: population variance/std, quantiles by linear
interpolation, ECDF percentile value = smallest sample whose ECDF reaches p,
lag-1 autocorrelation normalized by the variance, Shannon entropy over a
10-bin equal-width histogram (log base 2), turning points as strict sign
changes of the first difference, neighbourhood peaks with neighbourhood 10
(none in windows shorter than 21 samples). Degenerate windows fall back to
fixed values: zero variance gives 0 for skewness, kurtosis, slope and
autocorrelation, zero energy puts the centroid at the mean time, zero time
span gives 0 total energy, and zero range gives 0 entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import AlignedSegment, Dataset, to_iri_level

ENTROPY_BINS = 10
PEAK_NEIGHBOURHOOD = 10
DEFAULT_TARGET_LEN = 250
# Windows featurized together. At the default target length this bounds the
# kernel's temporaries to ~2 MB, and larger blocks ran no faster.
BLOCK_WINDOWS = 64

EXTRACTOR_NAMES = [
    "mean", "median", "min", "max", "variance", "std", "mean_abs_dev",
    "median_abs_dev", "mean_diff", "median_diff", "sum_abs_diff", "iqr",
    "ecdf_pct_5", "ecdf_pct_20", "ecdf_pct_80", "kurtosis", "skewness",
    "slope", "autocorr_lag1", "auc", "rms", "abs_energy", "total_energy",
    "centroid", "entropy", "total_distance", "pos_turning_points",
    "neg_turning_points", "neighbourhood_peaks", "peak_to_peak",
    # Zero-mean counterparts of the energy-style extractors.
    "auc_zm", "rms_zm", "abs_energy_zm", "total_energy_zm",
]
N_CHANNEL_FEATURES = len(EXTRACTOR_NAMES)
CHANNELS = ("acc_z", "speed")


def resample_segment(segment: AlignedSegment, target_len: int) -> AlignedSegment:
    """Linearly interpolate each channel onto ``target_len`` uniform time
    points spanning the original extent; endpoints are preserved exactly."""
    if target_len < 2:
        raise ValueError(f"target_len must be at least 2, got {target_len}")
    if segment.n_points < 2:
        raise ValueError("segment needs at least 2 samples per channel")
    t_new = np.linspace(segment.t[0], segment.t[-1], target_len)
    return AlignedSegment(
        window_id=segment.window_id,
        t=t_new,
        acc_z=np.interp(t_new, segment.t, segment.acc_z),
        speed=np.interp(t_new, segment.t, segment.speed),
        iri=segment.iri,
    )


def _ecdf_percentile(x: np.ndarray, p: float) -> np.ndarray:
    """Smallest sample value whose empirical CDF is at least p, along the
    last axis."""
    k = int(np.ceil(p * x.shape[-1]))
    return np.sort(x, axis=-1)[..., max(k, 1) - 1]


def _entropy(x: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy of ``np.histogram(row, ENTROPY_BINS)``, with
    its equal-width bin index and both of its edge corrections; 0 for
    constant rows. ``xs`` is ``x`` sorted along the rows."""
    lo, hi = xs[:, :1], xs[:, -1:]
    flat = (hi == lo)[:, 0]
    span = np.where(hi == lo, 1.0, hi - lo)
    edges = lo + np.arange(ENTROPY_BINS + 1) * (span / ENTROPY_BINS)
    edges[:, -1:] = hi
    idx = (((x - lo) / span) * ENTROPY_BINS).astype(np.intp)
    idx[idx == ENTROPY_BINS] -= 1
    idx[x < np.take_along_axis(edges, idx, axis=1)] -= 1
    idx[(x >= np.take_along_axis(edges, idx + 1, axis=1))
        & (idx != ENTROPY_BINS - 1)] += 1
    rows = np.arange(len(x))[:, None] * ENTROPY_BINS
    counts = np.bincount((rows + idx).ravel(),
                         minlength=len(x) * ENTROPY_BINS).reshape(len(x), -1)
    p = counts / x.shape[1]
    terms = p * np.log2(np.where(counts > 0, p, 1.0))
    # Sum the non-empty bins only, packed in bin order, exactly as a 1-D sum
    # over them does: zero padding would change numpy's pairwise grouping.
    filled = np.sum(counts > 0, axis=1)
    packed = np.take_along_axis(
        terms, np.argsort(counts == 0, axis=1, kind="stable"), axis=1)
    h = np.zeros(len(x))
    for k in np.unique(filled[~flat]):
        sel = (filled == k) & ~flat
        h[sel] = -np.sum(packed[sel, :k], axis=1)
    return h


def _neighbourhood_peaks(x: np.ndarray, n: int = PEAK_NEIGHBOURHOOD) -> np.ndarray:
    """Per row, samples strictly above all n neighbours on each side."""
    if x.shape[1] < 2 * n + 1:
        return np.zeros(len(x), dtype=int)
    win = sliding_window_view(x, 2 * n + 1, axis=1)
    centre = win[..., n]
    peak = (centre > win[..., :n].max(axis=-1)) \
        & (centre > win[..., n + 1:].max(axis=-1))
    return peak.sum(axis=1)


def _channel_matrix(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The full extractor catalog on every row of ``x`` (one window per row,
    sampled at the times in the same row of ``t``): an
    (n_windows x N_CHANNEL_FEATURES) matrix in EXTRACTOR_NAMES order."""
    n = x.shape[1]
    if n < 3:
        raise ValueError(f"channel needs at least 3 samples, got {n}")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(t)):
        raise ValueError("channel contains non-finite values")
    xs = np.sort(x, axis=1)
    mean = np.mean(x, axis=1)
    xc = x - mean[:, None]
    sq, sq_c = x ** 2, xc ** 2
    energy, energy_c = np.sum(sq, axis=1), np.sum(sq_c, axis=1)
    m2 = energy_c / n
    median = np.median(xs, axis=1)
    d = np.diff(x, axis=1)
    t_mean = np.mean(t, axis=1)
    tc = t - t_mean[:, None]
    t_ss = np.sum(tc ** 2, axis=1)
    span = t[:, -1] - t[:, 0]
    turns = np.sign(d)
    # Each guarded division is evaluated everywhere and masked afterwards.
    with np.errstate(divide="ignore", invalid="ignore"):
        f = {
            "mean": mean,
            "median": median,
            "min": xs[:, 0],
            "max": xs[:, -1],
            "variance": m2,
            "std": np.sqrt(m2),
            "mean_abs_dev": np.mean(np.abs(xc), axis=1),
            "median_abs_dev": np.median(np.abs(x - median[:, None]), axis=1),
            "mean_diff": np.mean(d, axis=1),
            "median_diff": np.median(d, axis=1),
            "sum_abs_diff": np.sum(np.abs(d), axis=1),
            "iqr": (np.quantile(xs, 0.75, axis=1)
                    - np.quantile(xs, 0.25, axis=1)),
            "ecdf_pct_5": _ecdf_percentile(xs, 0.05),
            "ecdf_pct_20": _ecdf_percentile(xs, 0.20),
            "ecdf_pct_80": _ecdf_percentile(xs, 0.80),
            "kurtosis": np.where(m2 == 0.0, 0.0,
                                 np.mean(xc ** 4, axis=1) / m2 ** 2 - 3.0),
            "skewness": np.where(m2 == 0.0, 0.0,
                                 np.mean(xc ** 3, axis=1) / m2 ** 1.5),
            "slope": np.where(t_ss == 0.0, 0.0,
                              np.sum(tc * xc, axis=1) / t_ss),
            "autocorr_lag1": np.where(
                energy_c == 0.0, 0.0,
                np.sum(xc[:, :-1] * xc[:, 1:], axis=1) / energy_c),
            "auc": np.trapezoid(x, t, axis=1),
            "rms": np.sqrt(energy / n),
            "abs_energy": energy,
            "total_energy": np.where(span == 0.0, 0.0, energy / span),
            "centroid": np.where(energy == 0.0, t_mean,
                                 np.sum(t * sq, axis=1) / energy),
            "entropy": _entropy(x, xs),
            "total_distance": np.sum(
                np.sqrt(np.diff(t, axis=1) ** 2 + d ** 2), axis=1),
            "pos_turning_points": np.sum(
                (turns[:, :-1] > 0) & (turns[:, 1:] < 0), axis=1),
            "neg_turning_points": np.sum(
                (turns[:, :-1] < 0) & (turns[:, 1:] > 0), axis=1),
            "neighbourhood_peaks": _neighbourhood_peaks(x),
            "peak_to_peak": xs[:, -1] - xs[:, 0],
            "auc_zm": np.trapezoid(xc, t, axis=1),
            "rms_zm": np.sqrt(m2),
            "abs_energy_zm": energy_c,
            "total_energy_zm": np.where(span == 0.0, 0.0, energy_c / span),
        }
    return np.column_stack([f[name] for name in EXTRACTOR_NAMES])


def extract_channel_features(channel, t) -> dict[str, float]:
    """Evaluate the full extractor catalog on one channel."""
    x = np.asarray(channel, dtype=float)
    t = np.asarray(t, dtype=float)
    row = _channel_matrix(x[None, :], t[None, :])[0]
    return {name: float(v) for name, v in zip(EXTRACTOR_NAMES, row)}


def feature_names() -> list[str]:
    """Column labels of the full matrix, in fixed order: extractor@channel."""
    return [f"{name}@{ch}" for ch in CHANNELS for name in EXTRACTOR_NAMES]


def build_feature_matrix(segments: list[AlignedSegment]) -> Dataset:
    """One row per segment, in route order, with IRI and level targets.

    Segments of equal length (all of them, once resampled) are stacked into
    one matrix per channel, BLOCK_WINDOWS rows at a time, and featurized
    together."""
    if not segments:
        raise ValueError("no segments given")
    names = feature_names()
    rows = np.empty((len(segments), len(names)))
    by_length: dict[int, list[int]] = {}
    for i, seg in enumerate(segments):
        by_length.setdefault(seg.n_points, []).append(i)
    for same_length in by_length.values():
        for lo in range(0, len(same_length), BLOCK_WINDOWS):
            idx = same_length[lo:lo + BLOCK_WINDOWS]
            t = np.stack([segments[i].t for i in idx])
            rows[idx] = np.hstack([
                _channel_matrix(
                    np.stack([getattr(segments[i], ch) for i in idx]), t)
                for ch in CHANNELS])
    bad = ~np.isfinite(rows)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite feature {names[j]} in segment "
                         f"{segments[i].window_id}")
    y = np.array([seg.iri for seg in segments], dtype=float)
    level = np.array([int(to_iri_level(v)) for v in y], dtype=int)
    return Dataset(rows, y, level, names)


@dataclass(frozen=True)
class Standardizer:
    """Train-fitted per-feature location/scale; immutable after fit."""

    mean: np.ndarray
    std: np.ndarray


def standardize_fit(x_train) -> Standardizer:
    """Fit zero-mean/unit-variance scaling on training rows only."""
    x = np.asarray(x_train, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    if np.any(std == 0.0):
        bad = int(np.flatnonzero(std == 0.0)[0])
        raise ValueError(f"column {bad} has zero train std; drop constant "
                         f"features first")
    return Standardizer(mean, std)


def standardize_apply(standardizer: Standardizer, x) -> np.ndarray:
    return (np.asarray(x, dtype=float) - standardizer.mean) / standardizer.std
