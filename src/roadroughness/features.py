"""Segment resampling, the temporal/statistical feature catalog and
train-fit standardization.

Per channel, 34 extractors are evaluated; over the two channels
(vertical acceleration and speed) this yields the 68-column feature matrix.
The catalog follows tsfel (Barandas et al. 2020). Every extractor works on a
whole (n_windows x n_points) matrix at once, one window per row: reductions
along the rows, one row sort for the order statistics (which the ECDF
percentiles index directly), running maxima of doubling length for the
neighbourhood peaks and a row-wise copy of ``np.histogram``'s
equal-width binning for the entropy.

Conventions pinned here: population variance/std, quantiles by linear
interpolation, ECDF percentile value = smallest sample whose ECDF reaches p,
lag-1 autocorrelation normalized by the variance, Shannon entropy over a
10-bin equal-width histogram (log base 2), turning points as strict sign
changes of the first difference, neighbourhood peaks with neighbourhood 10
(none in windows shorter than 21 samples). Degenerate windows fall back to
fixed values: zero variance gives 0 for skewness, kurtosis, slope and
autocorrelation, zero energy puts the centroid at the mean time, zero time
span gives 0 total energy, and a range too narrow for 10 bins of finite
width (zero range included) gives 0 entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Windows, iri_levels

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


def resample_segment(windows: Windows, target_len: int) -> Windows:
    """Linearly interpolate each channel of every window onto
    ``target_len`` uniform time points spanning the window's extent;
    endpoints are preserved exactly."""
    if target_len < 2:
        raise ValueError(f"target_len must be at least 2, got {target_len}")
    lo, hi = windows.offsets[:-1], windows.offsets[1:]
    t0, t1 = windows.t[lo], windows.t[hi - 1]
    # Once one row's step is 0, linspace grids all rows by another formula:
    # grid such rows apart. C order, as numpy sums strided rows otherwise.
    t_new = np.empty((len(windows), target_len))
    flat = (t1 - t0) / (target_len - 1) == 0
    for rows in (flat, ~flat):
        t_new[rows] = np.linspace(t0[rows], t1[rows], target_len, axis=1)
    acc_z, speed = np.empty_like(t_new), np.empty_like(t_new)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        t = windows.t[a:b]
        acc_z[i] = np.interp(t_new[i], t, windows.acc_z[a:b])
        speed[i] = np.interp(t_new[i], t, windows.speed[a:b])
    return Windows(t_new.ravel(), acc_z.ravel(), speed.ravel(),
                   np.arange(len(windows) + 1) * target_len,
                   windows.window_id, windows.iri)


def _ecdf_percentile(xs: np.ndarray, p: float) -> np.ndarray:
    """Smallest sample value whose empirical CDF is at least p, along the
    last axis of ``xs``, which is sorted along it."""
    k = int(np.ceil(p * xs.shape[-1]))
    return xs[..., max(k, 1) - 1]


def _sorted_median(xs: np.ndarray) -> np.ndarray:
    """``np.median`` along the rows of ``xs``, which are sorted: numpy's
    mean of the one or two middle values. The mean starts from +0.0, so a
    zero median has one sign whichever zero sits in the middle."""
    n = xs.shape[1]
    return np.mean(xs[:, (n - 1) // 2:n // 2 + 1], axis=1)


def _sorted_iqr(xs: np.ndarray) -> np.ndarray:
    """``np.quantile(xs, 0.75) - np.quantile(xs, 0.25)`` along the rows of
    ``xs``, which are sorted: each quantile from the two values around
    index (n - 1) q by numpy's ``_lerp`` arithmetic. Between two zeros that
    arithmetic keeps the sign of the zeros that numpy's partition puts
    there, which sorting need not match, so rows whose quantiles are both
    zero are left to ``np.quantile``."""
    n = xs.shape[1]
    q = []
    for p in (0.75, 0.25):
        lo, gamma = divmod((n - 1) * p, 1.0)
        a, b = xs[:, int(lo)], xs[:, int(lo) + 1]
        diff = b - a
        q.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    iqr = q[0] - q[1]
    zero = (q[0] == 0.0) & (q[1] == 0.0)
    if zero.any():
        iqr[zero] = (np.quantile(xs[zero], 0.75, axis=1)
                     - np.quantile(xs[zero], 0.25, axis=1))
    return iqr


def _entropy(x: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy of ``np.histogram(row, ENTROPY_BINS)``, with
    its equal-width bin index and both of its edge corrections; 0 for rows
    whose range has no ENTROPY_BINS bins of finite width, which
    ``np.histogram`` refuses (a range of a few ulps), constant rows
    included. ``xs`` is ``x`` sorted along the rows."""
    lo, hi = xs[:, :1], xs[:, -1:]
    span = hi - lo
    # A range that overflows float64 has no bins of finite width either.
    # Such a row is binned as if every sample were lo, which keeps its bin
    # indices in range; like a constant row it gets a span of 1.
    wide = np.isinf(span)
    if wide.any():
        x = np.where(wide, lo, x)
    span[(span == 0.0) | wide] = 1.0
    edges = lo + np.arange(ENTROPY_BINS + 1) * (span / ENTROPY_BINS)
    edges[:, -1:] = hi
    flat = np.any(edges[:, :-1] >= edges[:, 1:], axis=1)
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
    """Per row, samples strictly above all n neighbours on each side.

    ``run[:, i]`` is the max of ``x[:, i:i + n]``, built in log2(n) steps
    from the maxima of runs of doubling length. A sample is a peak when it
    is above the run that ends just before it and the one that starts just
    after it; max and > are exact, so this is the 2n comparisons."""
    m = x.shape[1]
    if m < 2 * n + 1:
        return np.zeros(len(x), dtype=int)
    run, width = x, 1
    while width < n:
        step = min(width, n - width)
        run = np.maximum(run[:, :-step], run[:, step:])
        width += step
    centre = x[:, n:m - n]
    peak = centre > run[:, :m - 2 * n]
    peak &= centre > run[:, n + 1:]
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
    median = _sorted_median(xs)
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
            "iqr": _sorted_iqr(xs),
            "ecdf_pct_5": _ecdf_percentile(xs, 0.05),
            "ecdf_pct_20": _ecdf_percentile(xs, 0.20),
            "ecdf_pct_80": _ecdf_percentile(xs, 0.80),
            "kurtosis": np.where(m2 == 0.0, 0.0,
                                 np.mean(sq_c * sq_c, axis=1) / (m2 * m2)
                                 - 3.0),
            "skewness": np.where(m2 == 0.0, 0.0,
                                 np.mean(sq_c * xc, axis=1)
                                 / (m2 * np.sqrt(m2))),
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


def build_feature_matrix(windows: Windows) -> Dataset:
    """One row per window, in route order, with IRI and level targets.

    The windows must be of equal length (``resample_segment`` makes them
    so). Each channel is viewed as one (n_windows x n_points) matrix and
    featurized BLOCK_WINDOWS rows at a time."""
    n = len(windows)
    if not n:
        raise ValueError("no windows given")
    lengths = np.diff(windows.offsets)
    if np.any(lengths != lengths[0]):
        raise ValueError("windows differ in length; resample them first")
    t = windows.t.reshape(n, -1)
    channels = [getattr(windows, ch).reshape(n, -1) for ch in CHANNELS]
    names = feature_names()
    rows = np.empty((n, len(names)))
    for lo in range(0, n, BLOCK_WINDOWS):
        block = slice(lo, lo + BLOCK_WINDOWS)
        rows[block] = np.hstack([_channel_matrix(x[block], t[block])
                                 for x in channels])
    bad = ~np.isfinite(rows)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite feature {names[j]} in segment "
                         f"{windows.window_id[i]}")
    return Dataset(rows, windows.iri, iri_levels(windows.iri), names)


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
