import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roadroughness.core import Windows
from roadroughness.features import (CHANNELS, EXTRACTOR_NAMES,
                                    _channel_matrix, _ecdf_percentile,
                                    _neighbourhood_peaks, _sorted_iqr,
                                    _sorted_median, build_feature_matrix,
                                    extract_channel_features, feature_names,
                                    resample_segment, standardize_apply,
                                    standardize_fit)

# ----------------------------------------------- per-window reference catalog
# The extractors one window at a time, as scalar numpy code. The batch
# kernel in roadroughness.features must reproduce them.


def _ref_ecdf_percentile(x, p):
    xs = np.sort(x)
    k = int(np.ceil(p * len(xs)))
    return float(xs[max(k, 1) - 1])


def _ref_autocorr_lag1(x):
    xc = x - x.mean()
    denom = float(np.sum(xc ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc[:-1] * xc[1:]) / denom)


def _ref_slope(x, t):
    tc = t - t.mean()
    denom = float(np.sum(tc ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(tc * (x - x.mean())) / denom)


# The moments use products and a square root, which are correctly rounded;
# numpy's SIMD power is not, and its last bits would differ from the kernel's
# on moments that cancel to rounding noise (a ramp's skewness).
def _ref_skewness(x):
    xc = x - x.mean()
    m2 = float(np.mean(xc ** 2))
    if m2 == 0.0:
        return 0.0
    return float(np.mean(xc * xc * xc) / (m2 * np.sqrt(m2)))


def _ref_kurtosis(x):
    xc = x - x.mean()
    m2 = float(np.mean(xc ** 2))
    if m2 == 0.0:
        return 0.0
    return float(np.mean((xc * xc) * (xc * xc)) / (m2 * m2) - 3.0)


def _ref_entropy(x):
    # np.histogram refuses a range it cannot split into 10 bins of finite
    # width; such rows, constant ones included, have entropy 0.
    edges = np.linspace(x.min(), x.max(), 11)
    if np.any(edges[:-1] >= edges[1:]):
        return 0.0
    counts, _ = np.histogram(x, bins=10)
    p = counts[counts > 0] / len(x)
    return float(-np.sum(p * np.log2(p)))


def _ref_turning_points(x):
    d = np.sign(np.diff(x))
    pos = int(np.sum((d[:-1] > 0) & (d[1:] < 0)))
    neg = int(np.sum((d[:-1] < 0) & (d[1:] > 0)))
    return pos, neg


def _ref_neighbourhood_peaks(x, n=10):
    count = 0
    for i in range(n, len(x) - n):
        v = x[i]
        if np.all(v > x[i - n:i]) and np.all(v > x[i + 1:i + n + 1]):
            count += 1
    return count


def _ref_centroid(x, t):
    energy = float(np.sum(x ** 2))
    if energy == 0.0:
        return float(t.mean())
    return float(np.sum(t * x ** 2) / energy)


def _ref_total_energy(x, t):
    span = float(t[-1] - t[0])
    if span == 0.0:
        return 0.0
    return float(np.sum(x ** 2) / span)


REFERENCE_CATALOG = [
    ("mean", lambda x, t: float(np.mean(x))),
    ("median", lambda x, t: float(np.median(x))),
    ("min", lambda x, t: float(np.min(x))),
    ("max", lambda x, t: float(np.max(x))),
    ("variance", lambda x, t: float(np.var(x))),
    ("std", lambda x, t: float(np.std(x))),
    ("mean_abs_dev", lambda x, t: float(np.mean(np.abs(x - np.mean(x))))),
    ("median_abs_dev",
     lambda x, t: float(np.median(np.abs(x - np.median(x))))),
    ("mean_diff", lambda x, t: float(np.mean(np.diff(x)))),
    ("median_diff", lambda x, t: float(np.median(np.diff(x)))),
    ("sum_abs_diff", lambda x, t: float(np.sum(np.abs(np.diff(x))))),
    ("iqr", lambda x, t: float(np.quantile(x, 0.75) - np.quantile(x, 0.25))),
    ("ecdf_pct_5", lambda x, t: _ref_ecdf_percentile(x, 0.05)),
    ("ecdf_pct_20", lambda x, t: _ref_ecdf_percentile(x, 0.20)),
    ("ecdf_pct_80", lambda x, t: _ref_ecdf_percentile(x, 0.80)),
    ("kurtosis", lambda x, t: _ref_kurtosis(x)),
    ("skewness", lambda x, t: _ref_skewness(x)),
    ("slope", _ref_slope),
    ("autocorr_lag1", lambda x, t: _ref_autocorr_lag1(x)),
    ("auc", lambda x, t: float(np.trapezoid(x, t))),
    ("rms", lambda x, t: float(np.sqrt(np.mean(x ** 2)))),
    ("abs_energy", lambda x, t: float(np.sum(x ** 2))),
    ("total_energy", _ref_total_energy),
    ("centroid", _ref_centroid),
    ("entropy", lambda x, t: _ref_entropy(x)),
    ("total_distance",
     lambda x, t: float(np.sum(np.sqrt(np.diff(t) ** 2 + np.diff(x) ** 2)))),
    ("pos_turning_points", lambda x, t: float(_ref_turning_points(x)[0])),
    ("neg_turning_points", lambda x, t: float(_ref_turning_points(x)[1])),
    ("neighbourhood_peaks", lambda x, t: float(_ref_neighbourhood_peaks(x))),
    ("peak_to_peak", lambda x, t: float(np.ptp(x))),
    ("auc_zm", lambda x, t: float(np.trapezoid(x - np.mean(x), t))),
    ("rms_zm", lambda x, t: float(np.sqrt(np.mean((x - np.mean(x)) ** 2)))),
    ("abs_energy_zm", lambda x, t: float(np.sum((x - np.mean(x)) ** 2))),
    ("total_energy_zm", lambda x, t: _ref_total_energy(x - np.mean(x), t)),
]
COUNT_FEATURES = ("pos_turning_points", "neg_turning_points",
                  "neighbourhood_peaks")


_MAX = np.finfo(float).max
# Magnitudes whose squares, sums or ranges overflow float64.
_HUGE = [_MAX, -_MAX, 1e308, -1e308, 1e307, 1e154, -1e154]


def make_windows(ts, accs, speeds, iris=None, ids=None) -> Windows:
    """A Windows record of the given per-window channels."""
    def flat(rows):
        return np.concatenate([np.zeros(0)] + [np.asarray(r, dtype=float)
                                               for r in rows])
    n = len(ts)
    return Windows(flat(ts), flat(accs), flat(speeds),
                   np.concatenate([[0], np.cumsum([len(t) for t in ts],
                                                  dtype=np.int64)]),
                   np.arange(n) if ids is None else ids,
                   np.ones(n) if iris is None else iris)


def reference_row(windows, i):
    """The 68 features of window ``i`` from the reference catalog."""
    rows = slice(windows.offsets[i], windows.offsets[i + 1])
    return np.array([fn(getattr(windows, ch)[rows], windows.t[rows])
                     for ch in CHANNELS for _, fn in REFERENCE_CATALOG])


def assert_matches_reference(windows):
    with np.errstate(all="ignore"):
        expected = np.array([reference_row(windows, i)
                             for i in range(len(windows))])
    names = feature_names()
    bad = ~np.isfinite(expected)
    if bad.any():
        # Underflowing moments: both raise, naming the same column and window.
        i, j = np.argwhere(bad)[0]
        with pytest.raises(ValueError, match=f"non-finite feature {names[j]} "
                                             f"in segment {i}$"):
            with np.errstate(all="ignore"):
                build_feature_matrix(windows)
        return
    batch = build_feature_matrix(windows).X
    for j, name in enumerate(names):
        if name.split("@")[0] in COUNT_FEATURES:
            assert np.array_equal(batch[:, j], expected[:, j]), name
        else:
            np.testing.assert_allclose(batch[:, j], expected[:, j],
                                       rtol=1e-12, atol=0.0, err_msg=name)


def _windows(accs, dt=0.1, iris=None):
    """Windows of the given acc_z rows at a constant 10 m/s."""
    return make_windows([np.arange(len(a)) * dt for a in accs], accs,
                        [np.full(len(a), 10.0) for a in accs], iris)


class TestResample:
    def test_preserves_endpoints_and_length(self):
        win = _windows([np.sin(np.arange(30)), np.cos(np.arange(7))])
        out = resample_segment(win, 250)
        assert out.offsets.tolist() == [0, 250, 500]
        assert out.window_id.tolist() == [0, 1]
        for w in range(2):
            a, b = win.offsets[w], win.offsets[w + 1]
            for ch in ("t", "acc_z"):
                got = getattr(out, ch)[250 * w:250 * (w + 1)]
                assert got[0] == getattr(win, ch)[a]
                assert got[-1] == getattr(win, ch)[b - 1]

    def test_linear_signal_invariant(self):
        t = np.arange(11) * 0.5
        win = make_windows([t], [2.0 * t + 1.0], [np.full(11, 5.0)])
        out = resample_segment(win, 101)
        assert np.allclose(out.acc_z, 2.0 * out.t + 1.0)

    def test_too_short_target_rejected(self):
        with pytest.raises(ValueError):
            resample_segment(_windows([np.zeros(5)]), 1)

    @pytest.mark.parametrize("flat_t", [np.full(5, 3.0), [0.0, 5e-324]])
    def test_each_grid_equals_linspace_on_its_window_alone(self, flat_t):
        # A window whose grid step is 0 (no time span, or one that
        # underflows) must not change the last bits of the others' grids.
        t = [np.asarray(flat_t), 2.0 + np.cumsum(
            np.random.default_rng(3).uniform(0.01, 0.05, 40))]
        win = make_windows(t, [np.zeros(len(r)) for r in t],
                           [np.ones(len(r)) for r in t])
        grids = resample_segment(win, 250).t.reshape(2, -1)
        for grid, ts in zip(grids, t):
            assert grid.tobytes() == np.linspace(ts[0], ts[-1],
                                                 250).tobytes()

    def test_grid_is_c_ordered(self):
        # The extractors sum along rows; a strided row sums in another order.
        out = resample_segment(_windows([np.zeros(5)] * 3), 40)
        assert out.t.flags.c_contiguous
        assert out.t.reshape(3, -1).flags.c_contiguous


class TestEcdfPercentile:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(3, 40)))
            p = float(rng.uniform(0.01, 0.99))
            xs = np.sort(x)
            ecdf = np.arange(1, len(xs) + 1) / len(xs)
            expected = xs[int(np.argmax(ecdf >= p))]
            assert _ecdf_percentile(xs, p) == expected

    def test_small_example(self):
        # ECDF of [1,2,3,4] is 0.25/0.5/0.75/1.0; the kernel takes the
        # sorted row.
        xs = np.sort(np.array([4.0, 1.0, 3.0, 2.0]))
        assert _ecdf_percentile(xs, 0.5) == 2.0
        assert _ecdf_percentile(xs, 0.51) == 3.0


def _peak_rows():
    """Rows whose peaks hinge on exact comparisons: plateaus (an equal
    neighbour is not below), the shortest rows with and without a centre,
    signed zeros, and magnitudes near the float64 limit."""
    rng = np.random.default_rng(11)
    plateau = np.zeros(60)
    plateau[10:13] = 1.0          # three equal tops: no peak
    plateau[30] = 2.0
    plateau[40] = 2.0             # equal tops 10 apart: neither is a peak
    plateau[52] = 3.0
    steps = np.repeat(rng.integers(0, 4, 12).astype(float), 5)
    zeros = np.where(rng.random(50) < 0.5, -0.0, 0.0)
    zeros[25] = 0.0
    zeros[[24, 26]] = -0.0        # 0.0 is not above -0.0
    zeros[5] = 5e-324
    big = rng.choice([-1.0, 1.0], 50) * 1.7e308 * rng.random(50)
    big[20] = np.finfo(float).max
    big[35] = -np.finfo(float).max
    return [plateau, steps, zeros, big, rng.normal(size=20),
            rng.normal(size=21), rng.normal(size=22), np.arange(21.0),
            np.abs(np.arange(21.0) - 10.0) * -1.0]


class TestNeighbourhoodPeaks:
    @pytest.mark.parametrize("row", _peak_rows())
    def test_equals_per_sample_reference(self, row):
        x = np.vstack([row, row[::-1], -row])
        want = np.array([_ref_neighbourhood_peaks(r) for r in x])
        got = _neighbourhood_peaks(x)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 16])
    def test_every_neighbourhood_equals_reference(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(0, 3, size=(20, 2 * n + 9)).astype(float)
        for m in (2 * n, 2 * n + 1, 2 * n + 9):
            want = np.array([_ref_neighbourhood_peaks(r, n) for r in x[:, :m]])
            assert _neighbourhood_peaks(x[:, :m], n).tobytes() == want.tobytes()


class TestExtractorValues:
    def test_hand_computed_basics(self):
        x = np.array([1.0, 2.0, 4.0, 2.0, 1.0])
        t = np.arange(5.0)
        f = extract_channel_features(x, t)
        assert f["mean"] == 2.0
        assert f["median"] == 2.0
        assert f["min"] == 1.0
        assert f["max"] == 4.0
        assert f["variance"] == pytest.approx(np.var(x))  # population
        assert f["std"] == pytest.approx(np.sqrt(np.var(x)))
        assert f["mean_abs_dev"] == pytest.approx(np.mean(np.abs(x - 2.0)))
        assert f["median_abs_dev"] == pytest.approx(1.0)
        assert f["sum_abs_diff"] == pytest.approx(1 + 2 + 2 + 1)
        assert f["peak_to_peak"] == 3.0
        assert f["pos_turning_points"] == 1.0
        assert f["neg_turning_points"] == 0.0

    def test_energy_family(self):
        x = np.array([3.0, 0.0, 4.0])
        t = np.array([0.0, 1.0, 2.0])
        f = extract_channel_features(x, t)
        assert f["abs_energy"] == 25.0
        assert f["total_energy"] == 12.5
        assert f["rms"] == pytest.approx(np.sqrt(25.0 / 3.0))
        assert f["auc"] == pytest.approx(np.trapezoid(x, t))
        assert f["total_distance"] == pytest.approx(
            np.sqrt(1 + 9) + np.sqrt(1 + 16))

    def test_zero_mean_variants(self):
        x = np.array([1.0, 2.0, 4.0, 2.0, 1.0]) + 100.0
        t = np.arange(5.0)
        f = extract_channel_features(x, t)
        xc = x - x.mean()
        assert f["rms_zm"] == pytest.approx(np.sqrt(np.mean(xc ** 2)))
        assert f["abs_energy_zm"] == pytest.approx(np.sum(xc ** 2))
        assert f["auc_zm"] == pytest.approx(np.trapezoid(xc, t))
        # The zero-mean variants are shift invariant, the raw ones are not.
        g = extract_channel_features(x - 100.0, t)
        assert f["rms_zm"] == pytest.approx(g["rms_zm"])
        assert f["abs_energy"] != pytest.approx(g["abs_energy"])

    def test_autocorr_of_alternating_sequence(self):
        x = np.array([1.0, -1.0] * 10)
        f = extract_channel_features(x, np.arange(20.0))
        assert f["autocorr_lag1"] == pytest.approx(-19.0 / 20.0)

    def test_slope_of_line(self):
        t = np.arange(10.0)
        f = extract_channel_features(3.0 * t + 2.0, t)
        assert f["slope"] == pytest.approx(3.0)

    def test_entropy_limits(self):
        f = extract_channel_features(np.ones(100), np.arange(100.0))
        assert f["entropy"] == 0.0
        # Uniform spread over 10 bins -> log2(10) bits.
        x = np.repeat(np.arange(10.0), 10) + 0.001
        f = extract_channel_features(x, np.arange(100.0))
        assert f["entropy"] == pytest.approx(np.log2(10), abs=1e-9)

    @pytest.mark.parametrize("row", [
        [5e-324, 0.0, 0.0],                         # subnormal range
        [1000.0, np.nextafter(1000.0, 2000.0), 1000.0],  # one-ulp range
    ])
    def test_entropy_of_range_too_narrow_for_bins(self, row):
        x = np.array(row)
        with pytest.raises(ValueError, match="Too many bins"):
            np.histogram(x, bins=10)
        f = extract_channel_features(x, np.arange(3.0))
        assert f["entropy"] == 0.0

    def test_kurtosis_and_skewness_of_gaussian(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100_000)
        f = extract_channel_features(x, np.arange(len(x), dtype=float))
        assert abs(f["kurtosis"]) < 0.1
        assert abs(f["skewness"]) < 0.05

    def test_neighbourhood_peaks(self):
        x = np.zeros(50)
        x[15] = 1.0
        x[35] = 2.0
        f = extract_channel_features(x, np.arange(50.0))
        assert f["neighbourhood_peaks"] == 2.0

    def test_time_reversal_flips_slope(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        t = np.arange(40.0)
        f = extract_channel_features(x, t)
        g = extract_channel_features(x[::-1], t)
        assert g["slope"] == pytest.approx(-f["slope"])
        assert g["variance"] == pytest.approx(f["variance"])
        assert g["pos_turning_points"] == f["pos_turning_points"]

    def test_short_channel_rejected(self):
        with pytest.raises(ValueError):
            extract_channel_features([1.0, 2.0], [0.0, 1.0])


class TestFeatureMatrix:
    def test_names_and_shape(self):
        names = feature_names()
        assert len(names) == 68
        assert names[0] == "mean@acc_z"
        assert names[34] == "mean@speed"
        assert len(set(names)) == 68

    def test_matrix_row_order(self):
        win = _windows([np.sin(np.arange(30)) * (i + 1) for i in range(3)],
                       iris=[0.5, 1.75, 3.0])
        ds = build_feature_matrix(win)
        assert ds.X.shape == (3, 68)
        assert list(ds.y) == [0.5, 1.75, 3.0]
        assert list(ds.level) == [0, 1, 2]
        col = ds.feature_names.index("std@acc_z")
        assert ds.X[0, col] < ds.X[2, col]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no windows"):
            build_feature_matrix(_windows([]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            build_feature_matrix(_windows([np.zeros(5), np.zeros(6)]))


class TestStandardizer:
    def test_two_four_six(self):
        x = np.array([[2.0], [4.0], [6.0]])
        s = standardize_fit(x)
        out = standardize_apply(s, x)
        expected = np.array([-1.0, 0.0, 1.0]) * np.sqrt(1.5)
        assert np.allclose(out[:, 0], expected)
        assert out[0, 0] == pytest.approx(-1.224744871391589)

    def test_population_std(self):
        x = np.array([[1.0], [3.0]])
        s = standardize_fit(x)
        assert s.std[0] == 1.0  # population, not sample (which would be sqrt 2)

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError):
            standardize_fit(np.array([[1.0, 5.0], [2.0, 5.0]]))

    def test_apply_uses_train_statistics(self):
        x_train = np.array([[0.0], [2.0]])
        s = standardize_fit(x_train)
        out = standardize_apply(s, np.array([[4.0]]))
        assert out[0, 0] == pytest.approx(3.0)


class TestBatchEquivalence:
    """The whole-matrix kernel against the per-window reference catalog."""

    def _segments(self, channels, dt=0.02, t0=3.0):
        n = np.array([len(acc) for acc in channels])
        return make_windows(
            [t0 + i * 0.7 + np.arange(k) * dt for i, k in enumerate(n)],
            channels,
            [13.9 + 0.01 * np.cos(np.arange(k) * (i + 1))
             for i, k in enumerate(n)],
            0.5 + 0.3 * np.arange(len(n)))

    def test_catalog_order(self):
        assert [name for name, _ in REFERENCE_CATALOG] == EXTRACTOR_NAMES

    @pytest.mark.parametrize("length", [3, 20, 21, 250])
    def test_random_windows(self, length):
        rng = np.random.default_rng(length)
        rows = [rng.normal(0.0, rng.uniform(0.01, 3.0), length)
                for _ in range(40)]
        assert_matches_reference(self._segments(rows))

    @pytest.mark.parametrize("length", [3, 20, 250])
    def test_degenerate_windows(self, length):
        rng = np.random.default_rng(100 + length)
        ramp = np.linspace(-1.0, 2.0, length)
        outlier = np.zeros(length)
        outlier[length // 2] = 50.0
        rows = [
            np.full(length, 2.5),                       # constant
            np.zeros(length),                           # zero energy
            np.round(rng.normal(size=length), 1),       # ties
            np.repeat(rng.normal(size=length), 3)[:length],  # plateaus
            np.where(np.arange(length) % 4 < 2, 1.0, -1.0),  # square wave
            ramp,
            ramp[::-1].copy(),
            outlier,                                    # single outlier
            outlier - 7.0,
        ]
        assert_matches_reference(self._segments(rows))

    def test_zero_time_span(self):
        assert_matches_reference(make_windows(
            [np.full(30, 4.0)], [np.arange(30.0)], [np.full(30, 5.0)]))

    def test_unequal_lengths_featurized_once_resampled(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(size=n) for n in (30, 250, 30, 7, 250)]
        assert_matches_reference(resample_segment(self._segments(rows), 40))

    def test_blocks_match_one_pass(self, monkeypatch):
        from roadroughness import features
        rng = np.random.default_rng(7)
        segs = self._segments([rng.normal(size=40) for _ in range(18)])
        whole = build_feature_matrix(segs).X
        monkeypatch.setattr(features, "BLOCK_WINDOWS", 5)
        assert np.array_equal(build_feature_matrix(segs).X, whole)

    @pytest.mark.parametrize("length", [21, 37, 250])
    def test_window_alone_bit_identical_to_its_row_in_a_stack(self, length):
        # Every value must not depend on where the window sits in the
        # stacked matrix (SIMD lanes against the scalar tail).
        rng = np.random.default_rng(900 + length)
        x = rng.normal(0.0, rng.uniform(0.01, 3.0, (64, 1)), (64, length))
        t = 2.0 + 0.7 * np.arange(64)[:, None] + 0.02 * np.arange(length)
        stack = _channel_matrix(x, t)
        for i in range(64):
            alone = _channel_matrix(x[i:i + 1], t[i:i + 1])[0]
            for j, name in enumerate(EXTRACTOR_NAMES):
                assert alone[j] == stack[i, j] or (
                    np.isnan(alone[j]) and np.isnan(stack[i, j])), (i, name)

    def test_moments_are_correctly_rounded(self):
        # Skewness and kurtosis use products and a square root only, so
        # Python float arithmetic on one window gives the same bits. numpy's
        # SIMD power is not correctly rounded and would not.
        import math
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 2.0, (64, 250))
        out = _channel_matrix(x, np.tile(0.02 * np.arange(250), (64, 1)))
        skew = EXTRACTOR_NAMES.index("skewness")
        kurt = EXTRACTOR_NAMES.index("kurtosis")
        for i, row in enumerate(x):
            xc = row - np.mean(row)
            sq = xc ** 2
            m2 = float(np.sum(sq)) / 250
            assert out[i, skew] == (float(np.mean(sq * xc))
                                    / (m2 * math.sqrt(m2))), i
            assert out[i, kurt] == float(np.mean(sq * sq)) / (m2 * m2) - 3.0

    def test_peaks_need_21_samples(self):
        for length, expected in ((20, 0.0), (21, 1.0)):
            x = np.zeros(length)
            x[10] = 1.0
            f = extract_channel_features(x, np.arange(float(length)))
            assert f["neighbourhood_peaks"] == expected

    def test_non_finite_feature_names_column_and_window(self):
        rng = np.random.default_rng(6)
        rows = [rng.normal(size=50) for _ in range(3)]
        rows[1] = rows[1] * 1e200  # squares overflow
        rows[2] = rows[2] * 1e200
        segs = self._segments(rows)
        with pytest.raises(ValueError,
                           match="non-finite feature variance@acc_z in "
                                 "segment 1$"):
            with np.errstate(over="ignore"):
                build_feature_matrix(segs)

    def test_range_that_overflows_is_named(self):
        # hi - lo overflows: the entropy's bin index was NaN and raised a
        # bare IndexError.
        x = np.where(np.arange(50) % 2 == 0, _MAX, -_MAX)
        with pytest.raises(ValueError, match="non-finite feature "
                                             r"\w+@acc_z in segment 0$"):
            with np.errstate(all="ignore"):
                build_feature_matrix(self._segments([x]))
        with np.errstate(all="ignore"):
            assert_matches_reference(self._segments([x]))
            x = np.full((2, 50), 1e308)
            x[:, ::7] = -1e308
            assert _channel_matrix(x, np.tile(np.arange(50.0), (2, 1)))[
                0, EXTRACTOR_NAMES.index("entropy")] == 0.0

    def test_non_finite_input_rejected(self):
        x = np.ones(10)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite values"):
            build_feature_matrix(self._segments([x]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40).flatmap(lambda n: st.lists(
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3, width=64)
               | st.sampled_from(_HUGE)),
        min_size=1, max_size=4)))
    def test_property_matches_reference(self, rows):
        with np.errstate(all="ignore"):
            assert_matches_reference(self._segments(rows))


# Signed zeros, the smallest subnormals, near-float64-max values and a few
# small ones, so that rows hold ties and sums that overflow.
_ORDER_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5, _MAX, -_MAX,
                 1e308, -1e308]


class TestSortedOrderStatistics:
    """The median and IQR that ``_channel_matrix`` reads off its sorted
    rows, against the catalog's ``np.median`` and ``np.quantile``."""

    @staticmethod
    def _assert_catalog_bits(x):
        catalog = dict(REFERENCE_CATALOG)
        xs = np.sort(x, axis=1)
        with np.errstate(all="ignore"):
            median, iqr = _sorted_median(xs), _sorted_iqr(xs)
            for i, row in enumerate(x):
                want = catalog["median"](row, None)
                assert median[i].tobytes() == np.float64(want).tobytes()
                # The IQR of the sorted row, as the kernel had it before:
                # np.quantile keeps the sign of the zeros its partition puts
                # between, and that depends on their input order.
                want = catalog["iqr"](xs[i], None)
                assert iqr[i].tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("row", [
        [-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0, -0.0],
        [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
        [0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0, 0.0],
        [-1.0, -0.0, -0.0, 0.0, 1.0, -0.0],
        [_MAX, _MAX, -_MAX, _MAX], [_MAX, -_MAX, _MAX], [-_MAX, 0.0, _MAX],
        [5e-324, -5e-324, 5e-324, 0.0], [2.5, 2.5, 2.5, 2.5, 1.0],
    ])
    def test_edge_rows(self, row):
        self._assert_catalog_bits(np.array([row]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 14).flatmap(lambda n: arrays(
        np.float64, (4, n), elements=st.sampled_from(_ORDER_VALUES)
        | st.floats(-1e3, 1e3, width=64))))
    def test_property_equals_catalog(self, x):
        self._assert_catalog_bits(x)

    def test_the_kernel_takes_them(self):
        rng = np.random.default_rng(31)
        x = np.round(rng.normal(size=(16, 21)), 1)
        out = _channel_matrix(x, np.tile(np.arange(21.0), (16, 1)))
        xs = np.sort(x, axis=1)
        assert (out[:, EXTRACTOR_NAMES.index("median")].tobytes()
                == _sorted_median(xs).tobytes())
        assert (out[:, EXTRACTOR_NAMES.index("iqr")].tobytes()
                == _sorted_iqr(xs).tobytes())
