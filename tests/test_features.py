import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roadroughness.core import AlignedSegment
from roadroughness.features import (CHANNELS, EXTRACTOR_NAMES,
                                    _ecdf_percentile, build_feature_matrix,
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


def _ref_skewness(x):
    xc = x - x.mean()
    m2 = float(np.mean(xc ** 2))
    if m2 == 0.0:
        return 0.0
    return float(np.mean(xc ** 3) / m2 ** 1.5)


def _ref_kurtosis(x):
    xc = x - x.mean()
    m2 = float(np.mean(xc ** 2))
    if m2 == 0.0:
        return 0.0
    return float(np.mean(xc ** 4) / m2 ** 2 - 3.0)


def _ref_entropy(x):
    if np.ptp(x) == 0.0:
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


def reference_row(seg):
    """The 68 features of one segment from the reference catalog."""
    return np.array([fn(getattr(seg, ch), seg.t) for ch in CHANNELS
                     for _, fn in REFERENCE_CATALOG])


def assert_matches_reference(segments):
    with np.errstate(all="ignore"):
        expected = np.array([reference_row(seg) for seg in segments])
    names = feature_names()
    bad = ~np.isfinite(expected)
    if bad.any():
        # Underflowing moments: both raise, naming the same column and window.
        i, j = np.argwhere(bad)[0]
        with pytest.raises(ValueError, match=f"non-finite feature {names[j]} "
                                             f"in segment {i}$"):
            with np.errstate(all="ignore"):
                build_feature_matrix(segments)
        return
    batch = build_feature_matrix(segments).X
    for j, name in enumerate(names):
        if name.split("@")[0] in COUNT_FEATURES:
            assert np.array_equal(batch[:, j], expected[:, j]), name
        else:
            np.testing.assert_allclose(batch[:, j], expected[:, j],
                                       rtol=1e-12, atol=0.0, err_msg=name)


def _segment(acc, speed=None, dt=0.1, iri=1.0, window_id=0):
    acc = np.asarray(acc, dtype=float)
    if speed is None:
        speed = np.full(len(acc), 10.0)
    t = np.arange(len(acc)) * dt
    return AlignedSegment(window_id, t, acc, speed, iri)


class TestResample:
    def test_preserves_endpoints_and_length(self):
        seg = _segment(np.sin(np.arange(30)))
        out = resample_segment(seg, 250)
        assert out.n_points == 250
        assert out.t[0] == seg.t[0]
        assert out.t[-1] == seg.t[-1]
        assert out.acc_z[0] == seg.acc_z[0]
        assert out.acc_z[-1] == seg.acc_z[-1]

    def test_linear_signal_invariant(self):
        t = np.arange(11) * 0.5
        seg = AlignedSegment(0, t, 2.0 * t + 1.0, np.full(11, 5.0), 1.0)
        out = resample_segment(seg, 101)
        assert np.allclose(out.acc_z, 2.0 * out.t + 1.0)

    def test_too_short_target_rejected(self):
        with pytest.raises(ValueError):
            resample_segment(_segment(np.zeros(5)), 1)


class TestEcdfPercentile:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(3, 40)))
            p = float(rng.uniform(0.01, 0.99))
            xs = np.sort(x)
            ecdf = np.arange(1, len(xs) + 1) / len(xs)
            expected = xs[int(np.argmax(ecdf >= p))]
            assert _ecdf_percentile(x, p) == expected

    def test_small_example(self):
        # ECDF of [1,2,3,4] is 0.25/0.5/0.75/1.0.
        assert _ecdf_percentile(np.array([4.0, 1.0, 3.0, 2.0]), 0.5) == 2.0
        assert _ecdf_percentile(np.array([4.0, 1.0, 3.0, 2.0]), 0.51) == 3.0


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
        segs = [_segment(np.sin(np.arange(30)) * (i + 1), iri=0.5 + 1.25 * i,
                         window_id=i) for i in range(3)]
        ds = build_feature_matrix(segs)
        assert ds.X.shape == (3, 68)
        assert list(ds.y) == [0.5, 1.75, 3.0]
        assert list(ds.level) == [0, 1, 2]
        col = ds.feature_names.index("std@acc_z")
        assert ds.X[0, col] < ds.X[2, col]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_feature_matrix([])


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
        segs = []
        for i, acc in enumerate(channels):
            acc = np.asarray(acc, dtype=float)
            t = t0 + i * 0.7 + np.arange(len(acc)) * dt
            speed = 13.9 + 0.01 * np.cos(np.arange(len(acc)) * (i + 1))
            segs.append(AlignedSegment(i, t, acc, speed, 0.5 + 0.3 * i))
        return segs

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
        seg = AlignedSegment(0, np.full(30, 4.0), np.arange(30.0),
                             np.full(30, 5.0), 1.0)
        assert_matches_reference([seg])

    def test_unequal_lengths_featurized_per_length(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(size=n) for n in (30, 250, 30, 7, 250)]
        assert_matches_reference(self._segments(rows))

    def test_blocks_match_one_pass(self, monkeypatch):
        from roadroughness import features
        rng = np.random.default_rng(7)
        segs = self._segments([rng.normal(size=n) for n in [40] * 17 + [9]])
        whole = build_feature_matrix(segs).X
        monkeypatch.setattr(features, "BLOCK_WINDOWS", 5)
        assert np.array_equal(build_feature_matrix(segs).X, whole)

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

    def test_non_finite_input_rejected(self):
        x = np.ones(10)
        x[3] = np.nan
        with pytest.raises(ValueError, match="non-finite values"):
            build_feature_matrix(self._segments([x]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40).flatmap(lambda n: st.lists(
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3, width=64)),
        min_size=1, max_size=4)))
    def test_property_matches_reference(self, rows):
        assert_matches_reference(self._segments(rows))
