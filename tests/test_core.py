import numpy as np
import pytest

from roadroughness.core import (Dataset, IriLevel, Reference, TelemetryTrace,
                                classification_metrics, confusion_matrix,
                                iri_levels, ordered_kfold, ordered_split,
                                regression_metrics)


class TestIriLevel:
    @pytest.mark.parametrize("iri,expected", [
        (0.0, IriLevel.LOW),
        (0.9, IriLevel.LOW),
        (0.91, IriLevel.MEDIUM),
        (2.5, IriLevel.MEDIUM),
        (2.51, IriLevel.HIGH),
        (10.0, IriLevel.HIGH),
    ])
    def test_thresholds(self, iri, expected):
        assert iri_levels(iri) == expected
        assert iri_levels([0.5, iri, 3.0]).tolist() == [0, expected, 2]

    def test_ordinal_values(self):
        assert int(IriLevel.LOW) == 0
        assert int(IriLevel.MEDIUM) == 1
        assert int(IriLevel.HIGH) == 2

    def test_negative_rejected(self):
        for iri in (-0.1, [1.0, -0.1]):
            with pytest.raises(ValueError, match="non-negative, got -0.1"):
                iri_levels(iri)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            iri_levels([1.0, bad])


def _reference(n=4, **columns) -> Reference:
    """A valid n-segment reference, with the given columns replaced."""
    cols = {"start_lat": np.full(n, 55.0), "start_lon": np.full(n, 12.0),
            "end_lat": np.full(n, 55.0001), "end_lon": np.full(n, 12.0),
            "length": np.full(n, 10.0), "iri": np.linspace(0.0, 3.0, n)}
    return Reference(**(cols | columns))


def _with(value, row, n=4) -> np.ndarray:
    """A column of valid values 1.0 with ``value`` in ``row``."""
    col = np.ones(n)
    col[row] = value
    return col


class TestReference:
    def test_valid(self):
        r = _reference(end_lat=[-90.0, 90.0, 0.0, 0.0],
                       end_lon=[-180.0, 180.0, 0.0, 0.0], iri=np.zeros(4))
        assert len(r) == 4 and r.end_lat.tolist() == [-90.0, 90.0, 0.0, 0.0]
        assert len(_reference(0)) == 0

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0),
                                         (0.0, 181.0), (0.0, -181.0)])
    def test_out_of_range(self, lat, lon):
        for point in ("start", "end"):
            with pytest.raises(ValueError, match="itude out of range in "
                                                 "segment 2"):
                _reference(**{f"{point}_lat": _with(lat, 2),
                              f"{point}_lon": _with(lon, 2)})

    @pytest.mark.parametrize("column,value,message", [
        ("start_lat", np.nan, "latitude out of range in segment 1: nan"),
        ("end_lon", np.nan, "longitude out of range in segment 1: nan"),
        ("end_lat", np.inf, "latitude out of range in segment 1: inf"),
        ("length", 0.0, "length must be positive and finite in segment 1"),
        ("length", -10.0, "length must be positive and finite in segment 1"),
        ("length", np.inf, "length must be positive and finite in segment 1"),
        ("length", np.nan, "length must be positive and finite in segment 1"),
        ("iri", -0.1, "IRI must be finite and non-negative in segment 1"),
        ("iri", np.inf, "IRI must be finite and non-negative in segment 1"),
        ("iri", np.nan, "IRI must be finite and non-negative in segment 1"),
    ])
    def test_bad_values_name_the_first_bad_segment(self, column, value,
                                                   message):
        col = _with(value, 1)
        col[3] = value
        with pytest.raises(ValueError, match=message):
            _reference(**{column: col})

    def test_first_bad_segment_counts_start_and_end(self):
        with pytest.raises(ValueError, match="segment 1: -95.0"):
            _reference(start_lat=_with(-99.0, 3), end_lat=_with(-95.0, 1))

    @pytest.mark.parametrize("columns", [
        {"iri": np.zeros(3)}, {"start_lon": np.ones(5)},
        {"length": np.ones((4, 1))}, {"start_lat": 1.0, "start_lon": 1.0,
                                      "end_lat": 1.0, "end_lon": 1.0,
                                      "length": 1.0, "iri": 1.0}])
    def test_fields_of_unequal_length_rejected(self, columns):
        with pytest.raises(ValueError, match="1-D, of one length"):
            _reference(**columns)


class TestTelemetryTrace:
    def test_gps_alignment(self):
        trace = TelemetryTrace([0.0, 0.1, 0.2, 0.3], [0.0, 1.0, -1.0, 0.5],
                               [10.0, 10.0, 10.0, 10.0], [0, 2],
                               [55.0, 55.001], [12.0, 12.001])
        assert list(trace.t[trace.gps_idx]) == [0.0, 0.2]

    @pytest.mark.parametrize("t,acc_z,speed,message", [
        ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], [1.0, np.nan, 1.0],
         "t must be finite: sample 1 is nan"),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0], [1.0, 1.0, 1.0],
         "acc_z must be finite: sample 1 is inf"),
        ([0.0, 1.0, 2.0], [np.nan, -np.inf, 2.0], [1.0, 1.0, 1.0],
         "acc_z must be finite: sample 0 is nan"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, np.inf],
         "speed must be finite: sample 2 is inf"),
    ])
    def test_non_finite_channel_value_names_its_sample(self, t, acc_z, speed,
                                                       message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TelemetryTrace(t, acc_z, speed, [], [], [])

    def test_non_finite_fix_position_accepted(self):
        trace = TelemetryTrace([0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0, 1],
                               [np.nan, 55.0], [12.0, np.inf])
        assert np.isnan(trace.gps_lat[0]) and np.isinf(trace.gps_lon[1])

    def test_non_monotonic_time_rejected(self):
        with pytest.raises(ValueError):
            TelemetryTrace([0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [], [], [])

    @pytest.mark.parametrize("gps_idx", [[-1], [2], [0, 5]])
    def test_fix_index_outside_the_samples_rejected(self, gps_idx):
        with pytest.raises(ValueError, match="gps_idx"):
            TelemetryTrace([0.0, 0.1], [0.0, 0.0], [1.0, 1.0], gps_idx,
                           [55.0] * len(gps_idx), [12.0] * len(gps_idx))

    @pytest.mark.parametrize("gps_idx", [[2, 2], [0, 2, 1]])
    def test_fixes_out_of_row_order_rejected(self, gps_idx):
        """A file holds one fix per row, in row order: [2, 2] used to write
        one fix and read back one."""
        with pytest.raises(ValueError, match="^gps_idx must be strictly "
                                             "increasing$"):
            TelemetryTrace([0.0, 0.1, 0.2], [0.0] * 3, [1.0] * 3, gps_idx,
                           [55.0] * len(gps_idx), [12.0] * len(gps_idx))


def _toy_dataset(n=10):
    x = np.arange(n, dtype=float).reshape(-1, 1)
    y = np.linspace(1.0, 2.0, n)
    level = np.zeros(n, dtype=int)
    return Dataset(x, y, level, ["f0"])


class TestOrderedSplit:
    def test_sizes_and_order(self):
        train, test = ordered_split(_toy_dataset(10), 0.8)
        assert len(train) == 8 and len(test) == 2
        assert train.X.max() < test.X.min()

    def test_floor_split(self):
        train, test = ordered_split(_toy_dataset(7), 0.5)
        assert len(train) == 3 and len(test) == 4

    def test_degenerate_fraction(self):
        with pytest.raises(ValueError):
            ordered_split(_toy_dataset(3), 0.1)


class TestOrderedKfold:
    def test_expanding_window(self):
        folds = ordered_kfold(10, 5)
        assert len(folds) == 4
        for train, val in folds:
            assert train.max() < val.min()

    def test_all_indices_used_once_as_validation(self):
        folds = ordered_kfold(20, 4)
        seen = np.concatenate([val for _, val in folds])
        first_block = np.array_split(np.arange(20), 4)[0]
        expected = np.setdiff1d(np.arange(20), first_block)
        assert np.array_equal(np.sort(seen), expected)

    @pytest.mark.parametrize("n,k", [(5, 5), (7, 3), (200, 10)])
    def test_property_sweep(self, n, k):
        for train, val in ordered_kfold(n, k):
            assert len(train) > 0 and len(val) > 0
            assert train.max() < val.min()

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ordered_kfold(3, 5)


class TestRegressionMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        m = regression_metrics(y, y)
        assert m["r2"] == pytest.approx(1.0)
        assert m["mae"] == 0.0
        assert m["rmse"] == 0.0
        assert m["mre"] == 0.0

    def test_hand_computed(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        yhat = np.array([1.5, 2.0, 2.5, 4.5])
        m = regression_metrics(y, yhat)
        assert m["mae"] == pytest.approx(0.375)
        assert m["rmse"] == pytest.approx(np.sqrt((0.25 + 0 + 0.25 + 0.25) / 4))
        ss_res = 0.25 + 0.0 + 0.25 + 0.25
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert m["r2"] == pytest.approx(1 - ss_res / ss_tot)
        assert m["mre"] == pytest.approx(
            np.mean([0.5 / 1, 0.0, 0.5 / 3, 0.5 / 4]))

    def test_constant_prediction_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        m = regression_metrics(y, np.full(3, y.mean()))
        assert m["r2"] == pytest.approx(0.0)

    def test_nonpositive_targets_rejected(self):
        with pytest.raises(ValueError):
            regression_metrics([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regression_metrics([1.0, 2.0], [1.0])


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 1, 2, 1, 1], [0, 1, 1, 2, 1])
        expected = np.array([[1, 0, 0], [0, 2, 1], [0, 1, 0]])
        assert np.array_equal(cm, expected)

    def test_sums_to_n(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, 50)
        yhat = rng.integers(0, 3, 50)
        assert confusion_matrix(y, yhat).sum() == 50

    @pytest.mark.parametrize("y,yhat,bad", [
        ([0, 1, -1], [0, 1, 2], "row 2 is -1"),
        ([0, 1, 1.7], [0, 1, 2], "row 2 is 1.7"),
        ([0, 1, 2], [0.0, 3.0, 2.0], "row 1 is 3.0"),
        ([0, 1, 2], [0.0, np.nan, 2.0], "row 1 is nan"),
    ])
    def test_label_outside_the_levels_is_named(self, y, yhat, bad):
        """A -1 used to be counted as level 2 and 1.7 as level 1."""
        with pytest.raises(ValueError, match=rf"0\.\.2: {bad}"):
            confusion_matrix(y, yhat)
        with pytest.raises(ValueError, match=rf"0\.\.2: {bad}"):
            classification_metrics(y, yhat)

    def test_integral_float_labels_pass(self):
        assert np.array_equal(confusion_matrix([0.0, 2.0], [2.0, 2.0]),
                              [[0, 0, 1], [0, 0, 0], [0, 0, 1]])


class TestClassificationMetrics:
    def test_perfect(self):
        m = classification_metrics([0, 1, 2], [0, 1, 2])
        assert m["precision"] == 1.0
        assert m["recall"] == 1.0
        assert m["f1"] == 1.0

    def test_macro_counts_absent_class_as_zero(self):
        # Class 2 never appears; macro average still divides by 3.
        m = classification_metrics([0, 1, 0, 1], [0, 1, 0, 1])
        assert m["f1"] == pytest.approx(2.0 / 3.0)

    def test_hand_computed_macro(self):
        y = [0, 0, 1, 1, 2, 2]
        yhat = [0, 1, 1, 1, 2, 0]
        m = classification_metrics(y, yhat)
        # Per class precision: 1/2, 2/3, 1/1; recall: 1/2, 2/2, 1/2.
        assert m["precision"] == pytest.approx((0.5 + 2 / 3 + 1.0) / 3)
        assert m["recall"] == pytest.approx((0.5 + 1.0 + 0.5) / 3)

    def test_weighted_average(self):
        y = [0, 0, 0, 1]
        yhat = [0, 0, 1, 1]
        m = classification_metrics(y, yhat, average="weighted")
        # Weights 3/4 for class 0, 1/4 for class 1, 0 for class 2.
        p0, p1 = 1.0, 0.5
        assert m["precision"] == pytest.approx(0.75 * p0 + 0.25 * p1)
