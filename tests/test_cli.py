import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadroughness.cli import io
from roadroughness.cli.config import DEFAULT_CONFIG, load_config
from roadroughness.cli.main import main
from roadroughness.cli.pipeline import (StageError, bundle_predict,
                                        export_report, run_stage)
from roadroughness.core import (AlignedSegment, Dataset, GeoPoint,
                                ReferenceSegment, TelemetryTrace)
from roadroughness.geoalign.match import MatchedTrace

SMOKE_CONFIG = {
    "seed": 11,
    "simulate": {"route_length_m": 4000.0, "envelope_period_m": 100.0},
    "select": {"k_folds": 3, "max_features": 4, "sfs_trees": 5,
               "sfs_depth": 4, "sfs_max_rows": 200},
    "train": {
        "k_folds": 3,
        "regression_families": ["baseline", "ridge"],
        "classification_families": ["baseline", "knn"],
        "grids": {"regression": {"ridge": {"lam": [60.0]}},
                  "classification": {"knn": {"k": [5]}}},
    },
}


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One small end-to-end pipeline run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("smoke")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMOKE_CONFIG), encoding="utf-8")
    workdir = root / "run"
    rc = main(["run", "--config", str(cfg_path), "--out", str(workdir)])
    assert rc == 0
    return cfg_path, workdir


def _trace(n=12, fix_every=4):
    rng = np.random.default_rng(0)
    gps_idx = np.arange(0, n, fix_every)
    return TelemetryTrace(np.arange(n) * 0.02, rng.normal(size=n),
                          np.full(n, 13.9), gps_idx,
                          55.65 + 1e-5 * gps_idx, 12.55 + 1e-5 * gps_idx)


def per_cell_telemetry(path) -> TelemetryTrace:
    """The reader that converts every cell with ``float``: the oracle for
    the one that parses whole columns with numpy."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != io.TELEMETRY_HEADER:
        raise ValueError(f"{path}: bad telemetry header")
    t, acc, speed = [], [], []
    gps_idx, gps_lat, gps_lon = [], [], []
    for i, line in enumerate(lines[1:]):
        cols = line.split(",")
        if len(cols) != 5:
            raise ValueError(f"{path}: bad column count on row {i + 1}")
        t.append(float(cols[0]))
        acc.append(float(cols[1]))
        speed.append(float(cols[2]))
        if cols[3] != "":
            gps_idx.append(i)
            gps_lat.append(float(cols[3]))
            gps_lon.append(float(cols[4]))
    return TelemetryTrace(t, acc, speed, gps_idx, gps_lat, gps_lon)


def assert_same_trace(got: TelemetryTrace, want: TelemetryTrace) -> None:
    for name in ("t", "acc_z", "speed", "gps_idx", "gps_lat", "gps_lon"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _read_both(path):
    """Both readers' result, or the ValueError each raised."""
    out = []
    for reader in (io.read_telemetry_csv, per_cell_telemetry):
        try:
            out.append(reader(path))
        except ValueError as exc:
            out.append(exc)
    return out


# Fields that either reader may meet; numpy rejects '_' in numbers and
# non-ASCII digits, which float accepts, so neither is drawn.
_TELEMETRY_FIELDS = ["nan", "inf", "-inf", "Infinity", "1e400", "", " ", "x",
                     "-1", "0", "-0.0", " 5", "5 ", "+3", ".5", "5.", "1e-300",
                     "4.9e-324", "12.55", "55.65", "1,2", "#", "0x10"]


@st.composite
def mangled_telemetry(draw):
    """The text of a valid telemetry file with a few fields or lines
    replaced, dropped, duplicated, cut short or extended."""
    lines = [io.TELEMETRY_HEADER] + [
        f"{i * 0.02!r},{v!r},13.9," + (f"{55.65 + i * 1e-5!r},"
                                       f"{12.55 + i * 1e-5!r}"
                                       if i % 3 == 0 else ",")
        for i, v in enumerate(np.random.default_rng(
            draw(st.integers(0, 99))).normal(size=8).tolist())]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split(",")
        action = draw(st.sampled_from(["field", "drop", "dup", "cut",
                                       "extend", "text", "pad"]))
        if action == "field":
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.one_of(
                st.sampled_from(_TELEMETRY_FIELDS),
                st.text("0123456789.-+eEinfa ,\x1c\x1d\x1e\x1f",
                        max_size=6)))
            lines[i] = ",".join(parts)
        elif action == "pad":
            # Whitespace to str.split and numpy, not all of it to float.
            f = draw(st.integers(0, len(parts) - 1))
            pad = draw(st.sampled_from(" \t\x1c\x1d\x1e\x1f"))
            parts[f] = (pad + parts[f] if draw(st.booleans())
                        else parts[f] + pad)
            lines[i] = ",".join(parts)
        elif action == "drop":
            del lines[i]
        elif action == "dup":
            lines.insert(i, lines[i])
        elif action == "cut":
            lines[i] = ",".join(parts[:draw(st.integers(0, len(parts) - 1))])
        elif action == "extend":
            lines[i] += "," + draw(st.sampled_from(_TELEMETRY_FIELDS))
        else:
            lines[i] = draw(st.text("0123456789.,-e \r", max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


class TestTelemetryReader:
    def test_equals_per_cell_reader_on_a_long_trace(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 5000
        gps_idx = np.arange(0, n, 50)
        trace = TelemetryTrace(
            np.arange(n) * 0.02, rng.normal(size=n) * 10.0 ** rng.integers(
                -300, 300, n), rng.uniform(0.0, 40.0, n), gps_idx,
            rng.uniform(-90.0, 90.0, len(gps_idx)),
            rng.uniform(-180.0, 180.0, len(gps_idx)))
        p = tmp_path / "telemetry.csv"
        io.write_telemetry_csv(p, trace)
        assert_same_trace(io.read_telemetry_csv(p), per_cell_telemetry(p))
        assert_same_trace(io.read_telemetry_csv(p), trace)

    @pytest.mark.parametrize("text,message", [
        ("", "bad telemetry header"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n0.02,1.0,13.9,\n",
         "bad column count on row 2"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n\n0.04,1.0,13.9,,\n",
         "bad column count on row 2"),
        (io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,,\n",
         "bad column count on row 1"),
    ])
    def test_errors_keep_their_wording(self, tmp_path, text, message):
        p = tmp_path / "telemetry.csv"
        p.write_text(text, encoding="utf-8")
        for reader in (io.read_telemetry_csv, per_cell_telemetry):
            with pytest.raises(ValueError, match=message):
                reader(p)

    @pytest.mark.parametrize("bad", ["\x1f", "\x00", "\u00e9", "\u0661"])
    def test_character_outside_printable_ascii_names_its_row(self, tmp_path,
                                                              bad):
        p = tmp_path / "telemetry.csv"
        p.write_text(io.TELEMETRY_HEADER + "\n0.0,1.0,13.9,,\n"
                     f"0.02,1.0{bad},13.9,,\n", encoding="utf-8")
        with pytest.raises(ValueError, match="outside printable ASCII on "
                                             "row 2"):
            io.read_telemetry_csv(p)

    def test_header_only_gives_an_empty_trace(self, tmp_path):
        p = tmp_path / "telemetry.csv"
        p.write_text(io.TELEMETRY_HEADER + "\n", encoding="utf-8")
        assert_same_trace(io.read_telemetry_csv(p), per_cell_telemetry(p))

    @settings(max_examples=300, deadline=None)
    @given(mangled_telemetry())
    def test_mangled_files_read_as_the_per_cell_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "telemetry.csv"
            p.write_text(text, encoding="utf-8")
            got, want = _read_both(p)
        if isinstance(want, ValueError):
            assert isinstance(got, ValueError)
        else:
            assert_same_trace(got, want)


class TestArtifactRoundTrips:
    def test_telemetry_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_telemetry_csv(p1, _trace())
        io.write_telemetry_csv(p2, io.read_telemetry_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_telemetry_off_fix_rows_have_empty_coordinates(self, tmp_path):
        p = tmp_path / "a.csv"
        io.write_telemetry_csv(p, _trace())
        rows = p.read_text().splitlines()
        assert rows[0] == io.TELEMETRY_HEADER
        assert rows[2].endswith(",,")   # sample 1 carries no fix
        assert not rows[1].endswith(",")  # sample 0 does

    def test_telemetry_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,acc\n0,1\n")
        with pytest.raises(ValueError):
            io.read_telemetry_csv(p)

    def test_reference_byte_identical(self, tmp_path):
        segs = [ReferenceSegment(GeoPoint(55.65, 12.55),
                                 GeoPoint(55.6501, 12.55), 10.0, 1.0 + i / 7)
                for i in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_reference_csv(p1, segs)
        io.write_reference_csv(p2, io.read_reference_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_matched_byte_identical(self, tmp_path):
        m = MatchedTrace(np.arange(3.0), np.full(3, 55.65),
                         np.full(3, 12.55), np.array([0, 0, 1]),
                         np.array([1.5, 9.7, 3.2]), np.full(3, 55.6501),
                         np.full(3, 12.5501), -12.345)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        io.write_matched_json(p1, m)
        io.write_matched_json(p2, io.read_matched_json(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_windows_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        windows = [AlignedSegment(i, np.arange(10 + i) * 0.02,
                                  rng.normal(size=10 + i),
                                  np.full(10 + i, 13.9), 1.0 + i)
                   for i in range(4)]
        io.write_windows(tmp_path / "w", windows)
        back = io.read_windows(tmp_path / "w")
        assert len(back) == 4
        for w, b in zip(windows, back):
            assert b.window_id == w.window_id
            assert np.array_equal(b.acc_z, w.acc_z)
            assert b.iri == w.iri

    def test_features_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(6, 3)), rng.uniform(0.5, 3.0, 6),
                     rng.integers(0, 3, 6), ["a", "b", "c"])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_features_csv(p1, ds, np.arange(6))
        ds2, ids = io.read_features_csv(p1)
        io.write_features_csv(p2, ds2, ids)
        assert p1.read_bytes() == p2.read_bytes()
        assert ds2.feature_names == ["a", "b", "c"]

    def test_features_short_row_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(4, 3)), rng.uniform(0.5, 3.0, 4),
                     rng.integers(0, 3, 4), ["a", "b", "c"])
        p = tmp_path / "f.csv"
        io.write_features_csv(p, ds, np.arange(4))
        lines = p.read_text().splitlines()
        cols = lines[3].split(",")
        lines[3] = ",".join(cols[:2] + cols[3:])  # drop feature "b"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad column count on row 3"):
            io.read_features_csv(p)

    def test_write_json_is_sorted_with_trailing_newline(self, tmp_path):
        p = tmp_path / "x.json"
        io.write_json(p, {"b": 1.5, "a": [2, 0.1]})
        text = p.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        io.write_json(tmp_path / "y.json", {"a": [2, 0.1], "b": 1.5})
        assert (tmp_path / "y.json").read_bytes() == p.read_bytes()

    def test_bundle_schema_check(self, tmp_path):
        p = tmp_path / "m.json"
        io.save_bundle(p, {"schema_version": io.BUNDLE_SCHEMA_VERSION,
                           "family": "ridge"})
        assert io.load_bundle(p)["family"] == "ridge"
        io.write_json(p, {"schema_version": 99})
        with pytest.raises(ValueError) as exc:
            io.load_bundle(p)
        assert str(p) in str(exc.value)


class TestConfig:
    def test_defaults_returned_without_file(self):
        cfg = load_config()
        assert cfg == DEFAULT_CONFIG

    def test_nested_merge_keeps_unrelated_keys(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"simulate": {"route_length_m": 900.0}}))
        cfg = load_config(p)
        assert cfg["simulate"]["route_length_m"] == 900.0
        assert cfg["simulate"]["profile_dx_m"] == 0.05
        assert cfg["train"]["k_folds"] == 5

    def test_cli_overrides_beat_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 3, "workdir": "from_file"}))
        cfg = load_config(p, seed=99, workdir="elsewhere")
        assert cfg["seed"] == 99
        assert cfg["workdir"] == "elsewhere"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("override", [
        {"train_frac": 1.5},
        {"seed": "seven"},
        {"simulate": {"route_length_m": -1.0}},
        {"simulate": {"envelope_min": 2.0, "envelope_max": 1.0}},
        {"train": {"k_folds": 1}},
        {"train": {"regression_families": ["baseline", "logistic"]}},
        {"train": {"classification_families": ["gausian_nb"]}},
    ])
    def test_invalid_values_rejected(self, tmp_path, override):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        with pytest.raises(ValueError):
            load_config(p)

    @pytest.mark.parametrize("key,value", [
        ("radius_m", float("nan")), ("radius_m", float("inf")),
        ("radius_m", 0.0), ("sigma_m", float("nan")), ("sigma_m", -4.0),
        ("beta_m", float("inf")), ("beta_m", 0.0),
        ("max_candidates", 0), ("max_candidates", float("nan")),
        ("max_candidates", "8"),
    ])
    def test_bad_match_setting_is_named(self, tmp_path, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"match": {key: value}}))
        with pytest.raises(ValueError, match=f"match.{key}"):
            load_config(p)


class TestMainExitCodes:
    def test_missing_config_is_error(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_stage_without_inputs_is_error(self, tmp_path, capsys):
        rc = main(["match", "--out", str(tmp_path / "empty")])
        assert rc == 1
        assert "match" in capsys.readouterr().err

    def test_report_before_run_is_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 1


class TestPipelineRun:
    def test_artifacts_exist(self, smoke_run):
        _, workdir = smoke_run
        for name in ("network.txt", "telemetry.csv", "reference.csv",
                     "matched.json", "features.csv", "selection.json",
                     "training.json", "report.json"):
            assert (workdir / name).exists(), name
        assert (workdir / "windows" / "meta.json").exists()
        for fam in ("baseline", "ridge"):
            assert (workdir / "models" / f"regression_{fam}.json").exists()
        for fam in ("baseline", "knn"):
            assert (workdir / "models" /
                    f"classification_{fam}.json").exists()

    def test_report_structure(self, smoke_run):
        _, workdir = smoke_run
        report = io.read_json(workdir / "report.json")
        assert report["n_train"] + report["n_test"] == len(
            report["actual"]["window_id"]) + report["n_train"]
        assert set(report["test"]["regression"]) == {"baseline", "ridge"}
        assert set(report["test"]["classification"]) == {"baseline", "knn"}
        audit = report["leakage_audit"]
        assert audit["train_range"][1] == audit["test_range"][0]
        for task in audit["cv_fold_bounds"].values():
            for bounds in task.values():
                for (tr_lo, tr_hi), (va_lo, va_hi) in bounds:
                    assert tr_lo == 0 and tr_hi == va_lo < va_hi

    def test_features_file_round_trips(self, smoke_run):
        _, workdir = smoke_run
        ds, ids = io.read_features_csv(workdir / "features.csv")
        assert ds.X.shape[1] == 68
        assert len(ids) == len(ds)

    def test_bundle_predictions_match_report(self, smoke_run):
        _, workdir = smoke_run
        report = io.read_json(workdir / "report.json")
        ds, _ = io.read_features_csv(workdir / "features.csv")
        x_test = ds.X[report["n_train"]:]
        bundle = io.load_bundle(workdir / "models" / "regression_ridge.json")
        pred = bundle_predict(bundle, x_test)
        stored = np.array(report["test"]["regression"]["ridge"]
                          ["predictions"])
        assert np.max(np.abs(pred - stored)) < 1e-12

    def test_single_stage_rerun_is_stable(self, smoke_run):
        cfg_path, workdir = smoke_run
        before = (workdir / "selection.json").read_bytes()
        cfg = load_config(cfg_path, workdir=workdir)
        run_stage("select", cfg)
        assert (workdir / "selection.json").read_bytes() == before

    def test_report_export(self, smoke_run, capsys):
        cfg_path, workdir = smoke_run
        rc = main(["report", "--config", str(cfg_path),
                   "--out", str(workdir)])
        assert rc == 0
        cfg = load_config(cfg_path, workdir=workdir)
        paths = export_report(cfg)
        names = {p.name for p in paths}
        assert names == {"report_metrics.csv", "report_confusion.csv",
                         "report_predictions.csv", "report_sfs.csv"}
        metrics = (workdir / "report_metrics.csv").read_text().splitlines()
        assert metrics[0] == "task,family,metric,value"
        assert len(metrics) > 4
        report = io.read_json(workdir / "report.json")
        preds = (workdir / "report_predictions.csv").read_text().splitlines()
        assert len(preds) == 1 + 2 * report["n_test"]  # two families


class TestSelectSplit:
    def test_single_train_row_fails_in_select(self, tmp_path):
        ds = Dataset(np.random.default_rng(5).normal(size=(2, 4)),
                     np.array([0.5, 1.5]), np.array([0, 1]),
                     ["f0", "f1", "f2", "f3"])
        io.write_features_csv(tmp_path / "features.csv", ds, np.arange(2))
        with pytest.raises(StageError) as exc:
            run_stage("select", load_config(workdir=tmp_path))
        assert exc.value.stage == "select"


class TestTrainSingleWindowLevel:
    def test_train_completes_and_counts_the_level(self, tmp_path):
        """A level with one train window is left un-oversampled by ADASYN
        and counted, in grid search and in the final fit alike."""
        rng = np.random.default_rng(4)
        n = 80
        iri = np.where(np.arange(n) % 2 == 0, 0.6, 1.6)
        iri[3] = 3.5  # the only level-2 window, in every CV fold
        x = np.column_stack([iri + 0.1 * rng.normal(size=n),
                             rng.normal(size=(n, 3))])
        ds = Dataset(x, iri, np.array([0 if v <= 0.9 else 1 if v <= 2.5
                                       else 2 for v in iri]),
                     ["f0", "f1", "f2", "f3"])
        config = load_config(workdir=tmp_path)
        config["select"].update(k_folds=3, max_features=2, sfs_trees=3,
                                sfs_depth=3, sfs_max_rows=None)
        config["train"].update(
            k_folds=3, adasyn=True, regression_families=["baseline"],
            classification_families=["baseline", "knn"],
            grids={"classification": {"knn": {"k": [3]}}})
        io.write_features_csv(tmp_path / "features.csv", ds, np.arange(n))
        run_stage("select", config)
        with pytest.warns(UserWarning, match="class 2 has a single sample"):
            summary = run_stage("train", config)
        assert summary["n_adasyn_skipped_levels"] == 1
        training = io.read_json(tmp_path / "training.json")
        knn = training["tasks"]["classification"]["knn"]
        assert knn["cv_table"][0]["errors"] == []
