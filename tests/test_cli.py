import json

import numpy as np
import pytest

from roadroughness.cli import io
from roadroughness.cli.config import DEFAULT_CONFIG, load_config
from roadroughness.cli.main import main
from roadroughness.cli.pipeline import (bundle_predict, export_report,
                                        run_stage)
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
    ])
    def test_invalid_values_rejected(self, tmp_path, override):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(override))
        with pytest.raises(ValueError):
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
