"""Tests of the benchmark itself: each check fails on a corrupted output,
each workload passes at a tiny size, and BENCHMARK.json lists exactly the
metrics the benchmark prints.

    python3 -m pytest bench -q      # from the root of the checkout
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 5


def tiny(name: str, tmp_path_factory):
    workload = workloads.WORKLOADS[name](tmp_path_factory.mktemp(name), SEED,
                                         workloads.TINY)
    tracer = tracing.Tracer(False)
    workload.setup(tracer)
    workload.setup_checks()
    workload.load()
    out = workload.round(tracer)
    return workload, out


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    return tiny("survey", tmp_path_factory)


@pytest.fixture(scope="module")
def fit(tmp_path_factory):
    return tiny("fit", tmp_path_factory)


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    return tiny("city", tmp_path_factory)


class Corrupted:
    """Rewrite one artifact for the duration of a ``with`` block."""

    def __init__(self, path: Path, edit):
        self.path, self.edit = path, edit

    def __enter__(self):
        self.original = self.path.read_bytes()
        self.edit(self.path)

    def __exit__(self, *exc):
        self.path.write_bytes(self.original)


def edit_json(path: Path, change):
    data = json.loads(path.read_text(encoding="utf-8"))
    change(data)
    path.write_text(json.dumps(data), encoding="utf-8")


# ------------------------------------------------------------ tiny passes

def test_survey_tiny_pass(survey):
    workload, out = survey
    quality = workload.check(out)
    assert out["failed"] == 0
    assert out["attempted"] == 4 + len(workloads.REGRESSION_FAMILIES) \
        + len(workloads.SURVEY_CLASSIFIERS)
    assert 0 < quality["geoalign.snap_err_p95_m"] < 6 * 3.0


def test_fit_tiny_pass(fit):
    workload, out = fit
    workload.check(out)
    assert out["failed"] == 1      # the stored fold stalls the solver


def test_city_tiny_pass(city):
    workload, out = city
    workload.check(out)
    assert out["attempted"] == workloads.TINY.drives and out["failed"] == 0


# -------------------------------------------------------------- survey

def test_corrupt_feature_fails(survey):
    workload, out = survey
    path = workload.workdir / "features.csv"

    def bump(p):
        lines = p.read_text(encoding="utf-8").splitlines()
        col = lines[0].split(",").index("rms@acc_z")
        cells = lines[3].split(",")
        cells[col] = repr(float(cells[col]) * (1 + 1e-6))
        lines[3] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")

    with Corrupted(path, bump), pytest.raises(CheckError, match="rms@acc_z"):
        workload.check(out)


def test_corrupt_snapped_fix_fails(survey):
    workload, out = survey

    def move(data):
        data["lat"][7] += 0.0005   # about 56 m north

    with Corrupted(workload.workdir / "matched.json",
                   lambda p: edit_json(p, move)):
        with pytest.raises(CheckError, match="snapped fix 7"):
            workload.check(out)


def test_corrupt_window_label_fails(survey):
    workload, out = survey
    path = workload.workdir / "windows" / "iri.npy"

    def shift(p):
        iri = np.load(p)
        iri[2] += 1e-9
        np.save(p, iri)

    with Corrupted(path, shift), pytest.raises(CheckError, match="IRI"):
        workload.check(out)


def test_corrupt_prediction_fails(survey):
    workload, out = survey
    bad = copy.deepcopy(out)
    bad["predictions"]["regression_ridge"][0] += 1e3
    with pytest.raises(CheckError, match="ridge"):
        workload.check(bad)
    bad = copy.deepcopy(out)
    bad["predictions"]["classification_knn"][0] = 7.0
    with pytest.raises(CheckError, match="knn"):
        workload.check(bad)


# ----------------------------------------------------------------- fit

def test_corrupt_fold_fails(fit):
    workload, out = fit
    bad = copy.deepcopy(out)
    bounds = bad["training"]["tasks"]["regression"]["ridge"]["fold_bounds"]
    tr, va = bounds[1]
    bounds[1] = [tr, [va[0] - 1, va[1]]]
    with pytest.raises(CheckError, match="prefix"):
        workload.check(bad)


def test_corrupt_selection_fails(fit):
    workload, out = fit
    path = workload.workdir / "selection.json"

    def repeat(data):
        data["sfs"]["order"].append(data["sfs"]["order"][0])

    def skew(data):
        data["pca"]["components"][0][0] *= 1.01

    for change, match in ((repeat, "repeats"), (skew, "orthonormal")):
        with Corrupted(path, lambda p: edit_json(p, change)):
            with pytest.raises(CheckError, match=match):
                workload.check(out)


def test_corrupt_bundle_fails(fit):
    workload, out = fit
    path = workload.workdir / "models" / "regression_ridge.json"

    def flip(data):
        state = data["model_state"]
        state["coef"] = [-c for c in state["coef"]]

    with Corrupted(path, lambda p: edit_json(p, flip)):
        with pytest.raises(CheckError, match="ridge"):
            workload.check(out)


def test_best_classifier_ignores_levels_unseen_in_training():
    levels = np.array([0, 0, 1, 1, 2, 2])
    baseline = np.ones(6)
    good = np.array([2, 2, 1, 1, 2, 2])   # right on every level seen
    checks.check_best_classifier(levels, {"baseline": baseline, "rf": good},
                                 train_levels=[1, 2])
    with pytest.raises(CheckError, match="does not beat the baseline"):
        checks.check_best_classifier(levels, {"baseline": baseline,
                                              "rf": baseline},
                                     train_levels=[1, 2])


# ---------------------------------------------------------------- city

def test_corrupt_city_match_fails(city):
    workload, out = city
    bad = copy.deepcopy(out)
    bad["matched"][0].edge[5] = len(workload.edge_nodes) - 1   # far corner
    with pytest.raises(CheckError, match="share no junction"):
        workload.check(bad)
    bad = copy.deepcopy(out)
    bad["matched"][1].lon[3] += 0.001   # about 63 m east
    with pytest.raises(CheckError, match="snapped fix 3"):
        workload.check(bad)


# ----------------------------------------------------- harness pieces

def test_self_times_add_up():
    tracer = tracing.Tracer(True)
    with tracer.span("stage.a_s"):
        with tracer.span("models.b_s"):
            sum(range(10000))
        with tracer.span("io.c_s"):
            sum(range(10000))
    assert sum(tracer.self_time.values()) == pytest.approx(
        tracer.totals["stage.a_s"], rel=1e-9)
    assert tracer.self_time["stage"] < tracer.totals["stage.a_s"]


def test_install_restores_the_program():
    from roadroughness.cli import pipeline
    from roadroughness.geoalign.network import RoadNetwork
    before = (pipeline.sfs_forward, RoadNetwork.candidates)
    tracer = tracing.Tracer(True)
    tracing.install(tracer)
    assert pipeline.sfs_forward is not before[0]
    tracer.uninstall()
    assert (pipeline.sfs_forward, RoadNetwork.candidates) == before


def test_stopwatch_scales_each_segment_by_its_probes(monkeypatch):
    probes = iter([0.05, 0.15, 0.05])   # host 2x slow in the 2nd segment
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    # Two 1 s segments; the 4 s spent in the probe between them is not
    # counted.
    clock = iter([0.0, 1.0, 5.0, 6.0, 7.0])
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    watch = hostspeed.Stopwatch()
    watch.mark()
    watch.mark()
    assert watch.wall == pytest.approx(2.0)
    # Each segment is scaled by the mean of the probes at its ends, 0.1 s.
    assert watch.wall_ref == pytest.approx(2.0 * hostspeed.REF_S / 0.1)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "city", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_snap_check_bound():
    lat = np.array([55.0, 55.0])
    lon = np.array([12.0, 12.0])
    checks.check_snaps(lat, lon, lat + 1e-5, lon, 3.0)       # about 1 m
    with pytest.raises(CheckError):
        checks.check_snaps(lat, lon, lat + 3e-4, lon, 3.0)   # about 33 m
