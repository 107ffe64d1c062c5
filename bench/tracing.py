"""Spans and counters around the program's public functions.

The benchmark never edits the program. In a traced run it replaces public
functions of the program's modules with timing wrappers (``install``) and
puts them back afterwards. Every span is attributed to a layer: its name up
to the first dot. A layer's self time is the time spent in its spans minus
the part covered by nested spans, so the self times of all layers plus the
untraced remainder add up to the wall time.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

_NULL = contextlib.nullcontext()


class Tracer:
    """Span totals, counters and per-layer self time for one process.

    A disabled tracer hands out a no-op context and its wrappers call
    straight through, so the benchmark's spans cost next to nothing in an
    untraced run and nothing is recorded while outputs are checked.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [layer, start, child_time]
        self._undo: list[tuple] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        layer = name.split(".", 1)[0]
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - frame[1]
            self._stack.pop()
            self.totals[name] += elapsed
            self.self_time[layer] += elapsed - frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, span, on_result=None):
        """Replace ``owner.attr`` by a wrapper that opens ``span`` (a name,
        a function of (args, kwargs) giving the name, or None for no span)
        and passes (result, args, kwargs) to ``on_result``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                name = span(args, kwargs) if callable(span) else span
                with self._span(name):
                    result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points used by the workloads.

    The pipeline module imports most functions by name, so those are
    wrapped in the pipeline's namespace; calls made inside a layer by global
    name (``build_lattice`` from ``match_fixes``, ``quarter_car_response``
    from ``build_reference_segments``, ``smo_solve`` from the SVM solvers)
    are wrapped in that layer's own module.
    """
    from roadroughness import simkit
    from roadroughness.cli import io, pipeline
    from roadroughness.geoalign import match
    from roadroughness.geoalign.network import RoadNetwork
    from roadroughness.models import resample, search, svm
    from roadroughness.models.logistic import LogisticModel
    from roadroughness.models.mlp import MlpModel
    from roadroughness.models.neighbors import KnnModel
    from roadroughness.models.svm import SvmModel
    from roadroughness.models.tree import RandomForestModel

    w, c = tracer.wrap, tracer.count

    # simkit
    w(pipeline, "generate_profile", "simkit.profile_s")
    w(pipeline, "modulate_profile", "simkit.profile_s")
    w(pipeline, "build_reference_segments", "simkit.reference_s")
    w(simkit, "quarter_car_response", None,
      lambda r, a, k: c("simkit.steps", len(r.t)))
    w(pipeline, "synthesize_telemetry", "simkit.telemetry_s",
      lambda r, a, k: c("simkit.steps", len(r)))

    # geoalign
    w(match, "build_lattice", "geoalign.lattice_s",
      lambda r, a, k: c("geoalign.fixes", len(r[0])))
    w(match, "viterbi_path", "geoalign.viterbi_s")
    w(RoadNetwork, "candidates", "geoalign.candidates_s",
      lambda r, a, k: c("geoalign.candidates", len(r)))
    w(RoadNetwork, "shortest_node_dists", "geoalign.dijkstra_s",
      lambda r, a, k: c("geoalign.dijkstra_calls"))
    w(RoadNetwork, "route_distance", None,
      lambda r, a, k: c("geoalign.route_distance_calls"))
    w(pipeline, "interpolate_positions", "geoalign.align_s")
    w(pipeline, "align_segments", "geoalign.align_s")
    w(pipeline, "sliding_windows", "geoalign.windows_s")

    # features
    w(pipeline, "resample_segment", "features.resample_s")
    w(pipeline, "build_feature_matrix", "features.extract_s",
      lambda r, a, k: c("features.windows", len(r)))

    # selection
    def sfs_scorings(result, args, kwargs):
        n_cols = np.asarray(args[0]).shape[1]
        c("selection.scorings",
          sum(n_cols - i for i in range(len(result.order))))
    w(pipeline, "sfs_forward", "selection.sfs_s", sfs_scorings)
    w(pipeline, "pca_fit", "selection.pca_s")

    # models, fitting
    def forest_nodes(result, args, kwargs):
        c("models.trees", len(result.trees))
        c("models.tree_nodes", sum(len(t.feature) for t in result.trees))
    w(RandomForestModel, "fit", "models.forest_fit_s", forest_nodes)
    w(svm, "smo_solve", "models.smo_s",
      lambda r, a, k: c("models.smo_iters", r[4]))
    w(MlpModel, "fit", "models.mlp_fit_s",
      lambda r, a, k: c("models.mlp_epochs", len(r.loss_history)))
    w(LogisticModel, "fit", "models.logistic_fit_s")
    for module in (resample, search, pipeline):
        w(module, "adasyn_resample", "models.adasyn_s")

    def grid_cells(result, args, kwargs):
        c("models.cv_fits", sum(len(row["fold_scores"])
                                for row in result.cv_table))
        c("models.cv_fits_failed", sum(len(row["errors"])
                                       for row in result.cv_table))
    w(pipeline, "grid_search", lambda a, k: f"models.grid_s.{a[1]}.{a[0]}",
      grid_cells)

    # models, prediction
    w(RandomForestModel, "predict", "models.forest_predict_s")
    w(KnnModel, "predict", "models.knn_predict_s")
    w(SvmModel, "predict", "models.svm_predict_s")

    # cli.io
    w(io, "write_telemetry_csv", "io.telemetry_write_s")
    w(io, "read_telemetry_csv", "io.telemetry_read_s")
    w(io, "write_features_csv", "io.features_write_s")
    w(io, "read_features_csv", "io.features_read_s")
    w(io, "save_bundle", "io.bundle_write_s")
    w(io, "load_bundle", "io.bundle_read_s")
    # write_json/read_json are left out: the bundle functions call them.
    for name in ("write_reference_csv", "read_reference_csv",
                 "write_matched_json", "read_matched_json", "write_windows",
                 "read_windows"):
        w(io, name, "io.other_s")
    w(RoadNetwork, "save", "io.network_s")
    w(RoadNetwork, "load", "io.network_s")


# ------------------------------------------------------------------ report

GRID_CELLS = (
    [f"regression.{f}" for f in ("baseline", "ridge", "lasso", "elastic_net",
                                 "knn", "random_forest", "svm", "mlp")]
    + [f"classification.{f}" for f in ("baseline", "knn", "gaussian_nb",
                                       "random_forest", "svm", "mlp")])

# Span prefix -> layer name in the share.* metrics.
LAYERS = {"stage": "pipeline", "simkit": "simkit", "geoalign": "geoalign",
          "features": "features", "selection": "selection",
          "models": "models", "io": "io"}

PER_LAYER = (
    [(f"stage.{s}_s", "s") for s in ("simulate", "match", "align",
                                      "featurize", "select", "train",
                                      "predict")]
    + [("simkit.profile_s", "s"), ("simkit.reference_s", "s"),
       ("simkit.telemetry_s", "s"), ("simkit.steps", "count"),
       ("simkit.steps_per_s", "1/s"),
       ("geoalign.fixes", "count"), ("geoalign.candidates_s", "s"),
       ("geoalign.candidates_per_fix", "count"),
       ("geoalign.dijkstra_s", "s"), ("geoalign.dijkstra_calls", "count"),
       ("geoalign.route_distance_calls", "count"),
       ("geoalign.dijkstra_per_route_distance", "ratio"),
       ("geoalign.lattice_s", "s"), ("geoalign.viterbi_s", "s"),
       ("geoalign.align_s", "s"), ("geoalign.windows_s", "s"),
       ("geoalign.snap_err_p95_m", "m"),
       ("features.resample_s", "s"), ("features.extract_s", "s"),
       ("features.windows", "count"), ("features.us_per_window", "us"),
       ("selection.sfs_s", "s"), ("selection.scorings", "count"),
       ("selection.pca_s", "s"),
       ("models.forest_fit_s", "s"), ("models.trees", "count"),
       ("models.tree_nodes", "count"), ("models.nodes_per_s", "1/s"),
       ("models.smo_s", "s"), ("models.smo_iters", "count"),
       ("models.mlp_fit_s", "s"), ("models.mlp_epochs", "count"),
       ("models.logistic_fit_s", "s"), ("models.adasyn_s", "s"),
       ("models.cv_fits", "count"), ("models.cv_fits_failed", "count")]
    + [(f"models.grid_s.{cell}", "s") for cell in GRID_CELLS]
    + [("models.forest_predict_s", "s"), ("models.knn_predict_s", "s"),
       ("models.svm_predict_s", "s"), ("models.predict_rows", "count"),
       ("io.telemetry_write_s", "s"), ("io.telemetry_read_s", "s"),
       ("io.telemetry_mb", "MB"), ("io.features_write_s", "s"),
       ("io.features_read_s", "s"), ("io.bundle_write_s", "s"),
       ("io.bundle_read_s", "s"), ("io.bundle_mb", "MB"),
       ("io.other_s", "s"), ("io.network_s", "s")]
    + [(f"share.{layer}", "ratio") for layer in LAYERS.values()]
    + [("share.untraced", "ratio"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, wall: float,
                  quality: dict) -> dict:
    """Per-round span totals and counts, derived rates, and each layer's
    share of the traced wall time ``wall`` (summed over ``rounds``)."""
    t = {k: v / rounds for k, v in tracer.totals.items()}
    n = {k: v / rounds for k, v in tracer.counts.items()}
    out = {name: t.get(name, n.get(name, 0.0)) for name, _ in PER_LAYER}
    out["simkit.steps_per_s"] = _ratio(
        n.get("simkit.steps", 0.0),
        t.get("simkit.reference_s", 0.0) + t.get("simkit.telemetry_s", 0.0))
    out["geoalign.candidates_per_fix"] = _ratio(
        n.get("geoalign.candidates", 0.0), n.get("geoalign.fixes", 0.0))
    out["geoalign.dijkstra_per_route_distance"] = _ratio(
        n.get("geoalign.dijkstra_calls", 0.0),
        n.get("geoalign.route_distance_calls", 0.0))
    out["features.us_per_window"] = 1e6 * _ratio(
        t.get("features.resample_s", 0.0) + t.get("features.extract_s", 0.0),
        n.get("features.windows", 0.0))
    out["models.nodes_per_s"] = _ratio(n.get("models.tree_nodes", 0.0),
                                       t.get("models.forest_fit_s", 0.0))
    covered = 0.0
    for prefix, layer in LAYERS.items():
        own = tracer.self_time.get(prefix, 0.0)
        covered += own
        out[f"share.{layer}"] = _ratio(own, wall)
    out["share.untraced"] = _ratio(wall - covered, wall)
    out.update(quality)
    return out
