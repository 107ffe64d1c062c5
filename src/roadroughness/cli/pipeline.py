"""Stage orchestration: simulate -> match -> align -> featurize -> select ->
train -> evaluate, each stage persisting its artifacts before the next one
starts. Any stage can also be run standalone from its input files."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import (classification_metrics, confusion_matrix,
                    ordered_split, regression_metrics)
from ..features import (Standardizer, build_feature_matrix,
                        resample_segment, standardize_apply, standardize_fit)
from ..geoalign import (RoadNetwork, align_segments, interpolate_positions,
                        match_fixes, sliding_windows)
# adasyn_resample is not called here; bench/tracing.py wraps this name.
from ..models import adasyn_resample, grid_search, make_model
from ..models.search import family_record, fold_plan, prepare_train_rows
from ..selection import (PcaBasis, drop_constant, pca_fit, pca_transform,
                         sfs_forward)
from ..simkit import (GOLDEN_CAR, SimConfig, build_reference_segments,
                      generate_profile, generate_route, modulate_profile,
                      perturbed_params, synthesize_telemetry)
from . import io

STAGE_ORDER = ("simulate", "match", "align", "featurize", "select", "train",
               "evaluate")

class StageError(RuntimeError):
    """Raised when a pipeline stage fails; names the offending stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _paths(config: dict) -> dict:
    w = Path(config["workdir"])
    return {
        "workdir": w,
        "network": w / "network.txt",
        "telemetry": w / "telemetry.csv",
        "reference": w / "reference.csv",
        "matched": w / "matched.json",
        "windows": w / "windows",
        "features": w / "features.csv",
        "selection": w / "selection.json",
        "training": w / "training.json",
        "models": w / "models",
        "report": w / "report.json",
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_summary(paths: dict, stage: str, summary: dict) -> None:
    io.write_json(paths["workdir"] / f"{stage}_summary.json",
                  _jsonable(summary))


# ------------------------------------------------------------------ stages

def stage_simulate(config: dict) -> dict:
    paths = _paths(config)
    paths["workdir"].mkdir(parents=True, exist_ok=True)
    sim = config["simulate"]
    seeds = np.random.SeedSequence(config["seed"]).spawn(5)
    s_profile, s_env, s_route, s_tele, s_veh = seeds

    length = float(sim["route_length_m"])
    profile = generate_profile(length, float(sim["profile_dx_m"]),
                               float(sim["roughness_coeff"]), s_profile)
    period = float(sim["envelope_period_m"])
    env_pos = np.arange(0.0, profile.length + period, period)
    env_rng = np.random.default_rng(s_env)
    env = np.exp(env_rng.uniform(np.log(sim["envelope_min"]),
                                 np.log(sim["envelope_max"]), len(env_pos)))
    profile = modulate_profile(profile, env_pos, env)

    route = generate_route(profile.length, s_route)
    network = RoadNetwork.from_polyline(route)
    network.save(paths["network"])

    vehicle = perturbed_params(GOLDEN_CAR, float(sim["vehicle_perturbation"]),
                               s_veh)
    sim_config = SimConfig(
        vehicle=vehicle,
        speed_positions=np.array([0.0, profile.length]),
        speed_values=np.array([sim["speed_ms"], sim["speed_ms"]]),
        acc_rate=float(sim["acc_rate_hz"]),
        gps_rate=float(sim["gps_rate_hz"]),
        gps_noise_sigma=float(sim["gps_noise_sigma_m"]),
        acc_noise_sigma=float(sim["acc_noise_sigma"]),
        seed=s_tele)
    trace = synthesize_telemetry(profile, route, sim_config)
    io.write_telemetry_csv(paths["telemetry"], trace)

    reference = build_reference_segments(profile, route,
                                         float(sim["segment_length_m"]))
    io.write_reference_csv(paths["reference"], reference)

    summary = {"n_samples": len(trace), "n_fixes": len(trace.gps_idx),
               "n_segments": len(reference),
               "route_length_m": float(route.length),
               "iri_min": float(reference.iri.min()),
               "iri_max": float(reference.iri.max()),
               "iri_mean": float(reference.iri.mean())}
    _write_summary(paths, "simulate", summary)
    return summary


def stage_match(config: dict) -> dict:
    paths = _paths(config)
    m = config["match"]
    t, lats, lons = io.read_gps_fixes(paths["telemetry"])
    network = RoadNetwork.load(paths["network"])
    matched = match_fixes(t, lats, lons, network, sigma=float(m["sigma_m"]),
                          beta=float(m["beta_m"]),
                          max_candidates=int(m["max_candidates"]),
                          radius=float(m["radius_m"]))
    io.write_matched_json(paths["matched"], matched)
    summary = {"n_fixes": len(matched),
               "n_unmatched_fixes": matched.n_unmatched,
               "n_path_edges": len(matched.edge_path()),
               "log_score": float(matched.log_score)}
    _write_summary(paths, "match", summary)
    return summary


def stage_align(config: dict) -> dict:
    paths = _paths(config)
    a = config["align"]
    trace = io.read_telemetry_csv(paths["telemetry"])
    matched = io.read_matched_json(paths["matched"])
    reference = io.read_reference_csv(paths["reference"])
    positions = interpolate_positions(trace, matched)
    pieces, n_dropped_pieces = align_segments(
        reference, positions, search_back=a["search_back_samples"],
        search_ahead=a["search_ahead_samples"])
    windows = sliding_windows(pieces, positions, trace,
                              window=int(a["window_pieces"]))
    io.write_windows(paths["windows"], windows)
    summary = {"n_positions": len(positions),
               "n_dropped_samples": positions.n_dropped,
               "n_pieces": len(pieces),
               "n_dropped_pieces": n_dropped_pieces,
               "n_windows": len(windows)}
    _write_summary(paths, "align", summary)
    return summary


def stage_featurize(config: dict) -> dict:
    paths = _paths(config)
    target_len = int(config["featurize"]["target_len"])
    windows = io.read_windows(paths["windows"])
    if not windows:
        raise ValueError("no windows to featurize")
    dataset = build_feature_matrix(resample_segment(windows, target_len))
    io.write_features_csv(paths["features"], dataset, windows.window_id)
    summary = {"n_rows": len(dataset), "n_features": dataset.X.shape[1],
               "target_len": target_len}
    _write_summary(paths, "featurize", summary)
    return summary


def stage_select(config: dict) -> dict:
    paths = _paths(config)
    sel_cfg = config["select"]
    dataset, _ = io.read_features_csv(paths["features"])
    train, _ = ordered_split(dataset, config["train_frac"])
    n_train = len(train)

    x_kept, kept = drop_constant(train.X)
    scaler = standardize_fit(x_kept)
    x_std = standardize_apply(scaler, x_kept)
    sfs = sfs_forward(x_std, train.y,
                      k_folds=int(sel_cfg["k_folds"]),
                      max_features=int(sel_cfg["max_features"]),
                      n_trees=int(sel_cfg["sfs_trees"]),
                      max_depth=int(sel_cfg["sfs_depth"]),
                      seed=config["seed"],
                      max_rows=sel_cfg.get("sfs_max_rows"))
    chosen = sfs.chosen
    basis = pca_fit(x_std[:, chosen], float(sel_cfg["pca_variance"]))

    selection = {
        "train_frac": config["train_frac"],
        "n_train": n_train,
        "n_total": len(dataset),
        "feature_names": dataset.feature_names,
        "kept_columns": [int(i) for i in kept],
        "standardizer": _jsonable(vars(scaler)),
        "sfs": {"order": [int(i) for i in sfs.order],
                "cv_rmse": [float(v) for v in sfs.cv_rmse],
                "chosen_size": sfs.chosen_size},
        "chosen_columns": [int(i) for i in chosen],
        "pca": {"mean": basis.mean.tolist(),
                "components": basis.components.tolist(),
                "explained_ratios": basis.explained_ratios.tolist()},
    }
    io.write_json(paths["selection"], selection)
    summary = {"n_kept": len(kept), "chosen_size": sfs.chosen_size,
               "pca_dims": basis.components.shape[1], "n_train": n_train}
    _write_summary(paths, "select", summary)
    return summary


def apply_selection(selection: dict, x: np.ndarray) -> np.ndarray:
    """Constant-drop, standardize, subset to the selected features and
    project onto the stored principal components."""
    kept = selection["kept_columns"]
    scaler = Standardizer(np.array(selection["standardizer"]["mean"]),
                          np.array(selection["standardizer"]["std"]))
    x_std = standardize_apply(scaler, np.asarray(x, dtype=float)[:, kept])
    x_sel = x_std[:, selection["chosen_columns"]]
    basis = PcaBasis(np.array(selection["pca"]["mean"]),
                     np.array(selection["pca"]["components"]),
                     np.array(selection["pca"]["explained_ratios"]))
    return pca_transform(basis, x_sel)


def stage_train(config: dict) -> dict:
    paths = _paths(config)
    train_cfg = config["train"]
    dataset, _ = io.read_features_csv(paths["features"])
    selection = io.read_json(paths["selection"])
    n_train = int(selection["n_train"])
    z = apply_selection(selection, dataset.X)
    z_train = z[:n_train]
    targets = {"regression": dataset.y[:n_train].astype(float),
               "classification": dataset.level[:n_train].astype(float)}

    paths["models"].mkdir(parents=True, exist_ok=True)
    training = {"n_train": n_train, "n_total": len(dataset), "tasks": {}}
    adasyn = bool(train_cfg["adasyn"])
    for task, key in (("regression", "regression_families"),
                      ("classification", "classification_families")):
        training["tasks"][task] = {}
        if not train_cfg[key]:
            continue
        grids = (train_cfg.get("grids") or {}).get(task) or {}
        # One preparation per task, read by every family and grid point.
        plan = fold_plan(task, z_train, targets[task],
                         int(train_cfg["k_folds"]), config["seed"], adasyn)
        scaler, x_fit, y_fit = prepare_train_rows(
            task, z_train, targets[task], config["seed"], adasyn)
        for family in train_cfg[key]:
            result = grid_search(family, task, plan, grid=grids.get(family))
            model = make_model(family, task, result.best_params,
                               seed=config["seed"]).fit(x_fit, y_fit)
            bundle = {
                "schema_version": io.BUNDLE_SCHEMA_VERSION,
                "task": task,
                "family": family,
                "hyperparams": _jsonable(result.best_params),
                "feature_names": dataset.feature_names,
                "selection": selection,
                "scaler": _jsonable(vars(scaler)),
                "model_state": _jsonable(model.state_dict()),
            }
            io.save_bundle(paths["models"] / f"{task}_{family}.json", bundle)
            training["tasks"][task][family] = _jsonable(vars(result))
    io.write_json(paths["training"], training)
    # ADASYN leaves a level with a single train window un-oversampled.
    single = np.bincount(dataset.level[:n_train]) == 1
    summary = {"n_train": n_train,
               "n_regression": len(train_cfg["regression_families"]),
               "n_classification": len(train_cfg["classification_families"]),
               "n_adasyn_skipped_levels": int(single.sum()) if adasyn else 0}
    _write_summary(paths, "train", summary)
    return summary


def bundle_model(bundle: dict):
    """Reconstruct the fitted model object stored in a bundle."""
    record = family_record(bundle["family"], bundle["task"])
    return record.cls.from_state(bundle["model_state"])


def bundle_predict(bundle: dict, x_raw: np.ndarray) -> np.ndarray:
    """Raw 68-column feature rows -> predictions via the stored transforms."""
    z = apply_selection(bundle["selection"], x_raw)
    scaler = Standardizer(np.array(bundle["scaler"]["mean"]),
                          np.array(bundle["scaler"]["std"]))
    return bundle_model(bundle).predict(standardize_apply(scaler, z))


def stage_evaluate(config: dict) -> dict:
    paths = _paths(config)
    dataset, window_ids = io.read_features_csv(paths["features"])
    selection = io.read_json(paths["selection"])
    training = io.read_json(paths["training"])
    n_train = int(selection["n_train"])
    test = slice(n_train, len(dataset))
    y_test = dataset.y[test]
    level_test = dataset.level[test]

    report = {
        "n_train": n_train,
        "n_test": int(len(dataset) - n_train),
        "counters": {},
        "cv": training["tasks"],
        "selection": {"sfs": selection["sfs"],
                      "kept_columns": selection["kept_columns"],
                      "chosen_columns": selection["chosen_columns"],
                      "pca_dims": len(selection["pca"]["components"][0]),
                      "pca_explained_ratios":
                          selection["pca"]["explained_ratios"]},
        "leakage_audit": {
            "train_range": [0, n_train],
            "test_range": [n_train, len(dataset)],
            "cv_fold_bounds": {
                task: {fam: entry["fold_bounds"]
                       for fam, entry in fams.items()}
                for task, fams in training["tasks"].items()},
        },
        "actual": {"window_id": [int(i) for i in window_ids[test]],
                   "iri": [float(v) for v in y_test],
                   "level": [int(v) for v in level_test]},
        "test": {"regression": {}, "classification": {}},
    }
    for stage in STAGE_ORDER[:-2]:
        summary_path = paths["workdir"] / f"{stage}_summary.json"
        if summary_path.exists():
            report["counters"][stage] = io.read_json(summary_path)

    for task, fams in training["tasks"].items():
        for family in fams:
            bundle = io.load_bundle(paths["models"] / f"{task}_{family}.json")
            pred = bundle_predict(bundle, dataset.X[test])
            if task == "regression":
                report["test"]["regression"][family] = {
                    "metrics": regression_metrics(y_test, pred),
                    "predictions": [float(v) for v in pred],
                }
            else:
                pred_i = pred.astype(int)
                cm = confusion_matrix(level_test, pred_i)
                wrong = pred_i != level_test
                adjacent = (np.abs(pred_i - level_test) == 1) & wrong
                adj_frac = (float(adjacent.sum() / wrong.sum())
                            if wrong.any() else 1.0)
                report["test"]["classification"][family] = {
                    "metrics_macro": classification_metrics(
                        level_test, pred_i, average="macro"),
                    "metrics_weighted": classification_metrics(
                        level_test, pred_i, average="weighted"),
                    "accuracy": float(np.mean(pred_i == level_test)),
                    "confusion": cm.tolist(),
                    "adjacent_error_fraction": adj_frac,
                    "predictions": [int(v) for v in pred_i],
                }
    io.write_json(paths["report"], _jsonable(report))
    summary = {"n_test": report["n_test"]}
    _write_summary(paths, "evaluate", summary)
    return summary


STAGES = {
    "simulate": stage_simulate,
    "match": stage_match,
    "align": stage_align,
    "featurize": stage_featurize,
    "select": stage_select,
    "train": stage_train,
    "evaluate": stage_evaluate,
}


def run_stage(stage: str, config: dict) -> dict:
    try:
        return STAGES[stage](config)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


def run_pipeline(config: dict) -> dict:
    """Run every stage in order and return the final report."""
    for stage in STAGE_ORDER:
        run_stage(stage, config)
    return io.read_json(_paths(config)["report"])


# ------------------------------------------------------------------ export

def export_report(config: dict) -> list:
    """Write the report's tables as CSV files next to report.json."""
    paths = _paths(config)
    report = io.read_json(paths["report"])
    out = []

    def write(name: str, lines: list) -> None:
        out.append(paths["workdir"] / name)
        out[-1].write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["task,family,metric,value"]
    for family in sorted(report["test"]["regression"]):
        metrics = report["test"]["regression"][family]["metrics"]
        for name in sorted(metrics):
            lines.append(f"regression,{family},{name},{io.fmt(metrics[name])}")
    for family in sorted(report["test"]["classification"]):
        entry = report["test"]["classification"][family]
        rows = [("accuracy", entry["accuracy"])]
        rows += [(f"macro_{k}", v) for k, v in
                 sorted(entry["metrics_macro"].items())]
        rows += [(f"weighted_{k}", v) for k, v in
                 sorted(entry["metrics_weighted"].items())]
        for name, value in rows:
            lines.append(f"classification,{family},{name},{io.fmt(value)}")
    write("report_metrics.csv", lines)

    classif = report["test"]["classification"]
    if classif:
        best = max(sorted(classif),
                   key=lambda f: classif[f]["metrics_macro"]["f1"])
        lines = ["family,actual_level,pred_0,pred_1,pred_2"]
        for actual, row in enumerate(classif[best]["confusion"]):
            cells = ",".join(str(int(v)) for v in row)
            lines.append(f"{best},{actual},{cells}")
        write("report_confusion.csv", lines)

    lines = ["family,window_id,actual_iri,predicted_iri"]
    for family in sorted(report["test"]["regression"]):
        preds = report["test"]["regression"][family]["predictions"]
        for wid, actual, pred in zip(report["actual"]["window_id"],
                                     report["actual"]["iri"], preds):
            lines.append(f"{family},{wid},{io.fmt(actual)},{io.fmt(pred)}")
    write("report_predictions.csv", lines)

    sfs = report["selection"]["sfs"]
    lines = ["step,feature_column,cv_rmse"]
    for step, (col, rmse) in enumerate(zip(sfs["order"], sfs["cv_rmse"]), 1):
        lines.append(f"{step},{col},{io.fmt(rmse)}")
    write("report_sfs.csv", lines)
    return out
