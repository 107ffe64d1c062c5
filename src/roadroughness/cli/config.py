"""Pipeline configuration: JSON file merged over defaults."""
from __future__ import annotations

import json
import math
from pathlib import Path

from ..core import is_integer
from ..models.search import (TASKS, family_record, grid_points,
                              make_model)
from ..models.tree import MAX_DEPTH

DEFAULT_CONFIG = {
    "workdir": "run",
    "seed": 7,
    "train_frac": 0.8,
    "simulate": {
        "route_length_m": 42000.0,
        "profile_dx_m": 0.05,
        "roughness_coeff": 16e-6,
        "envelope_period_m": 400.0,
        "envelope_min": 0.25,
        "envelope_max": 1.8,
        "speed_ms": 13.9,
        "acc_rate_hz": 50.0,
        "gps_rate_hz": 1.0,
        "gps_noise_sigma_m": 3.0,
        "acc_noise_sigma": 0.03,
        "segment_length_m": 10.0,
        "vehicle_perturbation": 0.1,
    },
    "match": {
        "sigma_m": 4.07,
        "beta_m": 20.0,
        "max_candidates": 8,
        "radius_m": 50.0,
    },
    "align": {
        "window_pieces": 10,
        # Samples searched before and after the previous piece boundary.
        "search_back_samples": 100,
        "search_ahead_samples": 2000,
    },
    "featurize": {
        "target_len": 250,
    },
    "select": {
        "k_folds": 5,
        "max_features": 10,
        "sfs_trees": 20,
        "sfs_depth": 6,
        "sfs_max_rows": 1500,
        "pca_variance": 0.99,
    },
    "train": {
        "k_folds": 5,
        "adasyn": True,
        "regression_families": ["baseline", "ridge", "lasso", "elastic_net",
                                "knn", "random_forest", "svm", "mlp"],
        "classification_families": ["baseline", "logistic", "knn",
                                    "gaussian_nb", "random_forest", "svm",
                                    "mlp"],
        "grids": {},
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path=None, seed=None, workdir=None) -> dict:
    """Merge a JSON config file (if any) over the defaults, then apply
    command-line overrides."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        file_path = Path(path)
        if not file_path.exists():
            raise FileNotFoundError(f"config file not found: {file_path}")
        override = json.loads(file_path.read_text("utf-8"))
        if not isinstance(override, dict):
            raise ValueError(f"config file {file_path} must hold a JSON "
                             f"object, got {override!r}")
        config = _merge(config, override)
    if seed is not None:
        config["seed"] = seed
    if workdir is not None:
        config["workdir"] = str(workdir)
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    for section, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict) and not isinstance(config[section], dict):
            raise ValueError(f"{section} must be an object, got "
                             f"{config[section]!r}")
    v = config["workdir"]
    if not (isinstance(v, str) and v):
        raise ValueError(f"workdir must be a non-empty string, got {v!r}")
    v = config.get("seed")
    if not is_integer(v):
        raise ValueError(f"seed must be an integer, got {v!r}")
    v = config["train_frac"]
    if not (_is_number(v) and 0.0 < v < 1.0):
        raise ValueError(f"train_frac must be a number in (0, 1), got {v!r}")
    sim = config["simulate"]
    for key in ("route_length_m", "profile_dx_m", "speed_ms", "acc_rate_hz",
                "gps_rate_hz", "segment_length_m", "envelope_period_m",
                "envelope_min", "envelope_max"):
        v = sim[key]
        if not (_is_number(v) and math.isfinite(v) and v > 0):
            raise ValueError(f"simulate.{key} must be a positive number, "
                             f"got {v!r}")
    if sim["envelope_max"] < sim["envelope_min"]:
        raise ValueError("envelope bounds must satisfy 0 < min <= max")
    for key in ("roughness_coeff", "gps_noise_sigma_m", "acc_noise_sigma"):
        v = sim[key]
        if not (_is_number(v) and math.isfinite(v) and v >= 0):
            raise ValueError(f"simulate.{key} must be a finite number of at "
                             f"least 0, got {v!r}")
    v = sim["vehicle_perturbation"]
    if not (_is_number(v) and 0 <= v < 1):
        raise ValueError(f"simulate.vehicle_perturbation must be a number in "
                         f"[0, 1), got {v!r}")
    match = config["match"]
    for key in ("radius_m", "sigma_m", "beta_m"):
        v = match[key]
        if not (_is_number(v) and math.isfinite(v) and v > 0):
            raise ValueError(f"match.{key} must be a finite positive number, "
                             f"got {v!r}")
    align = config["align"]
    for old, new in (("search_back_m", "search_back_samples"),
                     ("search_ahead_m", "search_ahead_samples")):
        if old in align:
            raise ValueError(f"align.{old} is a sample count, not metres: "
                             f"it is now called align.{new}")
    for key in ("search_back_samples", "search_ahead_samples"):
        if not (is_integer(align[key]) and align[key] >= 1):
            raise ValueError(f"align.{key} must be a positive integer")
    for section, key, least in (("match", "max_candidates", 1),
                                ("align", "window_pieces", 1),
                                ("featurize", "target_len", 3),
                                ("select", "k_folds", 2),
                                ("select", "max_features", 1),
                                ("select", "sfs_trees", 1),
                                ("train", "k_folds", 2)):
        v = config[section][key]
        if not (is_integer(v) and v >= least):
            raise ValueError(f"{section}.{key} must be an integer of at "
                             f"least {least}, got {v!r}")
    _validate_select(config["select"])
    if not isinstance(config["train"]["adasyn"], bool):
        raise ValueError(f"train.adasyn must be true or false, got "
                         f"{config['train']['adasyn']!r}")
    for task in TASKS:
        families = config["train"][f"{task}_families"]
        if not (isinstance(families, list)
                and all(isinstance(f, str) for f in families)):
            raise ValueError(f"train.{task}_families must be a list of family "
                             f"names, got {families!r}")
        for family in families:
            try:
                family_record(family, task)
            except ValueError as exc:
                raise ValueError(f"train.{task}_families: {exc}") from None
    _validate_grids(config["train"]["grids"])
    _check_known_keys(config, DEFAULT_CONFIG)


def _validate_grids(grids) -> None:
    """Name a ``train.grids`` task or family key that ``stage_train`` would
    never look up, which would leave that family on its default grid, and a
    family grid that is not an object of non-empty lists or holds a point
    that the family's constructor refuses."""
    if grids is None:
        return
    if not isinstance(grids, dict):
        raise ValueError(f"train.grids must be an object, got {grids!r}")
    for task, families in grids.items():
        if task not in TASKS:
            raise ValueError(f"train.grids: unknown task {task!r}, "
                             f"expected one of {', '.join(TASKS)}")
        if families is None:
            continue
        if not isinstance(families, dict):
            raise ValueError(f"train.grids.{task} must be an object, got "
                             f"{families!r}")
        for family, grid in families.items():
            try:
                family_record(family, task)
            except ValueError as exc:
                raise ValueError(f"train.grids.{task}: {exc}") from None
            if grid is not None:
                _validate_grid(f"train.grids.{task}.{family}", family, task,
                               grid)


def _validate_grid(name: str, family: str, task: str, grid) -> None:
    """Name the first bad value of one family's grid, at config key
    ``name``."""
    if not isinstance(grid, dict):
        raise ValueError(f"{name} must be an object, got {grid!r}")
    for key, values in grid.items():
        if not (isinstance(values, list) and values):
            raise ValueError(f"{name}.{key} must be a non-empty list, got "
                             f"{values!r}")
    for point in grid_points(grid):
        try:
            make_model(family, task, point)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None


def _check_known_keys(config: dict, defaults: dict, prefix: str = "") -> None:
    """Name the first key of ``config`` that ``defaults`` does not hold, at
    any depth outside ``train.grids``."""
    for key, value in config.items():
        name = prefix + key
        if key not in defaults:
            raise ValueError(f"unknown config key: {name}")
        if isinstance(value, dict) and name != "train.grids":
            _check_known_keys(value, defaults[key], name + ".")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_select(select: dict) -> None:
    depth = select["sfs_depth"]
    if not (is_integer(depth) and 1 <= depth <= MAX_DEPTH):
        raise ValueError(f"select.sfs_depth must be an integer in "
                         f"1..{MAX_DEPTH}, got {depth!r}")
    rows = select.get("sfs_max_rows")
    if rows is not None and not (is_integer(rows)
                                 and rows >= select["k_folds"]):
        raise ValueError(f"select.sfs_max_rows must be null or an integer of "
                         f"at least select.k_folds ({select['k_folds']}), "
                         f"got {rows!r}")
    v = select["pca_variance"]
    if not (_is_number(v) and 0.0 < v <= 1.0):
        raise ValueError(f"select.pca_variance must be a number in (0, 1], "
                         f"got {v!r}")
