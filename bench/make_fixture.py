"""Rebuild data/logistic_fold.json, the stored input of the fit workload's
failing operation.

The fold is fold 0 (the first fifth of the training rows) of the 8 km,
seed-42 features table after a three-step SFS (5 folds, 15 trees of depth
5, as in the acceptance test), exactly as grid search hands it to ADASYN:
projected and standardized on the fold. After ADASYN, plain gradient descent stops at
its iteration cap on it without reaching tolerance.

    python3 bench/make_fixture.py      # from the root of the checkout
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from workloads import LOGISTIC_FOLD, pipeline_config  # noqa: E402

SEED = 42
KM = 8.0
LAM = 0.01


def main() -> int:
    from roadroughness.cli import io
    from roadroughness.cli.pipeline import apply_selection, run_stage
    from roadroughness.models import ConvergenceError, LogisticModel, search

    work = HERE.parent / ".bench_work" / "fixture"
    config = pipeline_config(work, SEED, KM,
                             select={"k_folds": 5, "max_features": 3,
                                     "sfs_trees": 15, "sfs_depth": 5,
                                     "sfs_max_rows": 1500})
    try:
        for stage in ("simulate", "match", "align", "featurize", "select"):
            run_stage(stage, config)
        dataset, _ = io.read_features_csv(work / "features.csv")
        selection = io.read_json(work / "selection.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n_train = int(selection["n_train"])
    z = apply_selection(selection, dataset.X)[:n_train]
    levels = dataset.level[:n_train].astype(float)

    seen = []
    original = search.adasyn_resample

    def capture(x, y, **kwargs):
        seen.append((np.array(x, dtype=float), np.array(y, dtype=int)))
        return original(x, y, **kwargs)

    search.adasyn_resample = capture
    try:
        result = search.grid_search("logistic", "classification", z, levels,
                                    grid={"lam": [LAM]}, k_folds=5,
                                    seed=SEED, standardize=True, adasyn=True)
    finally:
        search.adasyn_resample = original
    errors = result.cv_table[0]["errors"]
    if not errors or not errors[0].startswith("fold 0: ConvergenceError"):
        print(f"fold 0 did not stall: {errors}", file=sys.stderr)
        return 1
    x, y = seen[0]
    try:
        LogisticModel(lam=LAM).fit(*original(x, y, seed=SEED))
        print("the stored fold converged on refit", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        message = str(exc)
    LOGISTIC_FOLD.parent.mkdir(exist_ok=True)
    LOGISTIC_FOLD.write_text(json.dumps({
        "source": f"fold 0 of the {KM:g} km seed-{SEED} table, "
                  f"standardized on the fold",
        "failure": message, "lam": LAM, "seed": SEED,
        "x": x.tolist(), "y": y.tolist()}) + "\n",
        encoding="utf-8")
    print(f"wrote {LOGISTIC_FOLD} ({len(y)} rows, {x.shape[1]} columns): "
          f"{message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
