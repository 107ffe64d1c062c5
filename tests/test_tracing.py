"""What the benchmark's tracer (bench/tracing.py) reads of the models: a
renamed attribute fails here rather than in a traced benchmark run."""
import importlib.util
from pathlib import Path

import numpy as np

from roadroughness.models import MlpModel, RandomForestModel

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_fits_count_the_models_trees_nodes_and_epochs():
    rng = np.random.default_rng(46)
    x = rng.normal(size=(60, 4))
    y = x[:, 0] + 0.1 * rng.normal(size=60)
    fit = RandomForestModel.fit
    tracer = tracing.Tracer(True)
    tracing.install(tracer)
    try:
        forest = RandomForestModel(n_trees=4, max_depth=3, seed=1).fit(x, y)
        mlp = MlpModel(layers=(4,), max_epochs=20, seed=2).fit(x, y)
    finally:
        tracer.uninstall()
    assert RandomForestModel.fit is fit
    trees = forest.state_dict()["trees"]
    assert tracer.counts["models.trees"] == len(trees) == 4
    assert tracer.counts["models.tree_nodes"] == sum(len(t["feature"])
                                                     for t in trees)
    assert tracer.counts["models.mlp_epochs"] == len(mlp.loss_history) > 0
    assert tracer.totals["models.forest_fit_s"] > 0.0
    assert tracer.totals["models.mlp_fit_s"] > 0.0
