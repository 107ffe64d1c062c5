"""The benchmark's workloads: inputs made from a seed, one round of work
through the program's public API, and the checks on the round's outputs.

survey  simulate one drive, then match -> align -> featurize, then every
        model bundle predicts IRI or level for every window. The bundles are
        trained during set-up on a separate, shorter drive.
fit     select + train on a features table built during set-up, with the
        acceptance grids and a reduced SFS, plus ADASYN and one logistic
        fit on a stored fold on which the solver stalls
        (``Fit.stalled_fold``).
city    load a street-grid network and map-match several drives over it.

Each round repeats exactly the same operations on the same inputs, so the
number of operations attempted and failed per round never depends on the
seed or on the run length.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import require
from tracing import Tracer

HERE = Path(__file__).resolve().parent
LOGISTIC_FOLD = HERE / "data" / "logistic_fold.json"

GPS_SIGMA_M = 3.0
CITY_SPEED_MS = 13.9
CITY_ORIGIN = (55.65, 12.55)
EARTH_RADIUS_M = checks.EARTH_RADIUS_M


@dataclass(frozen=True)
class Sizes:
    survey_km: float = 2.0        # drive processed per survey round
    train_km: float = 4.0         # drive the survey bundles are trained on
    fit_km: float = 6.0           # drive behind the fit table
    eval_km: float = 3.0          # drive the fit classifiers are checked on
    sfs_steps: int = 1            # reduced SFS of the fit workload:
    sfs_rows: int = 200           # steps, rows scored, trees per forest
    sfs_trees: int = 5
    grid_nodes: int = 60          # junctions per side of the city grid
    grid_spacing_m: float = 100.0
    drives: int = 4               # city drives per round
    fixes: int = 50               # 1 Hz GPS fixes per city drive


FULL = Sizes()
# For the benchmark's own tests: a short survey drive, few SFS rows, a small
# city. The training drives keep their size: the model checks need it.
TINY = Sizes(survey_km=1.0, sfs_rows=100, grid_nodes=12, drives=2, fixes=40)

# Acceptance grids (tests/test_acceptance.py FULL_CONFIG), with forests of
# 30 trees instead of 100 (at 100 the round took 14.5 s, too long for a
# steady median over the rounds of one run), with the MLP regressor's
# penalty raised from 0.001 to 0.1 (at 0.001 it lost to the baseline on the
# held-out rows of some 6 km tables: seed 1003, RMSE 2.25 against 1.75; at
# 0.1, 0.37), and without two operations that fail on some seeds and not on
# others, which would make the share of failed operations depend on the
# seed:
# - logistic: its solver stalls on some folds (see ``Fit.stalled_fold``);
# - ADASYN: it raises ValueError when a level has exactly one window in a
#   fold or in the train split.
# Both run every round on a stored fold instead.
FIT_GRIDS = {
    "regression": {
        "ridge": {"lam": [1.0, 60.0]},
        "lasso": {"lam": [0.01]},
        "elastic_net": {"lam": [0.01], "l1_ratio": [0.5]},
        "knn": {"k": [5, 22]},
        "random_forest": {"n_trees": [30], "max_depth": [10]},
        "svm": {"gamma": [0.1], "c": [10.0]},
        "mlp": {"layers": [[16, 16]], "lr0": [0.01], "l2": [0.1]},
    },
    "classification": {
        "knn": {"k": [5, 22]},
        "random_forest": {"n_trees": [30], "max_depth": [10]},
        "svm": {"gamma": [0.1], "c": [10.0]},
        "mlp": {"layers": [[16, 16]], "lr0": [0.01], "l2": [0.001]},
    },
}
REGRESSION_FAMILIES = ["baseline", "ridge", "lasso", "elastic_net", "knn",
                       "random_forest", "svm", "mlp"]
FIT_CLASSIFIERS = ["baseline", "knn", "gaussian_nb", "random_forest", "svm",
                   "mlp"]

# Survey bundles: one grid point per family, small forests, and the same
# MLP penalty (at 0.001 and on a 3 km drive the MLP lost to the baseline on
# the survey drive, seed 1); the survey measures prediction, not training.
# Logistic and ADASYN are left out for the reasons given above: set-up
# must not fail on any seed.
SURVEY_GRIDS = {
    "regression": {
        "ridge": {"lam": [60.0]},
        "lasso": {"lam": [0.01]},
        "elastic_net": {"lam": [0.01], "l1_ratio": [0.5]},
        "knn": {"k": [5]},
        "random_forest": {"n_trees": [10], "max_depth": [8]},
        "svm": {"gamma": [0.1], "c": [10.0]},
        "mlp": {"layers": [[16, 16]], "lr0": [0.01], "l2": [0.1]},
    },
    "classification": {
        "knn": {"k": [5]},
        "random_forest": {"n_trees": [10], "max_depth": [8]},
        "svm": {"gamma": [0.1], "c": [10.0]},
        "mlp": {"layers": [[16, 16]], "lr0": [0.01], "l2": [0.1]},
    },
}
SURVEY_CLASSIFIERS = FIT_CLASSIFIERS


def sub_seed(seed: int, stream: int) -> int:
    """Independent integer seed number ``stream`` derived from ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def pipeline_config(workdir: Path, seed: int, km: float, **sections) -> dict:
    from roadroughness.cli.config import load_config
    config = load_config(seed=seed, workdir=workdir)
    config["simulate"]["route_length_m"] = km * 1000.0
    for section, values in sections.items():
        config[section].update(values)
    return config


def no_mark() -> None:
    pass


def run_stages(config: dict, stages, tracer, mark=no_mark) -> None:
    """Run pipeline stages in order, calling ``mark`` between them."""
    from roadroughness.cli.pipeline import run_stage
    for i, stage in enumerate(stages):
        if i:
            mark()
        with tracer.span(f"stage.{stage}_s"):
            run_stage(stage, config)


def read_table(path: Path):
    """features.csv without the program's reader: (names, ids, X, iri,
    level)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return (header[1:-2], data[:, 0].astype(int), data[:, 1:-2], data[:, -2],
            data[:, -1].astype(int))


def bundle_predictions(models_dir: Path, x) -> dict:
    """{bundle file stem: predictions on x} for every stored bundle."""
    from roadroughness.cli.pipeline import bundle_predict
    out = {}
    for path in sorted(models_dir.glob("*.json")):
        bundle = json.loads(path.read_text(encoding="utf-8"))
        out[path.stem] = bundle_predict(bundle, x)
    return out


def split_tasks(predictions: dict):
    reg = {k[len("regression_"):]: v for k, v in predictions.items()
           if k.startswith("regression_")}
    cls = {k[len("classification_"):]: v for k, v in predictions.items()
           if k.startswith("classification_")}
    return reg, cls


def dir_mb(path: Path, pattern: str) -> float:
    return sum(p.stat().st_size for p in Path(path).glob(pattern)) / 1e6


class Workload:
    """``setup`` builds the inputs into the work directory; ``load`` reads
    them in the timed process; ``round`` runs one round and returns its
    outputs with the operations attempted and failed; ``check`` raises
    CheckError on a wrong output and returns quality figures. ``setup`` and
    ``round`` call ``mark`` between the long parts of their work
    (hostspeed.Stopwatch)."""

    km = 0.0   # road handled per round

    def setup_checks(self) -> None:
        """Build what only the checks read, once, after the timed
        set-ups."""

    def load(self) -> None:
        pass


# =================================================================== survey

class Survey(Workload):
    def __init__(self, workdir: Path, seed: int, sizes: Sizes = FULL):
        self.train = pipeline_config(
            workdir / "train", sub_seed(seed, 1), sizes.train_km,
            select={"k_folds": 3, "max_features": 2, "sfs_trees": 3,
                    "sfs_depth": 3},
            train={"k_folds": 2, "adasyn": False,
                   "classification_families": SURVEY_CLASSIFIERS,
                   "grids": SURVEY_GRIDS})
        self.config = pipeline_config(workdir / "survey", sub_seed(seed, 2),
                                      sizes.survey_km)
        self.workdir = Path(self.config["workdir"])
        self.models = Path(self.train["workdir"]) / "models"
        self.km = sizes.survey_km

    def setup(self, tracer, mark=no_mark) -> None:
        run_stages(self.train, ("simulate", "match", "align", "featurize",
                                "select", "train"), tracer, mark)

    def round(self, tracer, mark=no_mark) -> dict:
        from roadroughness.cli import io
        from roadroughness.cli.pipeline import bundle_predict
        run_stages(self.config, ("simulate", "match", "align", "featurize"),
                   tracer)
        predictions = {}
        with tracer.span("stage.predict_s"):
            dataset, _ = io.read_features_csv(self.workdir / "features.csv")
            for path in sorted(self.models.glob("*.json")):
                predictions[path.stem] = bundle_predict(io.load_bundle(path),
                                                        dataset.X)
                tracer.count("models.predict_rows", len(dataset))
        tracer.count("io.telemetry_mb",
                     dir_mb(self.workdir, "telemetry.csv"))
        tracer.count("io.bundle_mb", dir_mb(self.models, "*.json"))
        return {"predictions": predictions, "attempted": 4 + len(predictions),
                "failed": 0}

    def check(self, out: dict) -> dict:
        w = self.workdir
        sim = self.config["simulate"]
        # Snapped fixes against the true position speed * t along the route.
        nodes = [line.split(",") for line in
                 (w / "network.txt").read_text(encoding="utf-8").splitlines()
                 if line.startswith("node,")]
        nodes.sort(key=lambda cols: int(cols[1]))
        lats = np.array([float(c[2]) for c in nodes])
        lons = np.array([float(c[3]) for c in nodes])
        cum = np.concatenate([[0.0], np.cumsum(checks.haversine_m(
            lats[:-1], lons[:-1], lats[1:], lons[1:]))])
        matched = json.loads((w / "matched.json").read_text(encoding="utf-8"))
        true_lat, true_lon = checks.point_at(
            cum, lats, lons, sim["speed_ms"] * np.array(matched["t"]))
        err = checks.check_snaps(matched["lat"], matched["lon"], true_lat,
                                 true_lon, sim["gps_noise_sigma_m"])
        # Window labels against the reference pieces.
        ref = np.loadtxt(w / "reference.csv", delimiter=",", skiprows=1,
                         ndmin=2)
        win = {k: np.load(w / "windows" / f"{k}.npy") for k in
               ("t", "acc_z", "speed", "offsets", "window_id", "iri")}
        checks.check_window_iri(win["window_id"], win["iri"], ref[:, -1],
                                self.config["align"]["window_pieces"])
        # Feature subset recomputed from the window arrays.
        names, ids, x, iri, level = read_table(w / "features.csv")
        require(np.array_equal(ids, win["window_id"])
                and np.array_equal(iri, win["iri"]),
                "features.csv rows do not follow the stored windows")
        checks.check_features(names, x, win["t"],
                              {"acc_z": win["acc_z"], "speed": win["speed"]},
                              win["offsets"],
                              self.config["featurize"]["target_len"])
        # Every bundle predicted; regressors beat the baseline.
        reg, cls = split_tasks(out["predictions"])
        require(len(reg) == len(REGRESSION_FAMILIES)
                and len(cls) == len(SURVEY_CLASSIFIERS),
                f"expected {len(REGRESSION_FAMILIES)} regression and "
                f"{len(SURVEY_CLASSIFIERS)} classification bundles")
        checks.check_regressors(iri, reg)
        checks.check_levels(len(iri), cls)
        return {"geoalign.snap_err_p95_m": float(np.percentile(err, 95))}


# ====================================================================== fit

class Fit(Workload):
    def __init__(self, workdir: Path, seed: int, sizes: Sizes = FULL):
        self.config = pipeline_config(
            workdir / "fit", sub_seed(seed, 3), sizes.fit_km,
            select={"k_folds": 5, "max_features": sizes.sfs_steps,
                    "sfs_trees": sizes.sfs_trees, "sfs_depth": 5,
                    "sfs_max_rows": sizes.sfs_rows},
            train={"k_folds": 5, "adasyn": False,
                   "regression_families": REGRESSION_FAMILIES,
                   "classification_families": FIT_CLASSIFIERS,
                   "grids": FIT_GRIDS})
        self.eval = pipeline_config(workdir / "eval", sub_seed(seed, 5),
                                    sizes.eval_km)
        self.workdir = Path(self.config["workdir"])
        self.km = sizes.fit_km
        self.fold = json.loads(LOGISTIC_FOLD.read_text(encoding="utf-8"))

    def setup(self, tracer, mark=no_mark) -> None:
        run_stages(self.config, ("simulate", "match", "align", "featurize"),
                   tracer, mark)

    def setup_checks(self) -> None:
        run_stages(self.eval, ("simulate", "match", "align", "featurize"),
                   Tracer(False))

    def stalled_fold(self) -> int:
        """ADASYN and a logistic fit on the stored fold, as grid search
        runs them. The solver stops at its iteration cap on this fold every
        time: one failed operation per round until the solver is fixed.
        Returns the number of failed operations."""
        from roadroughness.models import ConvergenceError, LogisticModel
        from roadroughness.models import resample
        x, y = resample.adasyn_resample(np.array(self.fold["x"]),
                                        np.array(self.fold["y"]),
                                        seed=self.fold["seed"])
        try:
            LogisticModel(lam=self.fold["lam"]).fit(x, y)
        except ConvergenceError:
            return 1
        return 0

    def round(self, tracer, mark=no_mark) -> dict:
        from roadroughness.cli.pipeline import run_stage
        run_stages(self.config, ("select",), tracer)
        mark()
        with tracer.span("stage.train_s"):
            run_stage("train", self.config)
        mark()
        with tracer.span("stage.train_s"):
            stalled = self.stalled_fold()
        training = json.loads((self.workdir / "training.json")
                              .read_text(encoding="utf-8"))
        fits = failed = finals = 0
        for families in training["tasks"].values():
            for entry in families.values():
                finals += 1
                for row in entry["cv_table"]:
                    fits += len(row["fold_scores"])
                    failed += len(row["errors"])
        tracer.count("io.bundle_mb",
                     dir_mb(self.workdir / "models", "*.json"))
        return {"training": training, "attempted": 1 + fits + finals + 2,
                "failed": failed + stalled}

    def check(self, out: dict) -> dict:
        w = self.workdir
        selection = json.loads((w / "selection.json")
                               .read_text(encoding="utf-8"))
        n_train = int(selection["n_train"])
        for families in out["training"]["tasks"].values():
            for entry in families.values():
                checks.check_folds(entry["fold_bounds"], n_train)
        checks.check_sfs(selection["sfs"]["order"],
                         selection["chosen_columns"],
                         len(selection["kept_columns"]))
        checks.check_pca(selection["pca"]["components"])
        _, _, x, iri, level = read_table(w / "features.csv")
        require(len(iri) > n_train, "no held-out rows")
        reg, _ = split_tasks(bundle_predictions(w / "models", x[n_train:]))
        checks.check_regressors(iri[n_train:], reg)
        # The classifiers are compared on a separate drive: the table's
        # held-out rows are the last fifth of the road, often one roughness
        # level with a few windows of the others (seed 204: 116, 1 and 2),
        # where the majority baseline's macro F1 is close to the best
        # possible and every classifier fell just short of it.
        _, _, x_eval, _, level_eval = read_table(
            Path(self.eval["workdir"]) / "features.csv")
        _, cls = split_tasks(bundle_predictions(w / "models", x_eval))
        checks.check_best_classifier(level_eval, cls, level[:n_train])
        return {}


# ===================================================================== city

def grid_network(nodes: int, spacing: float):
    """Junction coordinates (x, y in metres, id = row * nodes + col) and
    the street list of a square grid: horizontal streets, then vertical."""
    ids = np.arange(nodes * nodes)
    x = (ids % nodes) * spacing
    y = (ids // nodes) * spacing
    horizontal = [(r * nodes + c, r * nodes + c + 1)
                  for r in range(nodes) for c in range(nodes - 1)]
    vertical = [(r * nodes + c, (r + 1) * nodes + c)
                for r in range(nodes - 1) for c in range(nodes)]
    return x, y, np.array(horizontal + vertical)


def to_latlon(x, y):
    lat0, lon0 = CITY_ORIGIN
    lat = lat0 + np.degrees(np.asarray(y) / EARTH_RADIUS_M)
    lon = lon0 + np.degrees(np.asarray(x) / (EARTH_RADIUS_M
                                             * np.cos(np.radians(lat0))))
    return lat, lon


def random_drive(rng, nodes: int, spacing: float, n_fixes: int):
    """True x/y positions at 1 Hz of a car that starts at a junction in the
    central half of the grid and goes straight, left or right at every
    junction, never leaving the grid."""
    headings = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    lo, hi = nodes // 4, nodes - nodes // 4
    col, row = (int(v) for v in rng.integers(lo, hi, 2))
    h = int(rng.integers(4))
    path = [(col, row)]
    need = CITY_SPEED_MS * (n_fixes - 1) / spacing + 1
    while len(path) < need + 1:
        options = []
        for turn, weight in ((0, 0.5), (1, 0.25), (3, 0.25)):
            dc, dr = headings[(h + turn) % 4]
            if 0 <= col + dc < nodes and 0 <= row + dr < nodes:
                options.append(((h + turn) % 4, weight))
        if not options:
            options = [((h + 2) % 4, 1.0)]
        p = np.array([wgt for _, wgt in options])
        h = options[int(rng.choice(len(options), p=p / p.sum()))][0]
        col, row = col + headings[h][0], row + headings[h][1]
        path.append((col, row))
    px = np.array([c for c, _ in path]) * spacing
    py = np.array([r for _, r in path]) * spacing
    s = np.arange(n_fixes) * CITY_SPEED_MS
    cum = np.arange(len(path)) * spacing
    return np.interp(s, cum, px), np.interp(s, cum, py)


class City(Workload):
    def __init__(self, workdir: Path, seed: int, sizes: Sizes = FULL):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir / "city"
        self.km = sizes.drives * (sizes.fixes - 1) * CITY_SPEED_MS / 1000.0
        from roadroughness.cli.config import DEFAULT_CONFIG
        self.match = DEFAULT_CONFIG["match"]

    def setup(self, tracer, mark=no_mark) -> None:
        s = self.sizes
        self.workdir.mkdir(parents=True, exist_ok=True)
        x, y, edges = grid_network(s.grid_nodes, s.grid_spacing_m)
        lat, lon = to_latlon(x, y)
        length = checks.haversine_m(lat[edges[:, 0]], lon[edges[:, 0]],
                                    lat[edges[:, 1]], lon[edges[:, 1]])
        lines = [f"node,{i},{float(lat[i])!r},{float(lon[i])!r}"
                 for i in range(len(lat))]
        lines += [f"edge,{a},{b},{float(ln)!r}"
                  for (a, b), ln in zip(edges.tolist(), length)]
        (self.workdir / "network.txt").write_text("\n".join(lines) + "\n",
                                                  encoding="utf-8")
        rng = np.random.default_rng(sub_seed(self.seed, 4))
        drives = []
        sigma_axis = GPS_SIGMA_M / np.sqrt(2.0)
        for _ in range(s.drives):
            tx, ty = random_drive(rng, s.grid_nodes, s.grid_spacing_m,
                                  s.fixes)
            fx = tx + rng.normal(0.0, sigma_axis, len(tx))
            fy = ty + rng.normal(0.0, sigma_axis, len(ty))
            t_lat, t_lon = to_latlon(tx, ty)
            f_lat, f_lon = to_latlon(fx, fy)
            drives.append({"t": np.arange(len(tx), dtype=float).tolist(),
                           "lat": f_lat.tolist(), "lon": f_lon.tolist(),
                           "true_lat": t_lat.tolist(),
                           "true_lon": t_lon.tolist()})
        (self.workdir / "drives.json").write_text(json.dumps(drives),
                                                  encoding="utf-8")

    def load(self) -> None:
        self.drives = json.loads((self.workdir / "drives.json")
                                 .read_text(encoding="utf-8"))
        edge_lines = [line.split(",") for line in
                      (self.workdir / "network.txt").read_text(
                          encoding="utf-8").splitlines()
                      if line.startswith("edge,")]
        self.edge_nodes = np.array([(int(c[1]), int(c[2]))
                                    for c in edge_lines])

    def round(self, tracer, mark=no_mark) -> dict:
        from roadroughness.geoalign import RoadNetwork, match_fixes
        m = self.match
        with tracer.span("stage.match_s"):
            network = RoadNetwork.load(self.workdir / "network.txt")
        matched = []
        for i, d in enumerate(self.drives):
            if i:
                mark()
            with tracer.span("stage.match_s"):
                matched.append(match_fixes(
                    d["t"], d["lat"], d["lon"], network, sigma=m["sigma_m"],
                    beta=m["beta_m"], max_candidates=m["max_candidates"],
                    radius=m["radius_m"]))
        return {"matched": matched, "attempted": len(self.drives),
                "failed": 0}

    def check(self, out: dict) -> dict:
        errors = []
        for drive, m in zip(self.drives, out["matched"]):
            checks.check_walk(m.edge, self.edge_nodes)
            errors.append(checks.check_snaps(m.lat, m.lon, drive["true_lat"],
                                             drive["true_lon"], GPS_SIGMA_M))
        return {"geoalign.snap_err_p95_m":
                float(np.percentile(np.concatenate(errors), 95))}


WORKLOADS = {"survey": Survey, "fit": Fit, "city": City}
