"""Acceptance gate: one test per exit criterion, each ending with a single
printed pass/fail line. The end-to-end criteria share one seeded full-scale
pipeline run."""
import itertools
import json
import time

import numpy as np
import pytest

from roadroughness.cli import io
from roadroughness.cli.config import load_config
from roadroughness.cli.pipeline import bundle_predict, run_pipeline
from roadroughness.core import ordered_kfold
from roadroughness.features import standardize_apply, standardize_fit
from roadroughness.geoalign import (RoadNetwork, build_lattice, match_fixes,
                                    viterbi_path)
from roadroughness.models import LinearModel, adasyn_resample, rbf_kernel
from roadroughness.models import search as model_search
from roadroughness.models.logistic import loss_and_grad as logistic_loss
from roadroughness.models.mlp import init_params
from roadroughness.models.mlp import loss_and_grads as mlp_loss
from roadroughness.models.svm import _solve_svr
from roadroughness.models.tree import DecisionTree
from roadroughness.selection import _cv_rmse, pca_fit, sfs_forward
from roadroughness.simkit import (IRI_SPEED_MS, compute_iri, generate_profile)

from test_geoalign import PROJ, latlon
from test_models import (_slsqp_dual, _stump_oracle_sse, _tree_sse,
                         finite_difference)
from test_simkit import rk4_iri_oracle

FULL_CONFIG = {
    "seed": 42,
    "simulate": {"route_length_m": 42000.0},
    "select": {"k_folds": 5, "max_features": 10, "sfs_trees": 15,
               "sfs_depth": 5, "sfs_max_rows": 1500},
    "train": {
        "k_folds": 5,
        "adasyn": True,
        "regression_families": ["baseline", "ridge", "lasso", "elastic_net",
                                "knn", "random_forest", "svm", "mlp"],
        "classification_families": ["baseline", "logistic", "knn",
                                    "gaussian_nb", "random_forest", "svm",
                                    "mlp"],
        "grids": {
            "regression": {
                "ridge": {"lam": [1.0, 60.0]},
                "lasso": {"lam": [0.01]},
                "elastic_net": {"lam": [0.01], "l1_ratio": [0.5]},
                "knn": {"k": [5, 22]},
                "random_forest": {"n_trees": [100], "max_depth": [10]},
                "svm": {"gamma": [0.1], "c": [10.0]},
                "mlp": {"layers": [[16, 16]], "lr0": [0.01], "l2": [0.001]},
            },
            "classification": {
                "logistic": {"lam": [0.01]},
                "knn": {"k": [5, 22]},
                "random_forest": {"n_trees": [100], "max_depth": [10]},
                "svm": {"gamma": [0.1], "c": [10.0]},
                "mlp": {"layers": [[16, 16]], "lr0": [0.01], "l2": [0.001]},
            },
        },
    },
}


def _run_full(tmp_path_factory, tag):
    root = tmp_path_factory.mktemp(tag)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(FULL_CONFIG), encoding="utf-8")
    config = load_config(cfg_path, workdir=root / "run")
    start = time.perf_counter()
    report = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return {"workdir": root / "run", "report": report, "elapsed": elapsed}


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    return _run_full(tmp_path_factory, "accept")


@pytest.fixture(scope="session")
def repeat_run(tmp_path_factory):
    return _run_full(tmp_path_factory, "accept-repeat")


def _verdict(num, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {num}] {label}: {status}")
    assert not failures, failures


def test_criterion_1_iri_engine():
    failures = []
    flat = generate_profile(400.0, 0.05, 0.0, seed=0)
    if not abs(compute_iri(flat)) <= 1e-9:
        failures.append("flat profile IRI not zero")

    base_profile = generate_profile(400.0, 0.05, 16e-6, seed=5)
    base = compute_iri(base_profile)
    for alpha in (0.5, 2.0):
        scaled = compute_iri(base_profile.scaled(alpha))
        if abs(scaled - alpha * base) / (alpha * base) > 1e-6:
            failures.append(f"homogeneity violated for alpha={alpha}")

    rough = generate_profile(150.0, 0.05, 16e-6, seed=7)
    iri = compute_iri(rough)
    oracle = rk4_iri_oracle(rough, dt=1e-4)
    if abs(iri - oracle) / oracle > 0.005:
        failures.append(f"fine-step oracle mismatch: {iri} vs {oracle}")

    km2 = generate_profile(2000.0, 0.05, 16e-6, seed=1)
    start = time.perf_counter()
    compute_iri(km2)
    per_km = (time.perf_counter() - start) / 2.0
    if per_km >= 1.0:
        failures.append(f"runtime {per_km:.2f} s per simulated km")
    _verdict(1, "roughness engine", failures)


def _fifty_edge_network():
    """A 6x5 street grid (49 edges) plus one spur edge west of node 0."""
    nx, ny, spacing = 6, 5, 100.0
    nodes = {}
    for j in range(ny):
        for i in range(nx):
            nodes[j * nx + i] = latlon(i * spacing, j * spacing)
    nodes[nx * ny] = latlon(-spacing, 0.0)
    edges = [(nx * ny, 0, None)]
    for j in range(ny):
        for i in range(nx):
            nid = j * nx + i
            if i + 1 < nx:
                edges.append((nid, nid + 1, None))
            if j + 1 < ny:
                edges.append((nid, nid + nx, None))
    net = RoadNetwork(nodes, edges)
    assert net.n_edges == 50
    return net


def _l_path_fixes(noise=0.0, seed=0):
    """Mid-edge fixes along the bottom row then up the east column."""
    rng = np.random.default_rng(seed)
    xy = [(50.0 + 100.0 * i, 0.0) for i in range(5)]
    xy += [(500.0, 50.0 + 100.0 * j) for j in range(4)]
    pts = []
    for x, y in xy:
        if noise:
            x += rng.normal(0.0, noise)
            y += rng.normal(0.0, noise)
        pts.append(latlon(x, y))
    return (np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))


def test_criterion_2_map_matching():
    failures = []
    net = _fifty_edge_network()

    lats, lons = _l_path_fixes()
    matched = match_fixes(np.arange(9.0), lats, lons, net)
    truth = [net.candidates(lat, lon)[0].edge
             for lat, lon in zip(lats, lons)]
    if list(matched.edge) != truth:
        failures.append("noiseless edge sequence not recovered exactly")

    recovered = total = 0
    for seed in range(20):
        lats, lons = _l_path_fixes(noise=3.0, seed=seed)
        noisy = match_fixes(np.arange(9.0), lats, lons, net)
        recovered += int(np.sum(noisy.edge == np.array(truth)))
        total += 9
    if recovered / total < 0.95:
        failures.append(f"noisy recovery {recovered / total:.3f} < 0.95")

    rng = np.random.default_rng(12)
    for trial in range(8):
        n = int(rng.integers(3, 7))
        xs = np.cumsum(rng.uniform(30, 90, n)) % 480
        ys = rng.uniform(-5, 390, n)
        ll = [latlon(x, y) for x, y in zip(xs, ys)]
        steps, emissions, transitions = build_lattice(
            np.array([p[0] for p in ll]), np.array([p[1] for p in ll]), net)
        _, score = viterbi_path(emissions, transitions)
        best = -np.inf
        for combo in itertools.product(*(range(len(s)) for s in steps)):
            s = emissions[0][combo[0]]
            for i in range(len(combo) - 1):
                s += transitions[i][combo[i], combo[i + 1]]
                s += emissions[i + 1][combo[i + 1]]
            best = max(best, s)
        if abs(score - best) > 1e-9:
            failures.append(f"Viterbi != exhaustive oracle on trial {trial}")
    _verdict(2, "map matching", failures)


def test_criterion_3_end_to_end(full_run):
    failures = []
    report = full_run["report"]
    n_windows = report["counters"]["align"]["n_windows"]
    if n_windows < 4000:
        failures.append(f"only {n_windows} windows")
    n = report["n_train"] + report["n_test"]
    if report["n_train"] != int(np.floor(0.8 * n)):
        failures.append("train split is not the leading 80%")

    reg = report["test"]["regression"]
    base_r2 = reg["baseline"]["metrics"]["r2"]
    for family in ("mlp", "svm"):
        if reg[family]["metrics"]["r2"] < 0.60:
            failures.append(f"{family} R2 {reg[family]['metrics']['r2']:.3f}")
    for family, entry in reg.items():
        if family != "baseline" and entry["metrics"]["r2"] <= base_r2:
            failures.append(f"{family} does not beat baseline R2")

    cls = report["test"]["classification"]
    best_f1 = max(e["metrics_macro"]["f1"] for f, e in cls.items()
                  if f != "baseline")
    if best_f1 < 0.55:
        failures.append(f"best macro F1 {best_f1:.3f} < 0.55")
    if cls["baseline"]["metrics_macro"]["f1"] > 0.35:
        failures.append("baseline macro F1 above 0.35")
    for family, entry in cls.items():
        if family != "baseline" and entry["adjacent_error_fraction"] < 0.90:
            failures.append(f"{family} non-adjacent misclassifications")

    if full_run["elapsed"] >= 15 * 60:
        failures.append(f"full run took {full_run['elapsed']:.0f} s")
    _verdict(3, "end-to-end quality", failures)


def test_criterion_4_optimizers():
    failures = []
    rng = np.random.default_rng(40)

    # MLP analytic gradients vs central finite differences (<= 1e-4 rel).
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    weights, biases = init_params([3, 5, 1], rng)
    _, gw, _ = mlp_loss(weights, biases, x, y, "regression", 0.01)
    for layer in range(len(weights)):
        shape = weights[layer].shape

        def f(flat, layer=layer, shape=shape):
            ws = [w.copy() for w in weights]
            ws[layer] = flat.reshape(shape)
            return mlp_loss(ws, biases, x, y, "regression", 0.01)[0]

        fd = finite_difference(f, weights[layer].ravel().copy())
        rel = np.max(np.abs(gw[layer].ravel() - fd)) / max(
            np.max(np.abs(fd)), 1.0)
        if rel > 1e-4:
            failures.append(f"MLP layer {layer} gradient off by {rel:.2e}")

    # Logistic gradients (<= 1e-5 rel).
    yc = rng.integers(0, 3, 8)
    onehot = np.zeros((8, 3))
    onehot[np.arange(8), yc] = 1.0
    w = rng.normal(size=(3, 3)) * 0.5
    b = np.zeros(3)
    _, gw_l, _ = logistic_loss(w, b, x, onehot, 0.05)
    fd = finite_difference(
        lambda flat: logistic_loss(flat.reshape(3, 3), b, x, onehot,
                                   0.05)[0],
        w.ravel().copy()).reshape(3, 3)
    rel = np.max(np.abs(gw_l - fd)) / max(np.max(np.abs(fd)), 1.0)
    if rel > 1e-5:
        failures.append(f"logistic gradient off by {rel:.2e}")

    # Lasso stationarity vs the subgradient conditions (+- 1e-4).
    x = rng.normal(size=(50, 6))
    y = x @ [1.5, 0.0, -2.0, 0.0, 0.3, 0.0] + 0.1 * rng.normal(size=50)
    lam = 0.1
    m = LinearModel("lasso", lam=lam).fit(x, y)
    xc = x - x.mean(axis=0)
    grad = xc.T @ (xc @ m.coef - (y - y.mean())) / len(y)
    for j, wj in enumerate(m.coef):
        if wj != 0.0 and abs(grad[j] + lam * np.sign(wj)) > 1e-4:
            failures.append(f"lasso active-coordinate residual at {j}")
        if wj == 0.0 and abs(grad[j]) > lam + 1e-4:
            failures.append(f"lasso zero-coordinate bound violated at {j}")

    # SVR dual objective vs the SLSQP oracle on 10-point instances.
    for seed in (3, 4):
        rng2 = np.random.default_rng(seed)
        xs = rng2.normal(size=(10, 2))
        ys = np.sin(xs[:, 0]) + 0.1 * rng2.normal(size=10)
        gamma, c, eps = 0.5, 2.0, 0.1
        k = rbf_kernel(xs, xs, gamma)
        z = np.concatenate([np.ones(10), -np.ones(10)])
        p = np.concatenate([eps - ys, eps + ys])
        q = (z[:, None] * z[None, :]) * np.tile(k, (2, 2))
        obj_oracle = _slsqp_dual(q, p, z, c)
        _, _, obj, _, _ = _solve_svr(k, ys, c, eps, 1e-6, 10 ** 6)
        if abs(obj - obj_oracle) / abs(obj_oracle) > 1e-3:
            failures.append(f"SVR dual off oracle (seed {seed})")

    # Depth-2 regression tree vs the exhaustive split oracle.
    for seed in (11, 12):
        rng3 = np.random.default_rng(seed)
        xt = rng3.normal(size=(20, 2))
        yt = rng3.normal(size=20)
        tree = DecisionTree(task="regression", max_depth=2).fit(xt, yt)
        _, f, thr = _stump_oracle_sse(xt, yt)
        mask = xt[:, f] <= thr
        total = 0.0
        for part in (mask, ~mask):
            xp, yp = xt[part], yt[part]
            if len(yp) < 2 or np.ptp(yp) == 0.0:
                total += np.sum((yp - yp.mean()) ** 2)
            else:
                total += _stump_oracle_sse(xp, yp)[0]
        if abs(_tree_sse(tree, xt, yt) - total) > 1e-9:
            failures.append(f"depth-2 tree != exhaustive oracle (seed {seed})")
    _verdict(4, "optimizer correctness", failures)


def test_criterion_5_selection(full_run):
    failures = []
    rng = np.random.default_rng(50)

    # Forward selection vs an independent greedy brute-force driver.
    x = rng.normal(size=(60, 3))
    y = 2.0 * x[:, 1] + 0.3 * x[:, 0] + 0.05 * rng.normal(size=60)
    res = sfs_forward(x, y, k_folds=4, n_trees=10, max_depth=3, seed=0)
    folds = ordered_kfold(len(x), 4)
    selected, remaining = [], list(range(3))
    while remaining:
        scored = [(_cv_rmse(x[:, selected + [f]], y, folds, 10, 3, 0), f)
                  for f in remaining]
        best_rmse = min(s for s, _ in scored)
        best_f = min(f for s, f in scored if s == best_rmse)
        selected.append(best_f)
        remaining.remove(best_f)
    if res.order != selected:
        failures.append(f"SFS order {res.order} != oracle {selected}")

    # PCA basis properties and eigenvalue ratios vs a dense eigensolver.
    x = rng.normal(size=(80, 6)) @ rng.normal(size=(6, 6))
    basis = pca_fit(x, 0.99)
    m = basis.components.shape[1]
    if not np.allclose(basis.components.T @ basis.components, np.eye(m),
                       atol=1e-8):
        failures.append("PCA components not orthonormal")
    xc = x - x.mean(axis=0)
    evals = np.sort(np.linalg.eigvalsh(xc.T @ xc / len(x)))[::-1]
    ratios = evals / evals.sum()
    if np.max(np.abs(basis.explained_ratios - ratios[:m])) > 1e-9:
        failures.append("explained ratios differ from dense eigensolver")

    kept = sum(full_run["report"]["selection"]["pca_explained_ratios"])
    if kept < 0.99:
        failures.append(f"pipeline PCA keeps only {kept:.4f} variance")
    _verdict(5, "feature selection", failures)


def test_criterion_6_protocol_hygiene(full_run, monkeypatch):
    failures = []

    # Expanding-window property across an (n, k) sweep.
    for k in (2, 3, 5, 8):
        for n in range(k, 201):
            folds = ordered_kfold(n, k)
            if len(folds) != k - 1:
                failures.append(f"wrong round count for n={n}, k={k}")
                break
            covered = []
            for tr, va in folds:
                if len(va) == 0 or len(tr) == 0:
                    failures.append(f"empty fold for n={n}, k={k}")
                if not np.array_equal(tr, np.arange(va[0])):
                    failures.append(f"train not a prefix for n={n}, k={k}")
                if not np.array_equal(va, np.arange(va[0], va[-1] + 1)):
                    failures.append(f"val not contiguous for n={n}, k={k}")
                covered.append(va)
            last_val = folds[-1][1]
            if last_val[-1] != n - 1:
                failures.append(f"folds do not reach the end for n={n}")
            if failures:
                break
        if failures:
            break

    # Leakage audit from the pipeline report: no fit saw val/test indices.
    report = full_run["report"]
    audit = report["leakage_audit"]
    n_train = audit["train_range"][1]
    if audit["test_range"] != [n_train, n_train + report["n_test"]]:
        failures.append("test range does not follow the train range")
    for task, fams in audit["cv_fold_bounds"].items():
        for family, bounds in fams.items():
            for (tr_lo, tr_hi), (va_lo, va_hi) in bounds:
                if not (tr_lo == 0 and tr_hi == va_lo < va_hi <= n_train):
                    failures.append(f"fold bounds leak for {task}/{family}")

    # Oversampling balances to <= 1.1 imbalance and sees only fold-train
    # rows: intercept the call the fold plan makes on every fold.
    calls = []
    real = adasyn_resample

    def spy(x, y, **kwargs):
        x_out, y_out = real(x, y, **kwargs)
        calls.append((x.shape[0], np.asarray(y_out, dtype=int)))
        return x_out, y_out

    monkeypatch.setattr(model_search, "adasyn_resample", spy)
    rng = np.random.default_rng(60)
    x = rng.normal(size=(120, 4))
    y = np.where(rng.uniform(size=120) < 0.75, 0, 1)
    plan = model_search.fold_plan("classification", x, y, 4, 0, True)
    model_search.grid_search("knn", "classification", plan, grid={"k": [3]})
    folds = ordered_kfold(120, 4)
    train_sizes = {len(tr) for tr, _ in folds}
    for n_rows, y_resampled in calls:
        if n_rows not in train_sizes:
            failures.append("oversampling saw rows outside a training fold")
        counts = np.bincount(y_resampled)
        counts = counts[counts > 0]
        if counts.max() / counts.min() > 1.1:
            failures.append("post-resample imbalance above 1.1")
    if not calls:
        failures.append("oversampling was never invoked during CV")
    _verdict(6, "protocol hygiene", failures)


def test_criterion_7_determinism(full_run, repeat_run):
    failures = []
    first, second = full_run["workdir"], repeat_run["workdir"]
    files = sorted(p.relative_to(first) for p in first.rglob("*")
                   if p.is_file())
    if files != sorted(p.relative_to(second) for p in second.rglob("*")
                       if p.is_file()):
        failures.append("two seeded runs wrote different files")
    for rel in files:
        if (first / rel).read_bytes() != (second / rel).read_bytes():
            failures.append(f"two seeded runs wrote different {rel}")
    if not {"report.json", "features.csv", "training.json",
            "windows/t.npy"} <= {str(rel) for rel in files}:
        failures.append("a run wrote fewer artifacts than expected")

    report = full_run["report"]
    ds, _ = io.read_features_csv(full_run["workdir"] / "features.csv")
    x_test = ds.X[report["n_train"]:]
    for family, entry in report["test"]["regression"].items():
        bundle = io.load_bundle(full_run["workdir"] / "models" /
                                f"regression_{family}.json")
        pred = bundle_predict(bundle, x_test)
        if np.max(np.abs(pred - np.array(entry["predictions"]))) > 1e-12:
            failures.append(f"bundle round trip drifts for {family}")
    _verdict(7, "determinism and round trips", failures)
