import itertools

import numpy as np
import pytest

from roadroughness.models import (BaselineModel, ConvergenceError,
                                  DecisionTree, GaussianNBModel, KnnModel,
                                  LinearModel, LogisticModel, MlpModel,
                                  RandomForestModel, SvmModel,
                                  adasyn_resample, default_grid, grid_search,
                                  make_model, rbf_kernel)
from roadroughness.models import neighbors
from roadroughness.models.logistic import loss_and_grad as logistic_loss
from roadroughness.models.mlp import init_params, loss_and_grads as mlp_loss
from roadroughness.models.resample import _knn_indices
from roadroughness.models.svm import _solve_binary_svc, _solve_svr


class TestBaseline:
    def test_regression_mean(self):
        m = BaselineModel(task="regression").fit(np.zeros((3, 1)),
                                                 [1.0, 2.0, 6.0])
        assert list(m.predict(np.zeros((2, 1)))) == [3.0, 3.0]

    def test_classification_majority(self):
        m = BaselineModel(task="classification").fit(np.zeros((4, 1)),
                                                     [2, 1, 2, 0])
        assert m.predict(np.zeros((1, 1)))[0] == 2.0

    def test_majority_tie_lower_ordinal(self):
        m = BaselineModel(task="classification").fit(np.zeros((4, 1)),
                                                     [2, 1, 2, 1])
        assert m.predict(np.zeros((1, 1)))[0] == 1.0


class TestLinear:
    def test_ols_recovers_exact_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        y = x @ [2.0, -1.0, 0.5] + 4.0
        m = LinearModel("ols").fit(x, y)
        assert np.allclose(m.coef, [2.0, -1.0, 0.5], atol=1e-10)
        assert m.intercept == pytest.approx(4.0)

    def test_ridge_matches_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        lam = 3.0
        m = LinearModel("ridge", lam=lam).fit(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        expected = np.linalg.solve(xc.T @ xc + lam * np.eye(2), xc.T @ yc)
        assert np.allclose(m.coef, expected, atol=1e-12)

    def test_ridge_shrinks_monotonically(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = x @ [1.0, 2.0, 3.0] + rng.normal(size=40)
        norms = [np.linalg.norm(LinearModel("ridge", lam=lam).fit(x, y).coef)
                 for lam in (0.0, 1.0, 10.0, 100.0)]
        assert norms == sorted(norms, reverse=True)

    def test_lasso_satisfies_subgradient_conditions(self):
        """KKT check of the coordinate-descent optimum: for active weights
        the smooth gradient must cancel lam*sign(w); for zero weights it must
        stay within [-lam, lam]."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 6))
        y = x @ [1.5, 0.0, -2.0, 0.0, 0.3, 0.0] + 0.1 * rng.normal(size=50)
        lam = 0.1
        m = LinearModel("lasso", lam=lam).fit(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        grad = xc.T @ (xc @ m.coef - yc) / len(y)
        for j, w in enumerate(m.coef):
            if w != 0.0:
                assert grad[j] + lam * np.sign(w) == pytest.approx(0.0,
                                                                   abs=1e-4)
            else:
                assert abs(grad[j]) <= lam + 1e-4

    def test_lasso_large_lambda_zeroes_all(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 4))
        y = x @ [1.0, -1.0, 0.5, 2.0] + rng.normal(size=30)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        lam_max = np.max(np.abs(xc.T @ yc)) / len(y)
        m = LinearModel("lasso", lam=lam_max * 1.01).fit(x, y)
        assert np.all(m.coef == 0.0)
        assert m.intercept == pytest.approx(y.mean())

    def test_elastic_net_limits(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = x @ [1.0, 2.0, -1.0] + 0.1 * rng.normal(size=40)
        lasso = LinearModel("lasso", lam=0.05).fit(x, y)
        enet1 = LinearModel("elastic_net", lam=0.05, l1_ratio=1.0).fit(x, y)
        assert np.allclose(lasso.coef, enet1.coef, atol=1e-8)
        # l1_ratio = 0 reduces to ridge with penalty N * lam.
        enet0 = LinearModel("elastic_net", lam=0.05, l1_ratio=0.0).fit(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        expected = np.linalg.solve(xc.T @ xc + len(y) * 0.05 * np.eye(3),
                                   xc.T @ yc)
        assert np.allclose(enet0.coef, expected, atol=1e-6)

    def test_state_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        m = LinearModel("ridge", lam=1.0).fit(x, y)
        m2 = LinearModel.from_state(m.state_dict())
        assert np.array_equal(m.predict(x), m2.predict(x))


def finite_difference(f, params, eps=1e-6):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        p = params.copy()
        p[i] += eps
        up = f(p)
        p[i] -= 2 * eps
        down = f(p)
        grad[i] = (up - down) / (2 * eps)
    return grad


class TestLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 4))
        y = rng.integers(0, 3, 12)
        onehot = np.zeros((12, 3))
        onehot[np.arange(12), y] = 1.0
        w = rng.normal(size=(4, 3)) * 0.5
        b = rng.normal(size=3) * 0.1
        lam = 0.05
        _, gw, gb = logistic_loss(w, b, x, onehot, lam)

        def f_w(flat):
            loss, _, _ = logistic_loss(flat.reshape(4, 3), b, x, onehot, lam)
            return loss

        def f_b(bb):
            loss, _, _ = logistic_loss(w, bb, x, onehot, lam)
            return loss

        fd_w = finite_difference(f_w, w.ravel().copy()).reshape(4, 3)
        fd_b = finite_difference(f_b, b.copy())
        assert np.max(np.abs(gw - fd_w)) / max(np.max(np.abs(fd_w)),
                                               1.0) <= 1e-5
        assert np.max(np.abs(gb - fd_b)) <= 1e-5

    def test_separable_data(self):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(-3, 0.3, (20, 2)),
                       rng.normal(0, 0.3, (20, 2)),
                       rng.normal(3, 0.3, (20, 2))])
        y = np.repeat([0, 1, 2], 20)
        m = LogisticModel(lam=0.01).fit(x, y)
        assert np.mean(m.predict(x) == y) >= 0.95
        proba = m.predict_proba(x)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_ovr_scheme(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(-2, 0.4, (15, 2)),
                       rng.normal(2, 0.4, (15, 2))])
        y = np.repeat([0, 1], 15)
        m = LogisticModel(lam=0.01, scheme="ovr").fit(x, y)
        assert np.mean(m.predict(x) == y) >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticModel().fit(np.zeros((5, 2)), np.zeros(5, dtype=int))


class TestKnn:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        q = rng.normal(size=(10, 3))
        m = KnnModel(k=4, task="regression").fit(x, y)
        pred = m.predict(q)
        for i in range(10):
            d = np.sqrt(np.sum((x - q[i]) ** 2, axis=1))
            idx = np.argsort(d, kind="stable")[:4]
            assert pred[i] == pytest.approx(np.mean(y[idx]))

    def test_distance_tie_prefers_lower_row(self):
        x = np.array([[1.0], [1.0], [5.0]])
        y = np.array([10.0, 20.0, 30.0])
        m = KnnModel(k=1, task="regression").fit(x, y)
        assert m.predict(np.array([[1.0]]))[0] == 10.0

    def test_vote_tie_prefers_lower_ordinal(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([2, 2, 1, 1])
        m = KnnModel(k=4, task="classification").fit(x, y)
        assert m.predict(np.array([[1.5]]))[0] == 1.0

    def test_k_exceeding_rows_rejected(self):
        with pytest.raises(ValueError):
            KnnModel(k=5).fit(np.zeros((3, 1)), np.zeros(3))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_chunks_match_unchunked_brute_force(self, task, monkeypatch):
        rng = np.random.default_rng(11)
        x = np.round(rng.normal(size=(300, 2)), 1)  # distance ties
        y = rng.integers(0, 3, 300).astype(float)
        q = np.round(rng.normal(size=(250, 2)), 1)
        d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        vals = y[np.argsort(d2, axis=1, kind="stable")[:, :7]]
        if task == "regression":
            expected = vals.mean(axis=1)
        else:
            expected = np.array([np.argmax(np.bincount(r, minlength=3))
                                 for r in vals.astype(int)], dtype=float)
        # 64 kB per chunk: 13 query rows against 300 x 2 training values.
        monkeypatch.setattr(neighbors, "CHUNK_BYTES", 1 << 16)
        assert neighbors.query_chunk(x.shape) == 13
        pred = KnnModel(k=7, task=task).fit(x, y).predict(q)
        assert np.array_equal(pred, expected)

    def test_peak_memory_bounded_at_full_scale(self):
        """4191 queries against 3352 training rows of 2 columns (the 42 km
        run) stay under 64 MB; one unchunked difference tensor is 225 MB."""
        import tracemalloc
        rng = np.random.default_rng(12)
        m = KnnModel(k=5, task="classification").fit(
            rng.normal(size=(3352, 2)), rng.integers(0, 3, 3352))
        q = rng.normal(size=(4191, 2))
        tracemalloc.start()
        try:
            m.predict(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestGaussianNB:
    def test_matches_hand_computed_posterior(self):
        x = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        m = GaussianNBModel().fit(x, y)
        q = np.array([[2.5]])
        lp = m.log_posterior(q)[0]
        for k, rows in ((0, x[:3, 0]), (1, x[3:, 0])):
            mu, var = rows.mean(), rows.var()
            expected = (np.log(0.5)
                        - 0.5 * (np.log(2 * np.pi * var)
                                 + (2.5 - mu) ** 2 / var))
            assert lp[k] == pytest.approx(expected)
        assert m.predict(q)[0] == 0.0

    def test_priors_reflect_frequencies(self):
        x = np.zeros((4, 1))
        x[:, 0] = [0.0, 0.1, 0.2, 5.0]
        m = GaussianNBModel().fit(x, [0, 0, 0, 1])
        assert np.exp(m.log_prior[0]) == pytest.approx(0.75)
        assert np.exp(m.log_prior[1]) == pytest.approx(0.25)


def _stump_oracle_sse(x, y):
    """Exhaustive best stump for regression: every feature, every midpoint."""
    best = (np.inf, None, None)
    for f in range(x.shape[1]):
        xs = np.sort(np.unique(x[:, f]))
        for a, b in zip(xs[:-1], xs[1:]):
            thr = a + (b - a) / 2.0
            mask = x[:, f] <= thr
            sse = (np.sum((y[mask] - y[mask].mean()) ** 2)
                   + np.sum((y[~mask] - y[~mask].mean()) ** 2))
            if sse < best[0] - 1e-12:
                best = (sse, f, thr)
    return best


def _tree_sse(tree, x, y):
    pred = tree.predict(x)
    return float(np.sum((y - pred) ** 2))


class TestDecisionTree:
    def test_depth1_matches_exhaustive_stump(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            x = rng.normal(size=(25, 3))
            y = rng.normal(size=25)
            tree = DecisionTree(task="regression", max_depth=1).fit(x, y)
            sse, f, thr = _stump_oracle_sse(x, y)
            assert tree.feature[0] == f
            assert tree.threshold[0] == pytest.approx(thr)
            assert _tree_sse(tree, x, y) == pytest.approx(sse)

    def test_depth2_matches_recursive_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            x = rng.normal(size=(20, 2))
            y = rng.normal(size=20)
            tree = DecisionTree(task="regression", max_depth=2).fit(x, y)
            # Greedy oracle: best stump at the root, then best stump in each
            # child computed exhaustively.
            _, f, thr = _stump_oracle_sse(x, y)
            mask = x[:, f] <= thr
            total = 0.0
            for part in (mask, ~mask):
                xp, yp = x[part], y[part]
                if len(yp) < 2 or np.ptp(yp) == 0.0:
                    total += np.sum((yp - yp.mean()) ** 2)
                    continue
                sse, fp, _ = _stump_oracle_sse(xp, yp)
                total += sse if fp is not None else np.sum(
                    (yp - yp.mean()) ** 2)
            assert _tree_sse(tree, x, y) == pytest.approx(total)

    def test_classification_pure_leaves(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 2, 2])
        tree = DecisionTree(task="classification", max_depth=3).fit(x, y)
        assert list(tree.predict(x)) == [0.0, 0.0, 2.0, 2.0]


class TestRandomForest:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 4))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        p1 = RandomForestModel(n_trees=10, max_depth=4, seed=3).fit(
            x, y).predict(x)
        p2 = RandomForestModel(n_trees=10, max_depth=4, seed=3).fit(
            x, y).predict(x)
        assert np.array_equal(p1, p2)

    def test_learns_nonlinear_signal(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-2, 2, size=(200, 2))
        y = np.sin(2 * x[:, 0]) * np.cos(x[:, 1])
        m = RandomForestModel(n_trees=40, max_depth=6, seed=0).fit(x, y)
        resid = y - m.predict(x)
        assert np.var(resid) < 0.2 * np.var(y)

    def test_classification_vote(self):
        rng = np.random.default_rng(15)
        x = np.vstack([rng.normal(-2, 0.3, (25, 2)),
                       rng.normal(2, 0.3, (25, 2))])
        y = np.repeat([0, 2], 25)
        m = RandomForestModel(task="classification", n_trees=15,
                              max_depth=3, seed=1).fit(x, y)
        assert np.mean(m.predict(x) == y) >= 0.95

    def test_state_round_trip(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        m = RandomForestModel(n_trees=5, max_depth=3, seed=2).fit(x, y)
        m2 = RandomForestModel.from_state(m.state_dict())
        q = rng.normal(size=(10, 3))
        assert np.array_equal(m.predict(q), m2.predict(q))


def _project_box_hyperplane(v, z, c):
    lo, hi = -1e8, 1e8
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lam = np.clip(v - mid * z, 0, c)
        if z @ lam > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * z, 0, c)


def _projected_gradient(q, p, z, c, iters=30_000):
    """Independent dual solver: projected gradient descent onto the box
    intersected with the equality constraint (projection by bisection)."""
    lr = 1.0 / np.linalg.norm(q, 2)
    lam = _project_box_hyperplane(np.zeros(len(p)), z, c)
    for _ in range(iters):
        lam = _project_box_hyperplane(lam - lr * (q @ lam + p), z, c)
    return lam, 0.5 * lam @ q @ lam + p @ lam


class TestSvm:
    def _svr_instance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(10, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=10)
        return x, y

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_svr_dual_matches_projected_gradient_oracle(self, seed):
        x, y = self._svr_instance(seed)
        gamma, c, eps = 0.5, 2.0, 0.1
        k = rbf_kernel(x, x, gamma)
        n = len(y)
        z = np.concatenate([np.ones(n), -np.ones(n)])
        p = np.concatenate([eps - y, eps + y])
        q = (z[:, None] * z[None, :]) * np.tile(k, (2, 2))
        _, obj_oracle = _projected_gradient(q, p, z, c)
        _, _, obj, gap = _solve_svr(k, y, c, eps, 1e-6, 10 ** 6)
        assert abs(obj - obj_oracle) / abs(obj_oracle) < 1e-3

    def test_svc_dual_matches_projected_gradient_oracle(self):
        x, y = self._svr_instance(6)
        z = np.where(y > np.median(y), 1.0, -1.0)
        c = 2.0
        k = rbf_kernel(x, x, 0.5)
        q = (z[:, None] * z[None, :]) * k
        _, obj_oracle = _projected_gradient(q, -np.ones(len(z)), z, c)
        coef, bias, obj, gap = _solve_binary_svc(k, z, c, 1e-6, 10 ** 6)
        assert abs(obj - obj_oracle) / abs(obj_oracle) < 1e-3
        # Free support vectors must sit on the margin.
        f = k @ coef + bias
        free = (np.abs(coef) > 1e-8) & (c - np.abs(coef) > 1e-6)
        if free.any():
            assert np.max(np.abs(f[free] * z[free] - 1.0)) < 1e-3

    def test_svr_free_vectors_on_epsilon_tube(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(25, 1))
        y = 0.5 * x[:, 0] + 0.05 * rng.normal(size=25)
        m = SvmModel(task="svr", c=5.0, gamma=0.5, epsilon=0.1,
                     tol=1e-6).fit(x, y)
        pred = m.predict(x)
        beta = np.zeros(len(x))
        # Recover per-sample coefficients from the stored support vectors.
        sv_map = {tuple(row): c for row, c in zip(m.sv_x, m.sv_coef)}
        for i, row in enumerate(x):
            beta[i] = sv_map.get(tuple(row), 0.0)
        free = (np.abs(beta) > 1e-8) & (5.0 - np.abs(beta) > 1e-6)
        if free.any():
            assert np.max(np.abs(np.abs(y[free] - pred[free]) - 0.1)) < 1e-3

    def test_svc_separable_blobs(self):
        rng = np.random.default_rng(21)
        x = np.vstack([rng.normal(-2, 0.3, (15, 2)),
                       rng.normal(0, 0.3, (15, 2)),
                       rng.normal(2.5, 0.3, (15, 2))])
        y = np.repeat([0.0, 1.0, 2.0], 15)
        m = SvmModel(task="svc", c=10.0, gamma=0.5).fit(x, y)
        assert np.mean(m.predict(x) == y) >= 0.95

    def test_state_round_trip(self):
        x, y = self._svr_instance(7)
        m = SvmModel(task="svr", c=2.0, gamma=0.5).fit(x, y)
        m2 = SvmModel.from_state(m.state_dict())
        q = np.random.default_rng(0).normal(size=(5, 2))
        assert np.allclose(m.predict(q), m2.predict(q), atol=1e-12)


class TestMlp:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_gradients_match_finite_differences(self, task):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(8, 3))
        y = (rng.normal(size=8) if task == "regression"
             else rng.integers(0, 3, 8).astype(float))
        sizes = [3, 5, 1 if task == "regression" else 3]
        weights, biases = init_params(sizes, rng)
        l2 = 0.01
        _, gw, gb = mlp_loss(weights, biases, x, y, task, l2)
        for layer in range(len(weights)):
            shape = weights[layer].shape

            def f(flat):
                ws = [w.copy() for w in weights]
                ws[layer] = flat.reshape(shape)
                loss, _, _ = mlp_loss(ws, biases, x, y, task, l2)
                return loss

            fd = finite_difference(f, weights[layer].ravel().copy())
            scale = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(gw[layer].ravel() - fd)) / scale <= 1e-4

            def f_b(flat):
                bs = [b.copy() for b in biases]
                bs[layer] = flat
                loss, _, _ = mlp_loss(weights, bs, x, y, task, l2)
                return loss

            fd_b = finite_difference(f_b, biases[layer].copy())
            assert np.max(np.abs(gb[layer] - fd_b)) <= 1e-4

    def test_fits_linear_function(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(200, 2))
        y = x @ [1.0, -2.0] + 0.5
        m = MlpModel(layers=(16,), lr0=0.01, l2=0.0, seed=0,
                     max_epochs=300).fit(x, y)
        resid = y - m.predict(x)
        assert np.var(resid) < 0.05 * np.var(y)

    def test_classification_on_blobs(self):
        rng = np.random.default_rng(24)
        x = np.vstack([rng.normal(-2, 0.4, (30, 2)),
                       rng.normal(2, 0.4, (30, 2))])
        y = np.repeat([0.0, 2.0], 30)
        m = MlpModel(layers=(8,), lr0=0.01, l2=0.001,
                     task="classification", seed=1, max_epochs=200).fit(x, y)
        assert np.mean(m.predict(x) == y) >= 0.95

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        p1 = MlpModel(layers=(4,), seed=5, max_epochs=30).fit(x, y).predict(x)
        p2 = MlpModel(layers=(4,), seed=5, max_epochs=30).fit(x, y).predict(x)
        assert np.array_equal(p1, p2)

    def test_state_round_trip(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        m = MlpModel(layers=(4,), seed=0, max_epochs=20).fit(x, y)
        m2 = MlpModel.from_state(m.state_dict())
        assert np.array_equal(m.predict(x), m2.predict(x))


class TestAdasyn:
    def test_balances_to_majority(self):
        rng = np.random.default_rng(27)
        x = np.vstack([rng.normal(0, 1, (40, 2)),
                       rng.normal(5, 1, (12, 2)),
                       rng.normal(-5, 1, (8, 2))])
        y = np.array([0] * 40 + [1] * 12 + [2] * 8)
        xo, yo = adasyn_resample(x, y, seed=0)
        counts = np.bincount(yo)
        assert list(counts) == [40, 40, 40]
        assert np.array_equal(xo[:52], x[:52]) or np.array_equal(
            xo[:len(x)], x)

    def test_balanced_input_unchanged(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10)
        xo, yo = adasyn_resample(x, y, seed=0)
        assert np.array_equal(xo, x)
        assert np.array_equal(yo, y)

    def test_synthetic_points_interpolate_class_members(self):
        rng = np.random.default_rng(29)
        x = np.vstack([rng.normal(0, 1, (30, 2)),
                       rng.normal(8, 0.5, (6, 2))])
        y = np.array([0] * 30 + [1] * 6)
        xo, yo = adasyn_resample(x, y, seed=1)
        synth = xo[len(x):]
        members = x[y == 1]
        lo, hi = members.min(axis=0), members.max(axis=0)
        assert np.all(synth >= lo - 1e-12)
        assert np.all(synth <= hi + 1e-12)
        assert np.all(yo[len(x):] == 1)

    def test_deterministic(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(30, 2))
        y = np.array([0] * 20 + [1] * 10)
        x1, _ = adasyn_resample(x, y, seed=7)
        x2, _ = adasyn_resample(x, y, seed=7)
        assert np.array_equal(x1, x2)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            adasyn_resample(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_single_sample_class_left_as_is(self):
        rng = np.random.default_rng(32)
        x = np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(4, 1, (6, 2)),
                       [[9.0, 9.0]]])
        y = np.array([0] * 20 + [1] * 6 + [2])
        with pytest.warns(UserWarning, match="class 2 has a single sample"):
            xo, yo = adasyn_resample(x, y, seed=0)
        assert list(np.bincount(yo)) == [20, 20, 1]
        assert np.array_equal(xo[:len(x)], x)

    def test_neighbour_chunks_match_unchunked(self, monkeypatch):
        rng = np.random.default_rng(33)
        x = np.round(rng.normal(size=(120, 3)), 1)
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        monkeypatch.setattr(neighbors, "CHUNK_BYTES", 1 << 13)
        assert np.array_equal(_knn_indices(x, x, 5, exclude_self=True),
                              order[:, 1:6])
        assert np.array_equal(_knn_indices(x, x[:50], 4, exclude_self=False),
                              order[:50, :4])

    def test_tiny_class_warns(self):
        x = np.vstack([np.random.default_rng(31).normal(size=(10, 2)),
                       [[5.0, 5.0], [5.1, 5.1]]])
        y = np.array([0] * 10 + [1] * 2)
        with pytest.warns(UserWarning):
            xo, yo = adasyn_resample(x, y, k_neighbors=5, seed=0)
        assert np.bincount(yo)[1] == 10


class TestGridSearch:
    def _data(self, seed=32, n=60):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        y = x @ [2.0, -1.0, 0.5] + 0.3 * rng.normal(size=n)
        return x, y

    def test_matches_manual_fold_loop(self):
        from roadroughness.core import ordered_kfold
        from roadroughness.features import standardize_apply, standardize_fit
        x, y = self._data()
        grid = {"lam": [0.1, 10.0, 1000.0]}
        res = grid_search("ridge", "regression", x, y, grid=grid, k_folds=4,
                          seed=0)
        means = []
        for lam in grid["lam"]:
            errs = []
            for tr, va in ordered_kfold(len(x), 4):
                s = standardize_fit(x[tr])
                m = LinearModel("ridge", lam=lam).fit(
                    standardize_apply(s, x[tr]), y[tr])
                pred = m.predict(standardize_apply(s, x[va]))
                errs.append(np.sqrt(np.mean((pred - y[va]) ** 2)))
            means.append(np.mean(errs))
        assert res.best_params == {"lam": grid["lam"][int(np.argmin(means))]}
        assert res.best_score == pytest.approx(min(means))
        for entry, mean in zip(res.cv_table, means):
            assert entry["mean_score"] == pytest.approx(mean)

    def test_tie_prefers_first_grid_point(self):
        x, y = self._data()
        grid = {"lam": [1.0, 1.0]}
        res = grid_search("ridge", "regression", x, y, grid=grid, k_folds=3,
                          seed=0)
        assert res.cv_table[0]["mean_score"] == res.cv_table[1]["mean_score"]
        assert res.best_params == {"lam": 1.0}

    def test_fold_bounds_ordered(self):
        x, y = self._data()
        res = grid_search("ols", "regression", x, y, k_folds=5, seed=0)
        for (tr_lo, tr_hi), (va_lo, va_hi) in res.fold_bounds:
            assert tr_lo == 0
            assert tr_hi == va_lo
            assert va_lo < va_hi

    def test_failed_candidate_recorded_and_excluded(self):
        x, y = self._data(n=30)
        grid = {"k": [3, 500]}  # 500 exceeds every fold's training size
        res = grid_search("knn", "regression", x, y, grid=grid, k_folds=3,
                          seed=0)
        assert res.best_params == {"k": 3}
        assert res.cv_table[1]["errors"]
        assert np.isnan(res.cv_table[1]["mean_score"])

    def test_all_failures_raise(self):
        x, y = self._data(n=20)
        with pytest.raises(RuntimeError):
            grid_search("knn", "regression", x, y, grid={"k": [500]},
                        k_folds=3, seed=0)

    def test_classification_metric(self):
        rng = np.random.default_rng(33)
        x = np.vstack([rng.normal(-2, 0.5, (30, 2)),
                       rng.normal(2, 0.5, (30, 2))])
        y = np.array([0.0, 1.0] * 30)
        x = x[np.argsort(x[:, 0], kind="stable")]
        y = np.concatenate([np.zeros(30), np.ones(30)])
        rng.shuffle(y)  # interleave classes so every fold sees both
        res = grid_search("knn", "classification", x, y,
                          grid={"k": [3]}, k_folds=3, seed=0)
        assert res.metric == "macro_f1"
        assert 0.0 <= res.best_score <= 1.0


class TestFactory:
    def test_default_grids_exist_for_all_families(self):
        for family in ("baseline", "ols", "ridge", "lasso", "elastic_net",
                       "logistic", "knn", "gaussian_nb", "random_forest",
                       "svm", "mlp"):
            grid = default_grid(family)
            assert isinstance(grid, dict)

    def test_make_model_dispatch(self):
        assert isinstance(make_model("ridge", "regression", {"lam": 1.0}),
                          LinearModel)
        assert isinstance(make_model("svm", "classification"), SvmModel)
        assert isinstance(make_model("mlp", "regression",
                                     {"layers": [4, 4]}), MlpModel)

    def test_task_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_model("logistic", "regression")
        with pytest.raises(ValueError):
            make_model("lasso", "classification")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_model("boosted", "regression")
