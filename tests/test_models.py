import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from roadroughness.cli.pipeline import bundle_model
from roadroughness.models import (BaselineModel, ConvergenceError,
                                  DecisionTree, GaussianNBModel, KnnModel,
                                  LinearModel, LogisticModel, MlpModel,
                                  RandomForestModel, SvmModel,
                                  adasyn_resample, grid_search, make_model,
                                  rbf_kernel)
from roadroughness.models import neighbors
from roadroughness.models import tree as tree_module
from roadroughness.models.logistic import loss_and_grad as logistic_loss
from roadroughness.models.mlp import (ADAM_B1, ADAM_B2, ADAM_EPS, LOSS_TOL,
                                      LR_PATIENCE, STOP_PATIENCE,
                                      init_params, loss_and_grads as mlp_loss)
from roadroughness.core import classification_metrics, ordered_kfold
from roadroughness.features import standardize_apply, standardize_fit
from roadroughness.models.search import (FAMILIES, fold_plan, grid_points,
                                         prepare_train_rows)
from roadroughness.models.svm import _solve_binary_svc, _solve_svr, smo_solve
from roadroughness.models.tree import (MAX_DEPTH, N_CLASSES, _Padded,
                                       _segment_sums, _splitmix64, draw_key,
                                       feature_subsets)


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

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_class_label_out_of_range_rejected(self, bad):
        message = r"class labels must lie in 0\.\.2"
        with pytest.raises(ValueError, match=message):
            KnnModel(k=1, task="classification").fit(
                np.zeros((3, 1)), np.array([0, 1, bad]))
        state = KnnModel(k=1, task="classification").fit(
            np.zeros((3, 1)), np.array([0, 1, 2])).state_dict()
        state["y_train"][2] = float(bad)
        with pytest.raises(ValueError, match=message):
            KnnModel.from_state(state)

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


# ------------------------------------------------ recursive tree oracle
# The node-by-node grower that the level-wise engine replaced, with the
# engine's keyed feature draws: the engine must build the same trees.


class RecursiveTree:
    def __init__(self, task="regression", max_depth=5, max_features=None,
                 n_classes=N_CLASSES, key=0):
        self.task = task
        self.max_depth = max_depth
        self.max_features = max_features
        self.n_classes = n_classes
        self.key = key

    def _leaf_value(self, y):
        if self.task == "regression":
            return float(np.mean(y))
        counts = np.bincount(y.astype(int), minlength=self.n_classes)
        return float(np.argmax(counts))

    def _best_split(self, x, y, feats):
        n = len(y)
        best = None
        best_score = np.inf
        if self.task == "classification":
            onehot = np.zeros((n, self.n_classes))
            onehot[np.arange(n), y.astype(int)] = 1.0
        for f in feats:
            xf = x[:, f]
            order = np.argsort(xf, kind="stable")
            xs = xf[order]
            valid = np.flatnonzero(xs[1:] > xs[:-1])
            if len(valid) == 0:
                continue
            sizes_l = (valid + 1).astype(float)
            sizes_r = n - sizes_l
            if self.task == "regression":
                ys = y[order]
                c1 = np.cumsum(ys)[valid]
                c2 = np.cumsum(ys ** 2)[valid]
                tot1 = float(np.sum(ys))
                tot2 = float(np.sum(ys ** 2))
                sse_l = c2 - c1 ** 2 / sizes_l
                sse_r = (tot2 - c2) - (tot1 - c1) ** 2 / sizes_r
                scores = sse_l + sse_r
            else:
                cum = np.cumsum(onehot[order], axis=0)[valid]
                tot = np.sum(onehot, axis=0)
                sq_l = np.sum(cum ** 2, axis=1) / sizes_l
                sq_r = np.sum((tot - cum) ** 2, axis=1) / sizes_r
                scores = n - sq_l - sq_r
            k = int(np.argmin(scores))
            if scores[k] < best_score:
                i = valid[k]
                a, b = xs[i], xs[i + 1]
                thr = a + (b - a) / 2.0
                if thr >= b:
                    thr = a
                best_score = float(scores[k])
                best = (int(f), float(thr), best_score)
        return best

    def _grow(self, x, y, depth, heap):
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        pure = (np.all(y == y[0]) if self.task == "classification"
                else float(np.ptp(y)) == 0.0)
        if depth >= self.max_depth or len(y) < 2 or pure:
            self.value[node] = self._leaf_value(y)
            return node
        d = x.shape[1]
        mf = d if self.max_features is None else min(self.max_features, d)
        if mf < d:
            feats = np.flatnonzero(feature_subsets([self.key], [heap], d,
                                                   mf)[0])
        else:
            feats = np.arange(d)
        split = self._best_split(x, y, feats)
        if split is None:
            self.value[node] = self._leaf_value(y)
            return node
        f, thr, _ = split
        mask = x[:, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self._grow(x[mask], y[mask], depth + 1,
                                     2 * heap + 1)
        self.right[node] = self._grow(x[~mask], y[~mask], depth + 1,
                                      2 * heap + 2)
        return node

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float if self.task == "regression" else int)
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        self._grow(x, y, 0, 0)
        return self


def stack_predict(tree, x):
    """The per-node stack walk that vectorised descent replaced."""
    x = np.asarray(x, dtype=float)
    out = np.empty(len(x))
    stack = [(0, np.arange(len(x)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[idx] = tree.value[node]
            continue
        mask = x[idx, f] <= tree.threshold[node]
        stack.append((tree.left[node], idx[mask]))
        stack.append((tree.right[node], idx[~mask]))
    return out


def stack_forest_predict(forest, x):
    preds = np.stack([stack_predict(tree, x) for tree in forest.trees])
    if forest.task == "regression":
        return preds.mean(axis=0)
    votes = np.zeros((len(x), forest.n_classes))
    for row in preds.astype(int):
        votes[np.arange(len(x)), row] += 1.0
    return np.argmax(votes, axis=1).astype(float)


def assert_same_tree(tree, oracle):
    assert tree.feature == oracle.feature
    assert tree.threshold == oracle.threshold
    assert tree.left == oracle.left
    assert tree.right == oracle.right
    np.testing.assert_allclose(tree.value, oracle.value, rtol=1e-12,
                               atol=0.0)


@st.composite
def tree_problems(draw):
    """Small data sets with ties, duplicates and constant columns."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    task = draw(st.sampled_from(["regression", "classification"]))
    grid = draw(st.sampled_from([0.5, 0.1, 1e-3]))  # coarser: more ties
    x = np.array(draw(st.lists(st.integers(-20, 20), min_size=n * d,
                               max_size=n * d)), dtype=float).reshape(n, d)
    x = x * grid
    for f in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        x[:, f] = x[0, f]                           # constant columns
    if draw(st.booleans()) and n > 1:
        x[n // 2:] = x[:n - n // 2]                 # duplicated rows
    if task == "regression":
        y = np.array(draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, width=64),
            min_size=n, max_size=n)))
        if draw(st.booleans()):
            y = np.round(y, 0)                      # tied y values
    else:
        levels = draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=1,
                               max_size=2, unique=True))   # a level absent
        y = np.array(draw(st.lists(st.sampled_from(levels), min_size=n,
                                   max_size=n)))
    if draw(st.booleans()):
        y = np.full(n, y[0])                        # constant y
    mf = draw(st.one_of(st.none(), st.integers(1, d)))
    depth = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return task, x, y, mf, depth, seed


class TestForestEngine:
    """The level-wise engine against the recursive oracle, node for node."""

    @settings(max_examples=150, deadline=None)
    @given(tree_problems())
    def test_property_matches_recursive_oracle(self, problem):
        task, x, y, mf, depth, seed = problem
        tree = DecisionTree(task, depth, mf,
                            rng=np.random.default_rng(seed)).fit(x, y)
        oracle = RecursiveTree(task, depth, mf, key=draw_key(
            np.random.default_rng(seed))).fit(x, y)
        assert_same_tree(tree, oracle)
        assert np.array_equal(tree.predict(x), stack_predict(oracle, x))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 130, 300, 700])
    def test_no_draws_matches_recursive_tree(self, task, n):
        # max_features=None draws nothing: the tree of the node-by-node
        # grower, unchanged. Larger n covers every summation path (runs
        # under 8, up to 128 and longer).
        rng = np.random.default_rng(n)
        x = np.round(rng.normal(size=(n, 3)), 1)
        y = (rng.normal(0.0, 50.0, n) if task == "regression"
             else rng.integers(0, 2, n))
        tree = DecisionTree(task, 12).fit(x, y)
        oracle = RecursiveTree(task, 12).fit(x, y)
        assert_same_tree(tree, oracle)
        assert tree.value == oracle.value

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_forest_trees_match_oracle_on_bootstrap_rows(self, task):
        rng = np.random.default_rng(21)
        n, d = 260, 5
        x = np.round(rng.normal(size=(n, d)), 2)
        y = (x[:, 0] ** 2 + rng.normal(0.0, 0.3, n) if task == "regression"
             else rng.integers(0, 3, n))
        forest = RandomForestModel(task, n_trees=6, max_depth=9, seed=4,
                                   max_features=2).fit(x, y)
        children = np.random.SeedSequence(4).spawn(6)
        for tree, child in zip(forest.trees, children):
            gen = np.random.default_rng(child)
            boot = gen.integers(0, n, n)
            oracle = RecursiveTree(task, 9, 2, key=draw_key(gen)).fit(
                x[boot], y[boot])
            assert_same_tree(tree, oracle)

    def test_subset_depends_only_on_key_and_heap(self):
        keys = np.array([3, 3, 99, 3], dtype=np.uint64)
        heaps = np.array([0, 5, 5, 1000], dtype=np.uint64)
        batch = feature_subsets(keys, heaps, 10, 3)
        assert batch.sum(axis=1).tolist() == [3, 3, 3, 3]
        for i in range(4):
            alone = feature_subsets(keys[i:i + 1], heaps[i:i + 1], 10, 3)
            assert np.array_equal(alone[0], batch[i])
        rev = feature_subsets(keys[::-1], heaps[::-1], 10, 3)
        assert np.array_equal(rev[::-1], batch)
        # Different nodes of one tree draw different subsets.
        assert not np.array_equal(batch[0], batch[1])

    def test_split_features_come_from_the_node_draw(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(300, 8))
        y = x @ rng.normal(size=8)
        tree = DecisionTree("regression", 7, 3,
                            rng=np.random.default_rng(5)).fit(x, y)
        key = draw_key(np.random.default_rng(5))
        stack = [(0, 0)]
        while stack:
            node, heap = stack.pop()
            f = tree.feature[node]
            if f < 0:
                continue
            assert feature_subsets([key], [heap], 8, 3)[0, f]
            stack.append((tree.left[node], 2 * heap + 1))
            stack.append((tree.right[node], 2 * heap + 2))

    def test_draws_are_pinned(self):
        # SplitMix64's published first outputs (seed 0), then subsets of
        # 2 of 6 features: a change here changes every forest.
        z = _splitmix64(np.array([0, 0x9E3779B97F4A7C15], dtype=np.uint64))
        assert [hex(int(v)) for v in z] == ["0xe220a8397b1dcdaf",
                                            "0x6e789e6aa1b965f4"]
        mask = feature_subsets(
            np.array([7, 7, 7, 12345678901234567890], dtype=np.uint64),
            np.array([0, 1, 2, 6], dtype=np.uint64), 6, 2)
        assert [np.flatnonzero(r).tolist() for r in mask] == [
            [3, 4], [2, 5], [1, 5], [3, 5]]

    @pytest.mark.parametrize("lens", [[1, 2, 7], [8, 9, 15, 16, 17, 127,
                                                   128], [129, 300, 1000],
                                      [3, 200, 64, 5, 129, 8, 1],
                                      [2] * 300 + [9] * 40 + [700]])
    def test_segment_sums_equal_numpy(self, lens):
        rng = np.random.default_rng(sum(lens))
        lens = np.array(lens)
        a = rng.normal(size=(2, lens.sum())) * 10 ** rng.uniform(
            -3, 3, size=(2, lens.sum()))
        pad = _Padded(lens)
        run = pad.cumsum(pad.spread(a))
        tot = _segment_sums(a, lens)
        ends = np.cumsum(lens)
        for i, (lo, hi) in enumerate(zip(ends - lens, ends)):
            for k in range(2):
                seg = a[k, lo:hi].copy()
                assert np.array_equal(run[k, pad.slots[lo:hi]],
                                      np.cumsum(seg))
                assert tot[k, i] == np.sum(seg)
                assert tot[k, i] == _segment_sums(seg, lens[i:i + 1])[0]

    def test_threshold_between_adjacent_floats(self):
        a = np.nextafter(1.0, 2.0)      # odd last bit: a + ulp / 2 rounds
        b = np.nextafter(a, 2.0)        # up to b
        x = np.array([[a], [b], [a], [b]])
        tree = DecisionTree(max_depth=1).fit(x, [0.0, 1.0, 0.0, 1.0])
        assert a + (b - a) / 2.0 == b
        assert tree.threshold == [a, 0.0, 0.0]
        assert tree.predict(x).tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_depth_beyond_heap_width_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTree(max_depth=MAX_DEPTH + 1)
        with pytest.raises(ValueError, match="max_depth"):
            RandomForestModel(max_depth=MAX_DEPTH + 1).fit(
                np.zeros((4, 1)), np.arange(4.0))
        tree = DecisionTree(max_depth=MAX_DEPTH).fit(
            np.arange(70.0)[:, None], np.arange(70.0) ** 2)
        assert tree.predict(np.arange(70.0)[:, None]).tolist() == (
            (np.arange(70.0) ** 2).tolist())

    def test_class_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="class labels"):
            DecisionTree("classification").fit(np.zeros((2, 1)), [0, 3])

    @staticmethod
    def _peak_bytes(n_trees, n_rows):
        import tracemalloc
        rng = np.random.default_rng(23)
        x = rng.normal(size=(n_rows, 3))
        y = rng.normal(size=n_rows)
        tracemalloc.start()
        RandomForestModel(n_trees=n_trees, max_depth=12, seed=0).fit(x, y)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    def test_temporaries_linear_in_bootstrap_rows(self, monkeypatch):
        # Padding nodes x rows at depth 12 would need hundreds of MB; the
        # engine needs about 0.5 KB per bootstrap row at any size.
        monkeypatch.setattr(tree_module, "GROW_ROWS", 1 << 30)
        for n_trees in (30, 60):
            assert self._peak_bytes(n_trees, 2000) < 800 * n_trees * 2000

    def test_groups_of_trees_bound_memory(self):
        assert self._peak_bytes(60, 2000) < 800 * tree_module.GROW_ROWS

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_groups_of_trees_grow_the_same_trees(self, task, monkeypatch):
        rng = np.random.default_rng(25)
        x = np.round(rng.normal(size=(150, 4)), 1)
        y = (rng.normal(size=150) if task == "regression"
             else rng.integers(0, 3, 150))
        whole = RandomForestModel(task, n_trees=7, max_depth=6,
                                  seed=3).fit(x, y)
        monkeypatch.setattr(tree_module, "GROW_ROWS", 300)   # 2 trees
        grouped = RandomForestModel(task, n_trees=7, max_depth=6,
                                    seed=3).fit(x, y)
        assert grouped.state_dict() == whole.state_dict()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_descent_matches_stack_walk(self, task):
        rng = np.random.default_rng(24)
        x = np.round(rng.normal(size=(300, 4)), 1)
        y = (rng.normal(size=300) if task == "regression"
             else rng.integers(0, 3, 300))
        forest = RandomForestModel(task, n_trees=12, max_depth=8,
                                   seed=1).fit(x, y)
        q = np.vstack([x, np.round(rng.normal(size=(200, 4)), 1)])
        for tree in forest.trees:
            assert np.array_equal(tree.predict(q), stack_predict(tree, q))
        assert np.array_equal(forest.predict(q),
                              stack_forest_predict(forest, q))
        loaded = RandomForestModel.from_state(forest.state_dict())
        assert np.array_equal(loaded.predict(q), forest.predict(q))


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


def _first_order_smo(q_row, diag, p, z, c, tol, max_iter):
    """Oracle: the SMO loop with first-order working-set selection (the
    maximal violating pair) that the solver used before WSS 3, with Q's
    rows built on demand. Returns lam."""
    n = len(p)
    lam = np.zeros(n)
    g = p.copy()
    pos = z > 0
    eps = 1e-12
    for _ in range(max_iter):
        up = (pos & (lam < c - eps)) | (~pos & (lam > eps))
        low = (pos & (lam > eps)) | (~pos & (lam < c - eps))
        vals = -z * g
        up_vals = np.where(up, vals, -np.inf)
        low_vals = np.where(low, vals, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        gap = up_vals[i] - low_vals[j]
        if gap <= tol:
            return lam
        qi = q_row(i)
        qj = q_row(j)
        a = max(diag[i] + diag[j] - 2.0 * z[i] * z[j] * qi[j], eps)
        d = gap / a
        d = min(d, c - lam[i] if z[i] > 0 else lam[i])
        d = min(d, lam[j] if z[j] > 0 else c - lam[j])
        dli = z[i] * d
        dlj = -z[j] * d
        lam[i] += dli
        lam[j] += dlj
        g += dli * qi + dlj * qj
    raise AssertionError("first-order SMO oracle did not converge")


def _slsqp_dual(q, p, z, c):
    """Independent oracle: the dual QP handed to scipy's SLSQP."""
    res = minimize(lambda lam: 0.5 * lam @ q @ lam + p @ lam,
                   np.zeros(len(p)), jac=lambda lam: q @ lam + p,
                   bounds=[(0.0, c)] * len(p), method="SLSQP",
                   constraints=[{"type": "eq", "fun": lambda lam: z @ lam,
                                 "jac": lambda lam: z}],
                   options={"ftol": 1e-14, "maxiter": 2000})
    return res.fun


@st.composite
def svm_duals(draw):
    """A small SVR or SVC dual over n <= 40 rows, some of them repeated
    (two equal rows have pair curvature a = 0), with C from 1e-2 to 1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 40))
    x = rng.normal(size=(n, draw(st.integers(1, 3))))
    dups = draw(st.integers(0, n // 2))
    x[n - dups:] = x[rng.integers(0, n - dups, dups)]
    k = rbf_kernel(x, x, draw(st.sampled_from([0.1, 0.5, 2.0])))
    c = 10.0 ** draw(st.floats(-2.0, 3.0))
    if draw(st.sampled_from(["svr", "svc"])) == "svr":
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.normal(size=n)
        eps = 0.1
        z = np.concatenate([np.ones(n), -np.ones(n)])
        p = np.concatenate([eps - y, eps + y])
    else:
        z = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        z[:2] = [1.0, -1.0]
        p = -np.ones(n)
    return k, p, z, c


def _dense_q(k, z):
    reps = len(z) // len(k)
    return (z[:, None] * z[None, :]) * np.tile(k, (reps, reps))


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
        obj_oracle = _slsqp_dual(q, p, z, c)
        _, _, obj, gap, _ = _solve_svr(k, y, c, eps, 1e-6, 10 ** 6)
        assert abs(obj - obj_oracle) / abs(obj_oracle) < 1e-3

    def test_svc_dual_matches_projected_gradient_oracle(self):
        x, y = self._svr_instance(6)
        z = np.where(y > np.median(y), 1.0, -1.0)
        c = 2.0
        k = rbf_kernel(x, x, 0.5)
        q = (z[:, None] * z[None, :]) * k
        obj_oracle = _slsqp_dual(q, -np.ones(len(z)), z, c)
        coef, bias, obj, gap, _ = _solve_binary_svc(k, z, c, 1e-6, 10 ** 6)
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

    def test_coefficients_stay_in_the_box(self):
        """lam + (c - lam) can round one ulp above c: on this SVC dual
        (n = 10, C = 13.2) a coefficient ended at C + 1.8e-15."""
        rng = np.random.default_rng(326)
        n = int(rng.integers(5, 30))
        x = rng.normal(size=(n, 2))
        c = float(10 ** rng.uniform(-2, 3))
        z = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        z[:2] = [1.0, -1.0]
        lam, *_ = smo_solve(rbf_kernel(x, x, 0.5), -np.ones(n), z, c, 1e-6,
                            10 ** 6)
        assert np.all((lam >= 0.0) & (lam <= c))

    @settings(max_examples=60, deadline=None)
    @given(svm_duals())
    def test_second_order_smo_matches_oracles(self, dual):
        k, p, z, c = dual
        tol = 1e-6
        lam, g, _, gap, _ = smo_solve(k, p, z, c, tol, 10 ** 6)
        assert gap <= tol
        assert np.all((lam >= 0.0) & (lam <= c))
        assert abs(z @ lam) <= 1e-9 * max(c * len(z), 1.0)
        q = _dense_q(k, z)
        # The gradient kept up to date step by step equals Q lam + p.
        scale = np.max(np.abs(q) @ np.abs(lam) + np.abs(p))
        assert np.max(np.abs(g - (q @ lam + p))) <= 1e-9 * scale
        obj = 0.5 * lam @ q @ lam + p @ lam
        n = len(k)
        lam1 = _first_order_smo(
            lambda e: q[e], np.tile(np.diag(k), len(z) // n), p, z, c, tol,
            10 ** 7)
        obj1 = 0.5 * lam1 @ q @ lam1 + p @ lam1
        obj_qp = _slsqp_dual(q, p, z, c)
        for ref in (obj1, obj_qp):
            assert abs(obj - ref) <= 1e-3 * max(abs(ref), 1e-6)

    def test_kernel_matches_pairwise_differences(self):
        rng = np.random.default_rng(27)
        a, b = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        assert np.allclose(rbf_kernel(a, b, 0.3), np.exp(-0.3 * d2),
                           rtol=0, atol=1e-13)

    def test_fit_holds_one_kernel_buffer(self):
        """The fit's peak memory is one n x n kernel plus O(n) vectors."""
        rng = np.random.default_rng(28)
        n = 500
        x = rng.normal(size=(n, 2))
        y = np.digitize(x[:, 0], [-0.5, 0.5]).astype(float)
        tracemalloc.start()
        try:
            SvmModel(task="svc", c=1.0, gamma=0.5).fit(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8

    def test_fit_records_solver_diagnostics(self):
        x, y = self._svr_instance(8)
        m = SvmModel(task="svr", c=2.0, gamma=0.5).fit(x, y)
        assert m.n_iter > 0 and 0.0 <= m.kkt_gap <= m.tol
        labels = np.array([0.0] * 5 + [1.0] * 5)
        m = SvmModel(task="svc", c=2.0, gamma=0.5).fit(x, labels)
        assert len(m.n_iter) == len(m.kkt_gap) == N_CLASSES
        assert m.n_iter[2] == 0 and m.bias[2] == -np.inf
        assert all(0.0 <= g <= m.tol for g in m.kkt_gap)

    def test_iteration_limit_raises(self):
        x, y = self._svr_instance(9)
        for max_iter in (0, 3):
            with pytest.raises(ConvergenceError):
                SvmModel(task="svr", c=2.0, gamma=0.5,
                         max_iter=max_iter).fit(x, y)

    def test_state_round_trip(self):
        x, y = self._svr_instance(7)
        m = SvmModel(task="svr", c=2.0, gamma=0.5).fit(x, y)
        m2 = SvmModel.from_state(m.state_dict())
        q = np.random.default_rng(0).normal(size=(5, 2))
        assert np.allclose(m.predict(q), m2.predict(q), atol=1e-12)


def _reference_mlp_fit(model: MlpModel, x, y):
    """Oracle: MlpModel.fit as a per-layer Adam loop over separate weight
    and bias arrays, with the epoch loss taken from loss_and_grads.
    Returns (weights, biases, loss_history)."""
    n, d = x.shape
    out_dim = 1 if model.task == "regression" else model.n_classes
    rng = np.random.default_rng(model.seed)
    weights, biases = init_params([d, *model.layers, out_dim], rng)
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    lr = model.lr0
    best_loss = np.inf
    stall_stop = stall_lr = step = 0
    history = []
    for _ in range(model.max_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, model.batch_size):
            batch = order[lo:lo + model.batch_size]
            _, gw, gb = mlp_loss(weights, biases, x[batch], y[batch],
                                 model.task, model.l2)
            step += 1
            corr1 = 1.0 - ADAM_B1 ** step
            corr2 = 1.0 - ADAM_B2 ** step
            for i in range(len(weights)):
                m_w[i] = ADAM_B1 * m_w[i] + (1 - ADAM_B1) * gw[i]
                v_w[i] = ADAM_B2 * v_w[i] + (1 - ADAM_B2) * gw[i] ** 2
                m_b[i] = ADAM_B1 * m_b[i] + (1 - ADAM_B1) * gb[i]
                v_b[i] = ADAM_B2 * v_b[i] + (1 - ADAM_B2) * gb[i] ** 2
                weights[i] -= lr * (m_w[i] / corr1) / (
                    np.sqrt(v_w[i] / corr2) + ADAM_EPS)
                biases[i] -= lr * (m_b[i] / corr1) / (
                    np.sqrt(v_b[i] / corr2) + ADAM_EPS)
        epoch_loss, _, _ = mlp_loss(weights, biases, x, y, model.task,
                                    model.l2)
        history.append(epoch_loss)
        if epoch_loss < best_loss - LOSS_TOL:
            best_loss = epoch_loss
            stall_stop = stall_lr = 0
        else:
            stall_stop += 1
            stall_lr += 1
            if stall_stop >= STOP_PATIENCE:
                break
            if stall_lr >= LR_PATIENCE:
                lr *= 0.5
                stall_lr = 0
    return weights, biases, history


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

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_adam_matches_per_layer_loop_bitwise(self, task, seed):
        rng = np.random.default_rng(100 + seed)
        n = 437   # two full batches of 200 and a short one
        x = rng.normal(size=(n, 3))
        y = (np.sin(x[:, 0]) + x[:, 1] if task == "regression"
             else rng.integers(0, N_CLASSES, n).astype(float))
        m = MlpModel(layers=(6, 5), lr0=0.02, l2=0.01, task=task, seed=seed,
                     max_epochs=40).fit(x, y)
        weights, biases, history = _reference_mlp_fit(m, x, y)
        assert m.loss_history == history
        for got, want in zip(m.weights + m.biases, weights + biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

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
        assert np.array_equal(neighbors.nearest_neighbours(x, x, 6)[:, 1:],
                              order[:, 1:6])
        assert np.array_equal(neighbors.nearest_neighbours(x, x[:50], 4),
                              order[:50, :4])

    def test_tiny_class_warns(self):
        x = np.vstack([np.random.default_rng(31).normal(size=(10, 2)),
                       [[5.0, 5.0], [5.1, 5.1]]])
        y = np.array([0] * 10 + [1] * 2)
        with pytest.warns(UserWarning):
            xo, yo = adasyn_resample(x, y, k_neighbors=5, seed=0)
        assert np.bincount(yo)[1] == 10


def oracle_fold_score(family, task, params, seed, x_tr, y_tr, x_val, y_val,
                      metric, adasyn):
    """One grid point on one fold, preparing the fold's rows itself, as
    grid search did before the fold plan."""
    scaler = standardize_fit(x_tr)
    x_tr = standardize_apply(scaler, x_tr)
    x_val = standardize_apply(scaler, x_val)
    if adasyn and task == "classification" and len(np.unique(y_tr)) > 1:
        x_tr, y_tr = adasyn_resample(x_tr, y_tr.astype(int), seed=seed)
    model = make_model(family, task, params, seed=seed)
    model.fit(x_tr, y_tr)
    pred = model.predict(x_val)
    if metric == "rmse":
        return float(np.sqrt(np.mean((pred - y_val) ** 2)))
    return classification_metrics(y_val.astype(int), pred.astype(int),
                                  average="macro")["f1"]


def oracle_grid_search(family, task, x, y, grid, k_folds, seed, adasyn):
    """Grid search preparing every (grid point, fold) again."""
    metric = "rmse" if task == "regression" else "macro_f1"
    candidates = grid_points(grid)
    best_idx, best_mean, table = None, None, []
    for idx, params in enumerate(candidates):
        scores, errors = [], []
        for fold_idx, (tr, va) in enumerate(ordered_kfold(len(x), k_folds)):
            try:
                scores.append(oracle_fold_score(
                    family, task, params, seed, x[tr], y[tr], x[va], y[va],
                    metric, adasyn))
            except (ConvergenceError, ValueError,
                    np.linalg.LinAlgError) as exc:
                scores.append(None)
                errors.append(f"fold {fold_idx}: {type(exc).__name__}: {exc}")
        valid = [v for v in scores if v is not None]
        mean = float(np.mean(valid)) if valid else float("nan")
        table.append({"params": dict(params), "fold_scores": scores,
                      "mean_score": mean, "errors": errors})
        if valid and (best_mean is None or (mean < best_mean
                                            if metric == "rmse"
                                            else mean > best_mean)):
            best_idx, best_mean = idx, mean
    return dict(candidates[best_idx]), table


def oracle_final_fit(family, task, params, x, y, seed, adasyn):
    """The final fit of one family, preparing the train rows itself, as
    the train stage did per family before the fold plan."""
    scaler = standardize_fit(x)
    x_fit, y_fit = standardize_apply(scaler, x), y
    if adasyn and task == "classification" and len(np.unique(y_fit)) > 1:
        x_fit, y_fit = adasyn_resample(x_fit, y_fit.astype(int), seed=seed)
        y_fit = y_fit.astype(float)
    return make_model(family, task, params, seed=seed).fit(x_fit, y_fit)


# Small grids, two points where a family has a hyperparameter.
ORACLE_GRIDS = {
    "regression": {"baseline": {}, "ridge": {"lam": [1.0, 60.0]},
                   "lasso": {"lam": [0.01]},
                   "elastic_net": {"lam": [0.01], "l1_ratio": [0.5]},
                   "knn": {"k": [3, 7]},
                   "random_forest": {"n_trees": [5], "max_depth": [3, 5]},
                   "svm": {"gamma": [0.1], "c": [1.0, 10.0]},
                   "mlp": {"layers": [(4,)], "lr0": [0.01], "l2": [0.1]}},
    "classification": {"baseline": {}, "logistic": {"lam": [0.1, 1.0]},
                       "knn": {"k": [3, 7]}, "gaussian_nb": {},
                       "random_forest": {"n_trees": [5],
                                         "max_depth": [3, 5]},
                       "svm": {"gamma": [0.1], "c": [1.0, 10.0]},
                       "mlp": {"layers": [(4,)], "lr0": [0.01],
                               "l2": [0.1]}},
}


class TestFoldPlan:
    def _table(self, n=120):
        """Three imbalanced levels; column 2 is constant on the first
        quarter, the train rows of fold 0 with four folds."""
        rng = np.random.default_rng(14)
        level = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
        x = rng.normal(size=(n, 3)) + level[:, None]
        x[: n // 4, 2] = 0.5
        iri = 0.8 + level + 0.2 * rng.normal(size=n)
        return x, {"regression": iri, "classification": level.astype(float)}

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_matches_the_per_grid_point_oracle(self, task):
        x, targets = self._table()
        y, seed, k_folds = targets[task], 3, 4
        plan = fold_plan(task, x, y, k_folds, seed, True)
        _, x_fit, y_fit = prepare_train_rows(task, x, y, seed, True)
        for family, grid in ORACLE_GRIDS[task].items():
            res = grid_search(family, task, plan, grid=grid)
            best, table = oracle_grid_search(family, task, x, y, grid,
                                             k_folds, seed, True)
            assert res.cv_table == table, family
            assert res.best_params == best, family
            assert table[0]["errors"][0].startswith(
                "fold 0: ValueError: column 2 has zero train std")
            model = make_model(family, task, res.best_params, seed=seed)
            want = oracle_final_fit(family, task, best, x, y, seed, True)
            assert (json.dumps(model.fit(x_fit, y_fit).state_dict())
                    == json.dumps(want.state_dict())), family

    def test_plan_arrays_are_read_only(self):
        x, targets = self._table()
        plan = fold_plan("classification", x, targets["classification"], 4,
                         0, True)
        assert isinstance(plan.folds[0], ValueError)
        for fold in plan.folds[1:]:
            for a in fold:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0
        _, x_fit, y_fit = prepare_train_rows("classification", x,
                                             targets["classification"], 0,
                                             True)
        assert not (x_fit.flags.writeable or y_fit.flags.writeable)
        assert x.flags.writeable

    def test_plan_for_another_task_is_rejected(self):
        x, targets = self._table()
        plan = fold_plan("regression", x, targets["regression"], 4, 0, False)
        with pytest.raises(ValueError, match="fold plan is for regression"):
            grid_search("knn", "classification", plan, grid={"k": [3]})


class TestGridSearch:
    def _data(self, seed=32, n=60):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        y = x @ [2.0, -1.0, 0.5] + 0.3 * rng.normal(size=n)
        return x, y

    def test_matches_manual_fold_loop(self):
        x, y = self._data()
        grid = {"lam": [0.1, 10.0, 1000.0]}
        res = grid_search("ridge", "regression",
                          fold_plan("regression", x, y, 4, 0, False),
                          grid=grid)
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
        res = grid_search("ridge", "regression",
                          fold_plan("regression", x, y, 3, 0, False),
                          grid=grid)
        assert res.cv_table[0]["mean_score"] == res.cv_table[1]["mean_score"]
        assert res.best_params == {"lam": 1.0}

    def test_fold_bounds_ordered(self):
        x, y = self._data()
        res = grid_search("ols", "regression",
                          fold_plan("regression", x, y, 5, 0, False))
        for (tr_lo, tr_hi), (va_lo, va_hi) in res.fold_bounds:
            assert tr_lo == 0
            assert tr_hi == va_lo
            assert va_lo < va_hi

    def test_failed_candidate_recorded_and_excluded(self):
        x, y = self._data(n=30)
        grid = {"k": [3, 500]}  # 500 exceeds every fold's training size
        res = grid_search("knn", "regression",
                          fold_plan("regression", x, y, 3, 0, False),
                          grid=grid)
        assert res.best_params == {"k": 3}
        assert res.cv_table[1]["errors"]
        assert np.isnan(res.cv_table[1]["mean_score"])

    def test_all_failures_raise(self):
        x, y = self._data(n=20)
        with pytest.raises(RuntimeError):
            grid_search("knn", "regression",
                        fold_plan("regression", x, y, 3, 0, False),
                        grid={"k": [500]})

    def test_classification_metric(self):
        rng = np.random.default_rng(33)
        x = np.vstack([rng.normal(-2, 0.5, (30, 2)),
                       rng.normal(2, 0.5, (30, 2))])
        y = np.array([0.0, 1.0] * 30)
        x = x[np.argsort(x[:, 0], kind="stable")]
        y = np.concatenate([np.zeros(30), np.ones(30)])
        rng.shuffle(y)  # interleave classes so every fold sees both
        res = grid_search("knn", "classification",
                          fold_plan("classification", x, y, 3, 0, False),
                          grid={"k": [3]})
        assert res.metric == "macro_f1"
        assert 0.0 <= res.best_score <= 1.0


class TestFactory:
    @pytest.mark.parametrize("family,task", [
        (family, task) for family, record in FAMILIES.items()
        for task in record.tasks])
    def test_fit_accepts_read_only_inputs(self, family, task):
        """Every family fits on read-only rows, as the fold plan shares
        them, and leaves them unchanged."""
        rng = np.random.default_rng(43)
        x = rng.normal(size=(60, 8))
        y = (x @ rng.normal(size=8) if task == "regression"
             else np.digitize(x[:, 0], [-0.5, 0.5]).astype(float))
        x_before, y_before = x.copy(), y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        params = grid_points(FAMILIES[family].grid)[0]
        make_model(family, task, params, seed=5).fit(x, y)
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)

    @pytest.mark.parametrize("family,task", [
        (family, task) for family, record in FAMILIES.items()
        for task in record.tasks])
    def test_bundle_round_trip(self, family, task):
        """Every (family, task) pair of the table builds from the first
        point of its default grid, and its state, sent through JSON,
        rebuilds by bundle_model to the same predictions."""
        rng = np.random.default_rng(41)
        x = rng.normal(size=(60, 8))
        if task == "regression":
            y = x @ rng.normal(size=8) + 0.1 * rng.normal(size=60)
        else:
            y = np.digitize(x[:, 0], [-0.5, 0.5]).astype(float)
        params = grid_points(FAMILIES[family].grid)[0]
        model = make_model(family, task, params, seed=5).fit(x, y)
        state = json.loads(json.dumps(model.state_dict()))
        rebuilt = bundle_model({"family": family, "task": task,
                                "model_state": state})
        q = rng.normal(size=(20, 8))
        assert np.array_equal(rebuilt.predict(q), model.predict(q))

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
