import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadroughness.core import ordered_kfold
from roadroughness.models.tree import RandomForestModel
from roadroughness.selection import (SfsResult, drop_constant, pca_fit,
                                     pca_transform, sfs_forward)


class TestDropConstant:
    def test_removes_constant_columns(self):
        x = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 3.0], [3.0, 5.0, 2.0]])
        out, kept = drop_constant(x)
        assert list(kept) == [0, 2]
        assert out.shape == (3, 2)

    def test_all_constant_rejected(self):
        with pytest.raises(ValueError):
            drop_constant(np.full((4, 3), 7.0))

    def test_keeps_everything_when_varying(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4))
        _, kept = drop_constant(x)
        assert list(kept) == [0, 1, 2, 3]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_not_finite_names_row_and_column(self, value):
        # A NaN used to make its column look constant (its ptp is NaN),
        # so the column was dropped without a word.
        x = np.array([[1.0, 2.0, 5.0], [value, 3.0, 6.0], [2.0, 4.0, value]])
        with pytest.raises(ValueError, match=r"drop_constant: x\[1, 0\] is "
                                             r"not finite"):
            drop_constant(x)


def _cv_rmse(x: np.ndarray, y: np.ndarray, folds, n_trees: int,
             max_depth: int, seed: int) -> float:
    """One candidate's score, one ``RandomForestModel`` per fold: the
    per-candidate scorer that ``sfs_forward`` must equal bit for bit."""
    errs = []
    for tr, va in folds:
        model = RandomForestModel(task="regression", n_trees=n_trees,
                                  max_depth=max_depth, seed=seed)
        model.fit(x[tr], y[tr])
        pred = model.predict(x[va])
        errs.append(np.mean((pred - y[va]) ** 2))
    return float(np.sqrt(np.mean(errs)))


def _sfs_brute_force(x, y, k_folds, n_trees, max_depth, seed,
                     max_features=None, max_rows=None):
    """Independent greedy driver re-evaluating every candidate subset with
    the per-candidate scorer; ties go to the lower feature index."""
    x, y = x[:max_rows], y[:max_rows]
    folds = ordered_kfold(len(x), k_folds)
    selected, curve = [], []
    remaining = list(range(x.shape[1]))
    while remaining and len(selected) != max_features:
        scored = [(_cv_rmse(x[:, selected + [f]], y, folds, n_trees,
                            max_depth, seed), f) for f in remaining]
        best_rmse = min(s for s, _ in scored)
        best_f = min(f for s, f in scored if s == best_rmse)
        selected.append(best_f)
        remaining.remove(best_f)
        curve.append(best_rmse)
    return selected, curve


class TestSfs:
    def test_matches_greedy_oracle_on_three_features(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        y = 2.0 * x[:, 1] + 0.3 * x[:, 0] + 0.05 * rng.normal(size=60)
        res = sfs_forward(x, y, k_folds=4, n_trees=10, max_depth=3, seed=0)
        order, curve = _sfs_brute_force(x, y, 4, 10, 3, 0)
        assert res.order == order
        assert res.cv_rmse == curve

    def test_informative_feature_first(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 4))
        y = 3.0 * x[:, 2] + 0.01 * rng.normal(size=80)
        res = sfs_forward(x, y, k_folds=4, n_trees=10, max_depth=3, seed=0)
        assert res.order[0] == 2

    def test_chosen_size_is_curve_argmin(self):
        res = SfsResult(order=[3, 1, 0, 2], cv_rmse=[0.9, 0.4, 0.5, 0.6])
        assert res.chosen_size == 2
        assert res.chosen == [3, 1]

    def test_chosen_size_tie_prefers_smaller(self):
        res = SfsResult(order=[1, 0], cv_rmse=[0.5, 0.5])
        assert res.chosen_size == 1

    def test_max_features_caps_steps(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 5))
        y = x[:, 0] + rng.normal(size=40)
        res = sfs_forward(x, y, k_folds=3, max_features=2, n_trees=5,
                          max_depth=3, seed=0)
        assert len(res.order) == 2
        assert len(res.cv_rmse) == 2

    def test_row_cap_uses_prefix(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] + 0.1 * rng.normal(size=50)
        capped = sfs_forward(x, y, k_folds=3, n_trees=5, max_depth=3,
                             seed=0, max_rows=30)
        direct = sfs_forward(x[:30], y[:30], k_folds=3, n_trees=5,
                             max_depth=3, seed=0)
        assert capped.order == direct.order
        assert capped.cv_rmse == pytest.approx(direct.cv_rmse)


@st.composite
def sfs_problems(draw):
    """Small SFS inputs with tied and repeated column values, 2-5 folds,
    1-4 steps and an optional row cap."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 2, 60))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    for f in range(d):
        kind = draw(st.sampled_from(["plain", "rounded", "few", "copy"]))
        if kind == "rounded":
            x[:, f] = np.round(x[:, f], 1)            # tied values
        elif kind == "few":
            x[:, f] = rng.integers(0, 3, n)           # heavy ties
        elif kind == "copy" and f:
            x[:, f] = x[:, f - 1]                     # repeated column
    if draw(st.booleans()) and n > 3:
        x[n // 2:] = x[:n - n // 2]                   # repeated rows
    y = x @ rng.normal(size=d) + rng.normal(0.0, 0.5, n)
    if draw(st.booleans()):
        y = np.round(y)                               # tied targets
    max_rows = draw(st.one_of(st.none(), st.integers(k, n)))
    return (x, y, k, draw(st.integers(1, 4)), draw(st.integers(1, 6)),
            draw(st.integers(1, 6)), seed % 1000, max_rows)


class TestSfsEquivalence:
    """``sfs_forward`` grows every candidate of a (step, fold) in one engine
    call; the per-candidate scorer is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(sfs_problems())
    def test_property_matches_per_candidate_oracle(self, problem):
        x, y, k, steps, n_trees, depth, seed, max_rows = problem
        res = sfs_forward(x, y, k_folds=k, max_features=steps,
                          n_trees=n_trees, max_depth=depth, seed=seed,
                          max_rows=max_rows)
        order, curve = _sfs_brute_force(x, y, k, n_trees, depth, seed,
                                        max_features=steps,
                                        max_rows=max_rows)
        assert res.order == order
        assert res.cv_rmse == curve

    def test_acceptance_shape_matches_oracle(self):
        # 15-tree forests of depth 5 on a few hundred rows, as at 42 km.
        rng = np.random.default_rng(12)
        x = np.round(rng.normal(size=(400, 6)), 2)
        y = x[:, 0] - 2.0 * x[:, 3] + rng.normal(size=400)
        res = sfs_forward(x, y, k_folds=5, max_features=3, n_trees=15,
                          max_depth=5, seed=42)
        order, curve = _sfs_brute_force(x, y, 5, 15, 5, 42, max_features=3)
        assert (res.order, res.cv_rmse) == (order, curve)


class TestSfsBadInput:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_target_not_finite_is_named(self, value):
        x = np.random.default_rng(0).normal(size=(20, 3))
        y = np.arange(20.0)
        y[7] = value
        with pytest.raises(ValueError, match=r"y\[7\] is not finite"):
            sfs_forward(x, y, k_folds=3, n_trees=2, max_depth=2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_feature_not_finite_names_row_and_column(self, value):
        x = np.random.default_rng(0).normal(size=(20, 3))
        x[11, 2] = value
        x[12, 0] = value
        with pytest.raises(ValueError, match=r"x\[11, 2\] is not finite"):
            sfs_forward(x, np.arange(20.0), k_folds=3, n_trees=2,
                        max_depth=2)

    @pytest.mark.parametrize("max_features", [0, -1])
    def test_no_steps_rejected(self, max_features):
        x = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(ValueError, match="max_features must be at "
                                             "least 1"):
            sfs_forward(x, np.arange(20.0), k_folds=3,
                        max_features=max_features)

    @pytest.mark.parametrize("x,y", [(np.zeros((5, 2)), np.zeros(4)),
                                     (np.zeros((5, 0)), np.zeros(5)),
                                     (np.zeros(5), np.zeros(5))])
    def test_bad_shapes_rejected(self, x, y):
        with pytest.raises(ValueError, match="one y per row"):
            sfs_forward(x, y, k_folds=2)


class TestPca:
    def test_components_orthonormal(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 6)) @ rng.normal(size=(6, 6))
        basis = pca_fit(x, 0.99)
        m = basis.components.shape[1]
        gram = basis.components.T @ basis.components
        assert np.allclose(gram, np.eye(m), atol=1e-8)

    def test_eigenvalue_ratios_match_svd_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        basis = pca_fit(x, 1.0)
        xc = x - x.mean(axis=0)
        s = np.linalg.svd(xc, compute_uv=False)
        expected = s ** 2 / np.sum(s ** 2)
        assert np.allclose(basis.explained_ratios, expected[:len(
            basis.explained_ratios)], atol=1e-9)

    def test_keeps_smallest_count_reaching_target(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 4)) * np.array([10.0, 1.0, 0.1, 0.01])
        basis = pca_fit(x, 0.99)
        ratios_all = pca_fit(x, 1.0).explained_ratios
        m = basis.components.shape[1]
        assert np.sum(ratios_all[:m]) >= 0.99
        assert m == 1 or np.sum(ratios_all[:m - 1]) < 0.99

    def test_transform_reproduces_variance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(100, 3))
        basis = pca_fit(x, 1.0)
        z = pca_transform(basis, x)
        total_in = np.var(x, axis=0).sum()
        total_out = np.var(z, axis=0).sum()
        assert total_out == pytest.approx(total_in)

    def test_full_basis_reconstructs(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 4))
        basis = pca_fit(x, 1.0)
        z = pca_transform(basis, x)
        back = z @ basis.components.T + basis.mean
        assert np.allclose(back, x, atol=1e-10)

    def test_deterministic_sign(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 3))
        b1 = pca_fit(x, 1.0)
        b2 = pca_fit(x.copy(), 1.0)
        assert np.array_equal(b1.components, b2.components)
        for j in range(b1.components.shape[1]):
            pivot = np.argmax(np.abs(b1.components[:, j]))
            assert b1.components[pivot, j] > 0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.full((10, 3), 2.0), 0.99)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.eye(3), 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_not_finite_names_row_and_column(self, value):
        # A NaN used to give a basis of NaNs without an error.
        x = np.random.default_rng(3).normal(size=(3, 2))
        x[2, 1] = value
        with pytest.raises(ValueError, match=r"pca_fit: x\[2, 1\] is not "
                                             r"finite"):
            pca_fit(x, 0.99)
