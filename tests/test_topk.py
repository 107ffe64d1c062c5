import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadroughness.models.neighbors import KnnModel, nearest_neighbours
from roadroughness.topk import smallest_k


@st.composite
def tied_rows(draw):
    """Rows over a few distinct values (heavy ties), with NaN and -0.0."""
    n_rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.nan,
                                          np.inf, 1e-300]),
                         min_size=1, max_size=4))
    idx = draw(st.lists(st.integers(0, len(pool) - 1),
                        min_size=n_rows * n, max_size=n_rows * n))
    values = np.array([pool[i] for i in idx]).reshape(n_rows, n)
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(0, n + 2)))
    return values, k


def stable_prefix(values, k):
    return np.argsort(values, axis=-1, kind="stable")[..., :k]


@settings(max_examples=300, deadline=None)
@given(tied_rows())
def test_smallest_k_equals_stable_argsort_prefix(case):
    values, k = case
    got = smallest_k(values, k)
    assert got.dtype == np.intp
    assert np.array_equal(got, stable_prefix(values, k))
    assert np.array_equal(smallest_k(values[0], k), stable_prefix(values[0], k))


def test_smallest_k_tie_at_kth_value_goes_to_lower_index():
    values = np.array([3.0, 1.0, 2.0, 2.0, 0.0, 2.0, 2.0])
    assert list(smallest_k(values, 3)) == [4, 1, 2]
    assert list(smallest_k(values, 5)) == [4, 1, 2, 3, 5]
    assert list(smallest_k(values, 7)) == [4, 1, 2, 3, 5, 6, 0]


def test_smallest_k_edge_sizes():
    assert smallest_k(np.zeros((3, 5)), 0).shape == (3, 0)
    assert smallest_k(np.zeros(0), 4).shape == (0,)
    assert list(smallest_k(np.array([2.0, 1.0]), 9)) == [1, 0]
    with pytest.raises(ValueError):
        smallest_k(np.zeros(3), -1)


@st.composite
def point_sets(draw):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(-2, 2), min_size=n * d,
                           max_size=n * d))
    x = np.array(coords, dtype=float).reshape(n, d) * 0.5  # many ties
    k = draw(st.integers(1, n - 1))
    return x, k


@settings(max_examples=150, deadline=None)
@given(point_sets(), st.booleans())
def test_knn_indices_equal_argsort_oracle(case, exclude_self):
    x, k = case
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    first = 1 if exclude_self else 0
    expected = np.argsort(d2, axis=1, kind="stable")[:, first:first + k]
    assert np.array_equal(nearest_neighbours(x, x, first + k)[:, first:],
                          expected)


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_knn_predict_equals_argsort_oracle(case):
    x, k = case
    y = np.arange(len(x)) % 3
    q = x[::-1] + 0.25
    d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    vals = y[np.argsort(d2, axis=1, kind="stable")[:, :k]].astype(float)
    reg = KnnModel(k=k, task="regression").fit(x, y).predict(q)
    assert np.array_equal(reg, vals.mean(axis=1))
    cls = KnnModel(k=k, task="classification").fit(x, y).predict(q)
    assert np.array_equal(cls, [np.argmax(np.bincount(r, minlength=3))
                                for r in vals.astype(int)])
