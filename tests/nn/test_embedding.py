"""Unit tests for the table-batched EmbeddingBag, SparseGradient, and gradient merging."""

import numpy as np
import pytest

from repro.nn.embedding import EmbeddingBag, SparseGradient, merge_sparse_gradients
from repro.nn.init import FILL_ROWS


def make_bag(rows=(16,), dim=4, seed=0):
    return EmbeddingBag(rows, dim, np.random.default_rng(seed))


def test_forward_sums_selected_rows():
    bag = make_bag(rows=(16, 5))
    indices = np.array([[[0, 1], [4, 4]], [[2, 3], [0, 1]]])
    out = bag.forward(indices)
    assert out.shape == (2, 2, bag.dim)
    np.testing.assert_allclose(out[0, 0], bag.weight[0] + bag.weight[1])
    np.testing.assert_allclose(out[0, 1], bag.table(1)[4] + bag.table(1)[4])
    np.testing.assert_allclose(out[1, 0], bag.weight[2] + bag.weight[3])
    np.testing.assert_allclose(out[1, 1], bag.weight[16] + bag.weight[17])


def test_tables_are_views_of_one_weight_array():
    rows_per_table = (3, 1, FILL_ROWS + 2)
    bag = make_bag(rows=rows_per_table)
    assert bag.weight.shape == (sum(rows_per_table), bag.dim) and bag.num_tables == 3
    np.testing.assert_array_equal(bag.offsets, [0, 3, 4])
    for t, rows in enumerate(rows_per_table):
        assert bag.table(t).shape == (rows, bag.dim)
        assert np.shares_memory(bag.table(t), bag.weight)
    # Each table holds its whole-table float64 draw rounded to float32, in
    # table order, though the largest is drawn in blocks of FILL_ROWS.
    rng = np.random.default_rng(0)
    for t, rows in enumerate(rows_per_table):
        limit = 1.0 / np.sqrt(rows)
        draw = rng.uniform(-limit, limit, size=(rows, bag.dim)).astype(np.float32)
        assert bag.table(t).tobytes() == draw.tobytes()


def test_forward_zero_pooling_is_zero():
    bag = make_bag()
    out = bag.forward(np.empty((2, 1, 0), dtype=np.int64))
    assert out.shape == (2, 1, bag.dim)
    np.testing.assert_allclose(out, np.zeros((2, 1, bag.dim)))


def test_forward_empty_batch():
    bag = make_bag()
    out = bag.forward(np.empty((0, 1, 3), dtype=np.int64))
    assert out.shape == (0, 1, bag.dim)
    grad = bag.backward(np.empty((0, 1, bag.dim)))
    assert grad.nnz == 0


def test_forward_rejects_ragged_or_flat_input():
    bag = make_bag(rows=(16, 5))
    for bad in (np.array([0, 1, 2]), [[[0], [1, 2]]], np.zeros((2, 3, 1), dtype=np.int64)):
        with pytest.raises(ValueError):
            bag.forward(bad)


def test_backward_accumulates_shared_rows():
    bag = make_bag()
    bag.forward(np.array([[[5]], [[5]]]))
    grad = bag.backward(np.ones((2, 1, bag.dim)))
    assert grad.nnz == 1
    np.testing.assert_allclose(grad.values[0], 2.0 * np.ones(bag.dim))


def test_backward_multi_hot_repeats_gradient():
    bag = make_bag()
    bag.forward(np.array([[[1, 2, 3]]]))
    grad = bag.backward(np.full((1, 1, bag.dim), 3.0))
    assert set(grad.indices.tolist()) == {1, 2, 3}
    for row in grad.values:
        np.testing.assert_allclose(row, 3.0 * np.ones(bag.dim))


def test_backward_before_forward_raises():
    bag = make_bag()
    with pytest.raises(RuntimeError):
        bag.backward(np.ones((1, 1, bag.dim)))


def test_backward_batch_mismatch_raises():
    bag = make_bag()
    bag.forward(np.array([[[0]]]))
    with pytest.raises(ValueError):
        bag.backward(np.ones((2, 1, bag.dim)))


def test_backward_preserves_grad_dtype():
    bag = make_bag()
    bag.forward(np.array([[[1, 2]]]))
    grad = bag.backward(np.ones((1, 1, bag.dim), dtype=np.float32))
    assert grad.values.dtype == np.float32


def test_apply_sparse_update_only_touches_selected_rows():
    bag = make_bag(rows=(16, 5))
    before = bag.weight.copy()
    grad = SparseGradient(np.array([3, 17]), np.ones((2, bag.dim)))
    bag.apply_sparse_update(grad, lr=0.5)
    np.testing.assert_allclose(bag.weight[3], before[3] - 0.5)
    np.testing.assert_allclose(bag.table(1)[1], before[17] - 0.5)
    untouched = [i for i in range(bag.num_rows) if i not in (3, 17)]
    np.testing.assert_allclose(bag.weight[untouched], before[untouched])


def test_sparse_gradient_validates_shapes():
    with pytest.raises(ValueError):
        SparseGradient(np.array([1, 2]), np.ones((1, 4)))


def test_merge_sparse_gradients_adds_overlapping_rows():
    a = SparseGradient(np.array([1, 2]), np.ones((2, 3)))
    b = SparseGradient(np.array([2, 4]), 2.0 * np.ones((2, 3)))
    merged = merge_sparse_gradients([a, b])
    assert merged.indices.tolist() == [1, 2, 4]
    np.testing.assert_allclose(merged.values[1], 3.0 * np.ones(3))


def test_merge_sparse_gradients_all_empty():
    empty = SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, 3)))
    merged = merge_sparse_gradients([empty, empty])
    assert merged.nnz == 0


def test_merge_sparse_gradients_empty_preserves_dtype():
    """Regression: the empty case used to hardcode float64 values."""
    empty = SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.float32))
    merged = merge_sparse_gradients([empty, empty])
    assert merged.nnz == 0
    assert merged.values.dtype == np.float32
    assert merged.values.shape == (0, 3)


def test_parameter_count():
    bag = make_bag(rows=(10, 3), dim=4)
    assert bag.num_parameters == 52


def test_invalid_construction_raises():
    for rows, dim in (((0,), 4), ((4, 0), 4), ((), 4), ((4,), 0)):
        with pytest.raises(ValueError):
            EmbeddingBag(rows, dim, np.random.default_rng(0))
