"""Unit tests for the dense and sparse optimisers."""

import numpy as np
import pytest

from repro.nn.embedding import EmbeddingBag, SparseGradient
from repro.nn.optim import SGD, Adagrad, SparseAdagrad, SparseSGD


def test_sgd_applies_learning_rate():
    param = np.ones(4)
    grad = np.full(4, 2.0)
    SGD(lr=0.1).step([(param, grad)])
    np.testing.assert_allclose(param, 1.0 - 0.2)


def test_sgd_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        SGD(lr=0.0)


def test_adagrad_shrinks_effective_lr_over_time():
    param = np.zeros(1)
    opt = Adagrad(lr=1.0)
    grad = np.ones(1)
    opt.step([(param, grad)])
    first_step = abs(param[0])
    before = param[0]
    opt.step([(param, grad)])
    second_step = abs(param[0] - before)
    assert second_step < first_step


def test_sparse_sgd_updates_only_selected_rows():
    bag = EmbeddingBag((8,), 4, np.random.default_rng(0))
    before = bag.weight.copy()
    grad = SparseGradient(np.array([2]), np.ones((1, 4)))
    SparseSGD(lr=0.5).step(bag, grad)
    np.testing.assert_allclose(bag.weight[2], before[2] - 0.5)
    np.testing.assert_allclose(bag.weight[0], before[0])


def test_sparse_adagrad_accumulates_per_row_state():
    bag = EmbeddingBag((8,), 4, np.random.default_rng(0))
    opt = SparseAdagrad(lr=1.0)
    grad = SparseGradient(np.array([1]), np.ones((1, 4)))
    before = bag.weight[1].copy()
    opt.step(bag, grad)
    first = np.abs(bag.weight[1] - before).max()
    before = bag.weight[1].copy()
    opt.step(bag, grad)
    second = np.abs(bag.weight[1] - before).max()
    assert second < first


def test_sparse_adagrad_runs_in_the_table_dtype():
    """A float32 table's update is float32 arithmetic throughout: the same
    bits as the update computed by hand in float32."""
    rng = np.random.default_rng(3)
    bag = EmbeddingBag((40, 24), 8, rng)
    assert bag.weight.dtype == np.float32
    opt = SparseAdagrad(lr=0.5)
    rows = np.arange(0, 64, 2)
    accum = np.zeros(64, dtype=np.float32)
    expected = bag.weight.copy()
    for _ in range(3):
        values = rng.standard_normal((rows.size, 8)).astype(np.float32)
        opt.step(bag, SparseGradient(rows, values))
        accum[rows] += (values * values).sum(axis=1)
        scale = 0.5 / (np.sqrt(accum[rows]) + 1e-10)
        expected[rows] -= scale[:, None] * values
    np.testing.assert_array_equal(bag.weight, expected)


def test_sparse_adagrad_empty_gradient_is_noop():
    bag = EmbeddingBag((8,), 4, np.random.default_rng(0))
    before = bag.weight.copy()
    SparseAdagrad(lr=1.0).step(
        bag, SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, 4)))
    )
    np.testing.assert_allclose(bag.weight, before)


def test_sparse_optimizers_reject_nonpositive_lr():
    with pytest.raises(ValueError):
        SparseSGD(lr=-1.0)
    with pytest.raises(ValueError):
        SparseAdagrad(lr=0.0)
