"""Bit-for-bit parity of the vectorised hot path against the loop references.

The vectorised :class:`~repro.nn.embedding.EmbeddingBag` and the bitmap
:func:`~repro.core.classifier.split_minibatch` replaced per-sample Python
loops and ``np.isin`` scans.  Hotline's Eq. 5 guarantee (µ-batch training is
numerically identical to mini-batch training) only survives the optimisation
if the new paths produce *exactly* the same bits, so every comparison here
is exact equality, not approximate.
"""

import numpy as np
import pytest

from repro.core.classifier import split_minibatch
from repro.core.hotset import HotSetIndex
from repro.data.batch import MiniBatch
from repro.nn.embedding import EmbeddingBag
from tests.oracle import (
    reference_backward,
    reference_forward,
    split_minibatch_reference,
)


def make_bag(rows=64, dim=8, seed=3):
    return EmbeddingBag(rows, dim, np.random.default_rng(seed))


def random_indices(batch, pooling, rows=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, rows, size=(batch, pooling), dtype=np.int64)


@pytest.mark.parametrize(
    "batch,pooling",
    [(1, 1), (7, 1), (32, 4), (5, 16), (0, 3), (4, 0)],
    ids=["single", "one-hot", "multi-hot", "wide-pool", "empty-batch", "zero-pooling"],
)
def test_embedding_forward_backward_parity(batch, pooling):
    bag = make_bag()
    indices = random_indices(batch, pooling)
    grad_output = np.random.default_rng(1).normal(size=(batch, bag.dim))

    out = bag.forward(indices)
    ref_out = reference_forward(bag.weight, indices)
    np.testing.assert_array_equal(out, ref_out)

    grad = bag.backward(grad_output)
    ref_grad = reference_backward(indices, grad_output, bag.dim)
    np.testing.assert_array_equal(grad.indices, ref_grad.indices)
    np.testing.assert_array_equal(grad.values, ref_grad.values)


def test_embedding_parity_with_heavy_index_collisions():
    """Shared rows across samples must accumulate in the same order."""
    bag = make_bag(rows=4)
    indices = random_indices(256, 8, rows=4, seed=9)
    grad_output = np.random.default_rng(2).normal(size=(256, bag.dim))

    np.testing.assert_array_equal(
        bag.forward(indices), reference_forward(bag.weight, indices)
    )
    grad = bag.backward(grad_output)
    ref_grad = reference_backward(indices, grad_output, bag.dim)
    np.testing.assert_array_equal(grad.indices, ref_grad.indices)
    np.testing.assert_array_equal(grad.values, ref_grad.values)


def make_minibatch(batch=64, tables=3, pooling=2, rows=32, seed=11):
    rng = np.random.default_rng(seed)
    return MiniBatch(
        dense=rng.normal(size=(batch, 4)),
        sparse=rng.integers(0, rows, size=(batch, tables, pooling), dtype=np.int64),
        labels=rng.integers(0, 2, size=batch).astype(np.float64),
    )


def assert_micro_batches_equal(a, b):
    np.testing.assert_array_equal(a.popular_mask, b.popular_mask)
    for micro_a, micro_b in ((a.popular, b.popular), (a.non_popular, b.non_popular)):
        np.testing.assert_array_equal(micro_a.dense, micro_b.dense)
        np.testing.assert_array_equal(micro_a.sparse, micro_b.sparse)
        np.testing.assert_array_equal(micro_a.labels, micro_b.labels)


@pytest.mark.parametrize("pooling", [1, 4], ids=["one-hot", "multi-hot"])
def test_split_minibatch_parity(pooling):
    batch = make_minibatch(pooling=pooling)
    rng = np.random.default_rng(7)
    hot_sets = [np.sort(rng.choice(32, size=20, replace=False)) for _ in range(3)]
    assert_micro_batches_equal(
        split_minibatch(batch, hot_sets), split_minibatch_reference(batch, hot_sets)
    )


def test_split_minibatch_parity_empty_hot_set():
    batch = make_minibatch()
    hot_sets = [np.arange(32), np.empty(0, dtype=np.int64), np.arange(32)]
    micro = split_minibatch(batch, hot_sets)
    assert_micro_batches_equal(micro, split_minibatch_reference(batch, hot_sets))
    assert micro.popular.size == 0


def test_split_minibatch_parity_empty_batch():
    batch = make_minibatch(batch=0)
    hot_sets = [np.arange(32)] * 3
    assert_micro_batches_equal(
        split_minibatch(batch, hot_sets), split_minibatch_reference(batch, hot_sets)
    )


def test_split_minibatch_accepts_prebuilt_index():
    batch = make_minibatch()
    rng = np.random.default_rng(13)
    hot_sets = [np.sort(rng.choice(32, size=12, replace=False)) for _ in range(3)]
    index = HotSetIndex(hot_sets, rows_per_table=(32, 32, 32))
    assert_micro_batches_equal(
        split_minibatch(batch, index), split_minibatch_reference(batch, hot_sets)
    )
