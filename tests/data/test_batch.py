"""Unit tests for the MiniBatch container."""

import numpy as np
import pytest

from repro.data.batch import MiniBatch


def make_batch(n=8, tables=3, pooling=2, dense=4, seed=0):
    rng = np.random.default_rng(seed)
    return MiniBatch(
        dense=rng.normal(size=(n, dense)),
        sparse=rng.integers(0, 10, size=(n, tables, pooling)),
        labels=(rng.uniform(size=n) < 0.5).astype(float),
    )


def test_properties():
    batch = make_batch(n=8, tables=3, pooling=2)
    assert batch.size == 8
    assert batch.num_tables == 3
    assert batch.pooling == 2


def test_shape_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MiniBatch(rng.normal(size=(4,)), rng.integers(0, 5, size=(4, 2, 1)), np.zeros(4))
    with pytest.raises(ValueError):
        MiniBatch(rng.normal(size=(4, 2)), rng.integers(0, 5, size=(4, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        MiniBatch(rng.normal(size=(4, 2)), rng.integers(0, 5, size=(3, 2, 1)), np.zeros(4))


def test_select_preserves_alignment():
    batch = make_batch()
    subset = batch.select(np.array([1, 3]))
    assert subset.size == 2
    np.testing.assert_allclose(subset.dense[0], batch.dense[1])
    np.testing.assert_allclose(subset.labels[1], batch.labels[3])
