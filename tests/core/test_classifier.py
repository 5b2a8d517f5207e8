"""Unit tests for mini-batch fragmentation into µ-batches (Eq. 3)."""

import numpy as np
import pytest

from repro.core.classifier import split_minibatch
from repro.data.batch import MiniBatch


def make_batch():
    rng = np.random.default_rng(0)
    return MiniBatch(
        dense=rng.normal(size=(6, 2)),
        sparse=np.array(
            [
                [[0], [0]],
                [[1], [0]],
                [[5], [0]],   # cold row 5 in table 0
                [[0], [9]],   # cold row 9 in table 1
                [[1], [1]],
                [[5], [9]],   # both cold
            ]
        ),
        labels=rng.integers(0, 2, size=6).astype(float),
    )


HOT = [np.array([0, 1]), np.array([0, 1])]


def test_partition_is_exact():
    batch = make_batch()
    micro = split_minibatch(batch, HOT)
    assert micro.popular.size + micro.non_popular.size == batch.size
    assert micro.sizes == (3, 3)


def test_popular_inputs_touch_only_hot_rows():
    micro = split_minibatch(make_batch(), HOT)
    for table, hot in enumerate(HOT):
        assert np.isin(micro.popular.sparse[:, table, :], hot).all()


def test_non_popular_inputs_touch_at_least_one_cold_row():
    micro = split_minibatch(make_batch(), HOT)
    for i in range(micro.non_popular.size):
        cold_somewhere = any(
            not np.isin(micro.non_popular.sparse[i, t, :], HOT[t]).all()
            for t in range(len(HOT))
        )
        assert cold_somewhere


def test_popular_fraction():
    batch = make_batch()
    micro = split_minibatch(batch, HOT)
    assert micro.popular_count / batch.size == pytest.approx(0.5)


def test_empty_hot_set_sends_everything_to_non_popular():
    batch = make_batch()
    micro = split_minibatch(batch, [np.empty(0, dtype=np.int64)] * 2)
    assert micro.popular.size == 0
    assert micro.non_popular.size == batch.size


def test_full_hot_set_sends_everything_to_popular():
    batch = make_batch()
    hot = [np.arange(10), np.arange(10)]
    micro = split_minibatch(batch, hot)
    assert micro.non_popular.size == 0
    assert micro.popular_count == batch.size


def test_wrong_hot_set_count_raises():
    with pytest.raises(ValueError):
        split_minibatch(make_batch(), [np.array([0])])


def test_mask_alignment_with_original_batch():
    batch = make_batch()
    micro = split_minibatch(batch, HOT)
    np.testing.assert_array_equal(
        batch.select(np.nonzero(micro.popular_mask)[0]).labels, micro.popular.labels
    )


def test_precomputed_mask_matches_inline_classification():
    """A valid precomputed mask short-circuits the bitmap pass without
    moving a bit — classify is pure."""
    batch = make_batch()
    inline = split_minibatch(batch, HOT)
    from repro.core.hotset import as_hot_set_index

    mask = as_hot_set_index(HOT).classify(batch.sparse)
    precomputed = split_minibatch(batch, HOT, mask=mask)
    np.testing.assert_array_equal(precomputed.popular_mask, inline.popular_mask)
    np.testing.assert_array_equal(precomputed.popular.labels, inline.popular.labels)
    # Even an all-wrong mask is honoured verbatim (validity is the
    # caller's contract) — proving the mask really bypasses the bitmaps.
    flipped = split_minibatch(batch, HOT, mask=~mask)
    np.testing.assert_array_equal(flipped.popular_mask, ~inline.popular_mask)


def test_wrong_shaped_mask_rejected():
    batch = make_batch()
    with pytest.raises(ValueError, match="mask"):
        split_minibatch(batch, HOT, mask=np.ones(batch.size + 1, dtype=bool))
