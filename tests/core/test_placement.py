"""Unit tests for the access-aware embedding placement."""

import numpy as np
import pytest

from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer
from repro.core.placement import EmbeddingPlacement
from repro.models.dlrm import DLRM


def make_placement(hot0=(0, 1, 2), hot1=(4,)):
    return EmbeddingPlacement(
        hot_sets=[np.array(hot0, dtype=np.int64), np.array(hot1, dtype=np.int64)],
        rows_per_table=(100, 50),
        embedding_dim=8,
        dtype_bytes=4,
    )


def test_row_accounting():
    placement = make_placement()
    assert placement.hot_rows_total == 4
    assert placement.cold_rows_total == 146
    assert placement.row_bytes == 32
    assert placement.gpu_bytes == 4 * 32
    assert placement.cpu_bytes == 146 * 32


def test_hot_and_cold_queries():
    placement = make_placement()
    assert placement.index.is_hot(0, 1)
    assert not placement.index.is_hot(0, 50)
    assert placement.index.contains(0, np.array([0, 1, 7])).tolist() == [True, True, False]


def test_out_of_range_hot_rows_rejected():
    with pytest.raises(ValueError):
        EmbeddingPlacement(
            hot_sets=[np.array([1000])], rows_per_table=(10,), embedding_dim=4
        )


def test_mismatched_table_count_rejected():
    with pytest.raises(ValueError):
        EmbeddingPlacement(hot_sets=[], rows_per_table=(10,), embedding_dim=4)


def test_the_eal_capacity_bounds_the_hot_set(tiny_model_config, tiny_loader):
    """No setting caps a placement's hot set: the EAL that finds it bounds it
    by its capacity, and there is no per-GPU budget to pass that would go
    unenforced."""
    model = DLRM(tiny_model_config, seed=0)
    eal = EALConfig(size_bytes=64, ways=4)
    accelerator = HotlineAccelerator(tiny_model_config.dataset.rows_per_table, eal_config=eal)
    trainer = HotlineTrainer(model, accelerator, sample_fraction=1.0)
    assert 0 < trainer.learning_phase(tiny_loader).hot_rows_total <= eal.num_entries == 32
    with pytest.raises(TypeError):
        HotlineTrainer(model, hbm_budget_bytes=1024)
    with pytest.raises(TypeError):
        EmbeddingPlacement(
            hot_sets=[np.array([1])], rows_per_table=(10,), embedding_dim=4, hbm_budget_bytes=1
        )


def test_update_hot_sets_applies_in_place_deltas():
    placement = make_placement(hot0=(0, 1, 2), hot1=(4,))
    index_before = placement.index
    new_hot = [np.array([1, 2, 9], dtype=np.int64), np.array([4, 10], dtype=np.int64)]
    assert placement.update_hot_sets(new_hot) is placement
    assert placement.index is index_before  # bitmaps updated, not rebuilt
    np.testing.assert_array_equal(placement.hot_sets[0], [1, 2, 9])
    np.testing.assert_array_equal(placement.hot_sets[1], [4, 10])
    assert placement.hot_rows_total == 5
    assert not placement.index.is_hot(0, 0)
    assert placement.index.is_hot(0, 9) and placement.index.is_hot(1, 10)


def test_update_hot_sets_validates_table_count():
    placement = make_placement()
    with pytest.raises(ValueError):
        placement.update_hot_sets([np.array([1])])


# ---------------------------------------------------------------------- #
# PartitionedEmbeddingPlacement (row-wise model parallelism)
# ---------------------------------------------------------------------- #

from repro.core.placement import PartitionedEmbeddingPlacement
from repro.nn.embedding import SparseGradient


def make_partition(rows=(100, 50), shards=4, dim=8):
    return PartitionedEmbeddingPlacement(
        rows_per_table=rows, num_shards=shards, embedding_dim=dim
    )


def test_partition_bounds_are_balanced_and_cover():
    partition = make_partition(rows=(10,), shards=3)
    assert partition.bounds(0).tolist() == [0, 3, 6, 10]
    ranges = [partition.owned_range(0, k) for k in range(3)]
    assert ranges == [(0, 3), (3, 6), (6, 10)]
    assert sum(hi - lo for lo, hi in ranges) == 10


def test_partition_owner_lookup_vectorised():
    partition = make_partition(rows=(10,), shards=2)
    owners = partition.owner_of(0, np.array([0, 4, 5, 9]))
    assert owners.tolist() == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        partition.owner_of(0, np.array([10]))


def test_partition_memory_accounting():
    partition = make_partition(rows=(100, 50), shards=4, dim=8)
    assert sum(partition.owned_row_count(k) for k in range(4)) == 150
    assert partition.shard_bytes(0) == partition.owned_row_count(0) * 8 * 4
    assert partition.num_tables == 2
    assert partition.row_bytes == 32


def test_partition_tables_smaller_than_shard_count():
    """A 2-row table over 4 shards: trailing shards own nothing."""
    partition = make_partition(rows=(2,), shards=4)
    counts = [partition.owned_range(0, k) for k in range(4)]
    assert [hi - lo for lo, hi in counts] == [0, 1, 0, 1]
    assert sum(hi - lo for lo, hi in counts) == 2


def test_partition_remote_lookup_count():
    partition = make_partition(rows=(10,), shards=2)
    # shard 0 owns rows [0, 5); lookups of 5..9 are remote to it.
    sparse = np.array([[[0, 5]], [[9, 2]]])  # (batch=2, tables=1, pooling=2)
    assert partition.remote_lookup_count(sparse, 0) == 2
    assert partition.remote_lookup_count(sparse, 1) == 2
    with pytest.raises(ValueError):
        partition.remote_lookup_count(np.zeros((2, 3)), 0)
    assert partition.remote_lookup_count(np.empty((0, 1, 2), dtype=np.int64), 0) == 0
    # A random block over tables of mixed sizes, one smaller than the
    # shard count, against a brute-force count through ``owner_of``.
    rows = (97, 3, 40, 1_000)
    partition = make_partition(rows=rows, shards=4)
    rng = np.random.default_rng(5)
    sparse = np.stack(
        [rng.integers(0, table_rows, size=(64, 3)) for table_rows in rows], axis=1
    )
    for shard in range(4):
        expected = sum(
            int(np.count_nonzero(partition.owner_of(table, sparse[:, table, :]) != shard))
            for table in range(len(rows))
        )
        assert partition.remote_lookup_count(sparse, shard) == expected


def test_partition_routes_merged_gradient_by_owner():
    partition = make_partition(rows=(10,), shards=2)
    grad = SparseGradient(np.array([0, 3, 5, 9]), np.arange(16.0).reshape(4, 4))
    routed = partition.route_gradient(grad)
    assert routed[0].indices.tolist() == [0, 3]
    assert routed[1].indices.tolist() == [5, 9]
    np.testing.assert_array_equal(routed[1].values, grad.values[2:])
    assert routed[0].values.dtype == grad.values.dtype
    # Flat keys over two tables (10 and 3 rows; keys 10-12 are table 1's
    # rows 0-2): each shard gets its range of every table, keys sorted.
    partition = make_partition(rows=(10, 3), shards=2)
    grad = SparseGradient(np.array([4, 5, 9, 10, 11, 12]), np.arange(24.0).reshape(6, 4))
    routed = partition.route_gradient(grad)
    assert routed[0].indices.tolist() == [4, 10]
    assert routed[1].indices.tolist() == [5, 9, 11, 12]
    np.testing.assert_array_equal(routed[0].values, grad.values[[0, 3]])
    np.testing.assert_array_equal(routed[1].values, grad.values[[1, 2, 4, 5]])


def test_partition_validates_configuration():
    with pytest.raises(ValueError):
        PartitionedEmbeddingPlacement(rows_per_table=(10,), num_shards=0, embedding_dim=4)
    with pytest.raises(ValueError):
        PartitionedEmbeddingPlacement(rows_per_table=(0,), num_shards=2, embedding_dim=4)
