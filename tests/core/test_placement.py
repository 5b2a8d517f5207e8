"""Unit tests for the access-aware embedding placement."""

import numpy as np
import pytest

from repro.core.placement import EmbeddingPlacement


def make_placement(hot0=(0, 1, 2), hot1=(4,), budget=1 << 20):
    return EmbeddingPlacement(
        hot_sets=[np.array(hot0, dtype=np.int64), np.array(hot1, dtype=np.int64)],
        rows_per_table=(100, 50),
        embedding_dim=8,
        dtype_bytes=4,
        hbm_budget_bytes=budget,
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
    assert placement.is_hot(0, 1)
    assert not placement.is_hot(0, 50)
    hot, cold = placement.split_rows(0, np.array([0, 1, 7]))
    assert hot.tolist() == [0, 1]
    assert cold.tolist() == [7]


def test_split_rows_with_empty_hot_set():
    placement = EmbeddingPlacement(
        hot_sets=[np.empty(0, dtype=np.int64)],
        rows_per_table=(10,),
        embedding_dim=4,
    )
    hot, cold = placement.split_rows(0, np.array([1, 2]))
    assert hot.size == 0
    assert cold.tolist() == [1, 2]


def test_budget_check():
    assert make_placement(budget=1 << 20).fits_budget()
    assert not make_placement(budget=64).fits_budget()


def test_out_of_range_hot_rows_rejected():
    with pytest.raises(ValueError):
        EmbeddingPlacement(
            hot_sets=[np.array([1000])], rows_per_table=(10,), embedding_dim=4
        )


def test_mismatched_table_count_rejected():
    with pytest.raises(ValueError):
        EmbeddingPlacement(hot_sets=[], rows_per_table=(10,), embedding_dim=4)


def test_truncate_to_budget_keeps_most_accessed_rows():
    placement = make_placement(hot0=(0, 1, 2, 3), hot1=(0, 1), budget=4 * 32)
    counts = [np.zeros(100), np.zeros(50)]
    counts[0][[0, 1, 2, 3]] = [100, 90, 5, 1]
    counts[1][[0, 1]] = [80, 2]
    truncated = placement.truncate_to_budget(counts)
    assert truncated.hot_rows_total == 4
    assert truncated.fits_budget()
    assert 0 in truncated.hot_sets[0] and 1 in truncated.hot_sets[0]
    assert 0 in truncated.hot_sets[1]
    assert 3 not in truncated.hot_sets[0]


def test_truncate_noop_when_within_budget():
    placement = make_placement()
    counts = [np.ones(100), np.ones(50)]
    assert placement.truncate_to_budget(counts) is placement


def test_update_hot_sets_applies_in_place_deltas():
    placement = make_placement(hot0=(0, 1, 2), hot1=(4,))
    index_before = placement.index
    new_hot = [np.array([1, 2, 9], dtype=np.int64), np.array([4, 10], dtype=np.int64)]
    assert placement.update_hot_sets(new_hot) is placement
    assert placement.index is index_before  # bitmaps updated, not rebuilt
    np.testing.assert_array_equal(placement.hot_sets[0], [1, 2, 9])
    np.testing.assert_array_equal(placement.hot_sets[1], [4, 10])
    assert placement.hot_rows_total == 5
    assert not placement.is_hot(0, 0)
    assert placement.is_hot(0, 9) and placement.is_hot(1, 10)


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
    routed = partition.route_gradient(0, grad)
    assert routed[0].indices.tolist() == [0, 3]
    assert routed[1].indices.tolist() == [5, 9]
    np.testing.assert_array_equal(routed[1].values, grad.values[2:])
    # Routed values are views — dtype (and storage) preserved.
    assert routed[0].values.dtype == grad.values.dtype


def test_partition_validates_configuration():
    with pytest.raises(ValueError):
        PartitionedEmbeddingPlacement(rows_per_table=(10,), num_shards=0, embedding_dim=4)
    with pytest.raises(ValueError):
        PartitionedEmbeddingPlacement(rows_per_table=(0,), num_shards=2, embedding_dim=4)


# --------------------------------------------------------------------- #
# HybridEmbeddingLayout (hot replicated x cold partitioned)
# --------------------------------------------------------------------- #

from repro.core.placement import HybridEmbeddingLayout


def make_hybrid(hot0=(0, 1, 2), hot1=(4,), shards=2, budget=1 << 20):
    placement = EmbeddingPlacement(
        hot_sets=[np.array(hot0, dtype=np.int64), np.array(hot1, dtype=np.int64)],
        rows_per_table=(100, 50),
        embedding_dim=8,
        dtype_bytes=4,
        hbm_budget_bytes=budget,
    )
    partition = PartitionedEmbeddingPlacement(
        rows_per_table=(100, 50), num_shards=shards, embedding_dim=8
    )
    return HybridEmbeddingLayout(placement=placement, partition=partition)


def test_hybrid_shard_bytes_replicates_hot_and_partitions_cold():
    hybrid = make_hybrid()
    # Shard 0 owns rows [0, 50) of table 0 (3 hot inside) and [0, 25) of
    # table 1 (row 4 hot inside): 50 - 3 + 25 - 1 = 71 cold rows.
    assert hybrid.owned_cold_row_count(0) == 71
    # Shard 1's owned ranges contain no hot rows: 50 + 25 cold rows.
    assert hybrid.owned_cold_row_count(1) == 75
    row_bytes = hybrid.row_bytes
    assert hybrid.shard_bytes(0) == 4 * row_bytes + 71 * row_bytes
    assert hybrid.shard_bytes(1) == 4 * row_bytes + 75 * row_bytes
    # Every row has exactly one cold home or is replicated: totals add up.
    total_cold = sum(hybrid.owned_cold_row_count(k) for k in range(2))
    assert total_cold == 150 - 4


def test_hybrid_unsorted_hot_sets_count_correctly():
    hybrid = make_hybrid(hot0=(2, 0, 1))  # construction order is the user's
    assert hybrid.owned_cold_row_count(0) == 71


def test_hybrid_fits_budget_uses_max_shard():
    row_bytes = 8 * 4
    assert make_hybrid(budget=(4 + 75) * row_bytes).fits_budget()
    assert not make_hybrid(budget=(4 + 74) * row_bytes).fits_budget()


def test_hybrid_remote_lookups_are_cold_only():
    hybrid = make_hybrid()
    # Table 0: shard 0 owns [0, 50).  Row 1 is hot (never remote), row 60
    # is cold+remote to shard 0, row 10 is cold+local to shard 0.
    sparse = np.array([[[1, 60], [4, 4]], [[10, 99], [30, 30]]])
    assert hybrid.remote_cold_lookup_count(sparse, 0) == 4  # 60, 99, 30, 30
    # The plain partition charges the hot lookups too.
    assert hybrid.partition.remote_lookup_count(sparse, 0) >= 4
    with pytest.raises(ValueError):
        hybrid.remote_cold_lookup_count(np.zeros((2, 3)), 0)
    assert hybrid.remote_cold_lookup_count(np.empty((0, 2, 1), dtype=np.int64), 0) == 0


def test_hybrid_route_gradient_splits_replicated_from_owned():
    hybrid = make_hybrid()
    grad = SparseGradient(np.array([0, 2, 10, 60]), np.arange(16.0).reshape(4, 4))
    hot_grad, per_owner = hybrid.route_gradient(0, grad)
    assert hot_grad.indices.tolist() == [0, 2]
    assert per_owner[0].indices.tolist() == [10]
    assert per_owner[1].indices.tolist() == [60]
    np.testing.assert_array_equal(hot_grad.values, grad.values[[0, 1]])
    np.testing.assert_array_equal(per_owner[1].values, grad.values[3:])


def test_hybrid_validates_matching_layouts():
    placement = EmbeddingPlacement(
        hot_sets=[np.array([0], dtype=np.int64)],
        rows_per_table=(10,),
        embedding_dim=8,
    )
    partition = PartitionedEmbeddingPlacement(
        rows_per_table=(20,), num_shards=2, embedding_dim=8
    )
    with pytest.raises(ValueError):
        HybridEmbeddingLayout(placement=placement, partition=partition)
    partition = PartitionedEmbeddingPlacement(
        rows_per_table=(10,), num_shards=2, embedding_dim=4
    )
    with pytest.raises(ValueError):
        HybridEmbeddingLayout(placement=placement, partition=partition)
