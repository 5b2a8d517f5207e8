"""Unit tests for the Reducer's cycle model and the gradient collectives."""

import dataclasses

import numpy as np
import pytest

from repro.core.reducer import Reducer


def test_cycle_model_scales_with_work():
    reducer = Reducer(num_alus=16, lanes_per_alu=16)
    assert reducer.cycles_for(0, 64) == 0
    one_row = reducer.cycles_for(1, 64)
    many_rows = reducer.cycles_for(100, 64)
    assert many_rows > one_row
    assert reducer.cycles_for(4, 64) == 1  # 256 element-ops fit one cycle


def test_invalid_configuration():
    with pytest.raises(ValueError):
        Reducer(num_alus=0)


# ---------------------------------------------------------------------- #
# GradientBucketReducer / SparseGradientExchange (multi-replica training)
# ---------------------------------------------------------------------- #
# Includes the dtype-drift regression suite: every reducer on the bucket
# path must preserve float32 end-to-end (the merge_sparse_gradients class
# of bug fixed in PR 1) and reject silently-promoting mixed-dtype inputs.

from repro.core.placement import PartitionedEmbeddingPlacement
from repro.core.reducer import (
    WIRE_BYTES_PER_ELEMENT,
    GradientBucketReducer,
    SparseGradientExchange,
    parse_staleness,
)
from repro.hwsim.cluster import multi_node, single_node
from repro.hwsim.collectives import allreduce_time, hierarchical_allreduce_time
from repro.nn.embedding import SparseGradient


def test_bucket_slices_cover_the_gradient_exactly():
    reducer = GradientBucketReducer(2, bucket_bytes=8 * WIRE_BYTES_PER_ELEMENT)
    slices = reducer.bucket_slices(20)
    assert [s.start for s in slices] == [0, 8, 16]
    assert [s.stop for s in slices] == [8, 16, 20]
    assert reducer.bucket_slices(0) == []


def test_ring_reduce_is_rank_major_chain_sum():
    reducer = GradientBucketReducer(2, bucket_bytes=4 * WIRE_BYTES_PER_ELEMENT)
    partials = [np.arange(10.0), np.ones(10), np.full(10, 0.5)]
    np.testing.assert_array_equal(
        reducer.reduce(partials), (partials[0] + partials[1]) + partials[2]
    )


def test_reduce_accepts_more_partials_than_replicas():
    """Per-(replica, µ-batch) partials: the count exceeds num_replicas."""
    reducer = GradientBucketReducer(2)
    partials = [np.ones(4) for _ in range(6)]
    np.testing.assert_array_equal(reducer.reduce(partials), np.full(4, 6.0))


def test_reduce_preserves_float32_end_to_end():
    """Regression: the bucket path must not drift float32 up to float64."""
    reducer = GradientBucketReducer(2, bucket_bytes=4 * WIRE_BYTES_PER_ELEMENT)
    partials = [np.linspace(0, 1, 11, dtype=np.float32) for _ in range(3)]
    assert reducer.reduce(partials).dtype == np.float32


def test_reduce_rejects_mixed_dtypes():
    reducer = GradientBucketReducer(2)
    with pytest.raises(ValueError, match="dtype"):
        reducer.reduce([np.ones(4, dtype=np.float32), np.ones(4, dtype=np.float64)])


def test_reduce_rejects_shape_mismatch_and_empty():
    reducer = GradientBucketReducer(2)
    with pytest.raises(ValueError):
        reducer.reduce([np.ones(4), np.ones(5)])
    with pytest.raises(ValueError):
        reducer.reduce([])


def test_reducer_validates_configuration():
    with pytest.raises(ValueError):
        GradientBucketReducer(0)
    with pytest.raises(ValueError):
        GradientBucketReducer(2, bucket_bytes=0)
    with pytest.raises(ValueError):
        GradientBucketReducer(2, mode="async")
    # The accepted mode family: the two named modes plus any stale-<k>.
    for mode in ("sync", "overlap", "stale-0", "stale-1", "stale-9"):
        assert GradientBucketReducer(2, mode=mode).mode == mode
    # The configuration is fixed at construction: a mid-run reassignment
    # raises instead of leaving the staleness and the pricing behind.
    reducer = GradientBucketReducer(4, mode="stale-2")
    for name, value in (("mode", "sync"), ("bucket_bytes", 1024), ("cluster", single_node(4))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(reducer, name, value)
    assert (reducer.mode, reducer.bucket_bytes, reducer.cluster) == ("stale-2", 4 << 20, None)
    assert reducer.staleness == 2


def test_stale_k_mode_family_parses_and_reports_staleness():
    """stale-<k> generalises stale-1: any integer depth k >= 0 is a mode."""
    assert parse_staleness("sync") == 0
    assert parse_staleness("overlap") == 0
    assert parse_staleness("stale-0") == 0
    assert parse_staleness("stale-1") == 1
    assert parse_staleness("stale-7") == 7
    for bad in ("stale-", "stale--1", "stale-x", "stale-1.5", "fresh-1"):
        with pytest.raises(ValueError):
            parse_staleness(bad)
    for mode, expected in (("sync", 0), ("overlap", 0), ("stale-0", 0), ("stale-4", 4)):
        assert GradientBucketReducer(2, mode=mode).staleness == expected


def test_stale_k_exposure_is_the_unhidden_remainder():
    """stale-k hides the wire time under k compute windows; the rest is paid."""
    cluster = single_node(4)
    kwargs = dict(bucket_bytes=64 * WIRE_BYTES_PER_ELEMENT, cluster=cluster)
    times = GradientBucketReducer(4, **kwargs).bucket_times(256)
    total = sum(times)
    window = total / 3.0
    for k, expected in ((0, total), (1, total - window), (2, total - 2 * window), (4, 0.0)):
        reducer = GradientBucketReducer(4, mode=f"stale-{k}", **kwargs)
        assert reducer.comm_schedule(times).exposed_time(window) == pytest.approx(expected)
    # stale-0 is sync bit for bit, whatever the window.
    sync = GradientBucketReducer(4, mode="sync", **kwargs).comm_schedule(times)
    alias = GradientBucketReducer(4, mode="stale-0", **kwargs).comm_schedule(times)
    for window in (0.0, total, 10 * total):
        assert alias.exposed_time(window) == sync.exposed_time(window)


def test_exposure_edge_cases_are_well_defined_zeros():
    """Zero-element gradients and zero compute windows must not surprise.

    These paths go live under stale-k (a k-deep pipeline may drain an
    empty or degenerate schedule), so they are pinned here.
    """
    cluster = single_node(4)
    for mode in ("sync", "overlap", "stale-0", "stale-1", "stale-3"):
        reducer = GradientBucketReducer(4, mode=mode, cluster=cluster)
        # A zero-element gradient has no buckets: empty — but defined —
        # schedule, zero exposure in every mode.
        assert reducer.bucket_times(0) == []
        schedule = reducer.comm_schedule(reducer.bucket_times(0))
        assert schedule.segments_s == ()
        assert schedule.exposed_time(0.0) == 0.0
        assert schedule.total_s == 0.0
        # A zero compute window exposes the full wire time in every mode
        # (nothing to hide behind).
        times = reducer.bucket_times(256)
        schedule = reducer.comm_schedule(times)
        assert schedule.exposed_time(0.0) == pytest.approx(sum(times))
        # Negative windows are rejected rather than silently "hiding" time.
        with pytest.raises(ValueError):
            schedule.exposed_time(-1.0)
    # Reducing zero-element partials round-trips the empty array.
    reduced = GradientBucketReducer(2).reduce([np.empty(0, dtype=np.float32)] * 3)
    assert reduced.shape == (0,)
    assert reduced.dtype == np.float32


def test_bucket_times_match_hwsim_collectives():
    cluster = single_node(4)
    reducer = GradientBucketReducer(
        4, bucket_bytes=64 * WIRE_BYTES_PER_ELEMENT, cluster=cluster
    )
    times = reducer.bucket_times(100)
    assert len(times) == 2
    assert times[0] == pytest.approx(
        allreduce_time(64 * 4.0, 4, cluster.node.gpu_link)
    )
    assert times[1] == pytest.approx(
        allreduce_time(36 * 4.0, 4, cluster.node.gpu_link)
    )
    # Multi-node ring goes hierarchical.
    wide = multi_node(2, 4)
    ring = GradientBucketReducer(8, cluster=wide)
    assert ring.bucket_times(10)[0] == pytest.approx(
        hierarchical_allreduce_time(40.0, 4, 2, wide.node.gpu_link, wide.inter_link)
    )
    # No cluster, or a single replica: the wire is free.
    assert GradientBucketReducer(1, cluster=cluster).bucket_times(10) == [0.0]
    assert GradientBucketReducer(4).bucket_times(10) == [0.0]


def test_exposed_time_modes():
    cluster = single_node(4)
    kwargs = dict(bucket_bytes=64 * WIRE_BYTES_PER_ELEMENT, cluster=cluster)
    sync = GradientBucketReducer(4, mode="sync", **kwargs)
    overlap = GradientBucketReducer(4, mode="overlap", **kwargs)
    stale = GradientBucketReducer(4, mode="stale-1", **kwargs)
    times = sync.bucket_times(256)
    compute = sum(times) * 10  # plenty of backward to hide behind
    assert sync.comm_schedule(times).exposed_time(compute) == pytest.approx(sum(times))
    assert stale.comm_schedule(times).exposed_time(compute) == 0.0
    hidden = overlap.comm_schedule(times).exposed_time(compute)
    assert 0.0 <= hidden < sum(times)
    # With no compute to hide behind, overlap degenerates to sync.
    assert overlap.comm_schedule(times).exposed_time(0.0) == pytest.approx(sum(times))


def test_exchange_preserves_dtype_and_order():
    exchange = SparseGradientExchange()
    partials = [
        SparseGradient(
            np.array([0, 2]), np.ones((2, 4), dtype=np.float32)
        ),
        SparseGradient(
            np.array([2, 5]), np.full((2, 4), 2.0, dtype=np.float32)
        ),
    ]
    merged = exchange.exchange(partials)
    assert merged.values.dtype == np.float32
    np.testing.assert_array_equal(merged.indices, [0, 2, 5])
    np.testing.assert_allclose(merged.values[1], np.full(4, 3.0))
    assert exchange.last_exchanged_rows == 3


def test_exchange_rejects_mixed_dtype_partials():
    exchange = SparseGradientExchange()
    partials = [
        SparseGradient(np.array([0]), np.ones((1, 4), dtype=np.float32)),
        SparseGradient(np.array([1]), np.ones((1, 4), dtype=np.float64)),
    ]
    with pytest.raises(ValueError, match="dtype"):
        exchange.exchange(partials)


def test_exchange_validates_table_count_and_routing():
    """One flat-keyed gradient covers every table, so the exchange has no
    table count left to check: an empty step merges to nothing.  Routing
    needs a partition and splits flat keys by owner."""
    exchange = SparseGradientExchange()
    assert exchange.exchange([]).nnz == 0
    assert exchange.last_exchanged_rows == 0
    with pytest.raises(RuntimeError):
        exchange.route(SparseGradient(np.array([0]), np.ones((1, 4))))
    partition = PartitionedEmbeddingPlacement(
        rows_per_table=(10, 10), num_shards=2, embedding_dim=4
    )
    # Keys 1 and 7 are table 0's rows; 13 and 17 are table 1's rows 3 and 7.
    routed = SparseGradientExchange(partition=partition).route(
        SparseGradient(np.array([1, 7, 13, 17]), np.ones((4, 4)))
    )
    assert [piece.indices.tolist() for piece in routed] == [[1, 13], [7, 17]]
