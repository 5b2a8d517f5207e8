"""Golden parity suite for the composable communication-schedule layer.

The schedule-object migration (``CommOp`` / ``StepSchedule`` /
``ComposedSchedule``) retired four bespoke pricing sites: the reducer's
inline ``_bucket_wire_time`` branches and exposure arithmetic, the
trainer's ``exposed + lookup_alltoall + exposed_prefetch`` composition,
and the lookahead cache's direct ``cache_fill_time`` / DMA write-back
calls.  Each retired formula is re-implemented *locally* here, from the
:mod:`repro.hwsim.collectives` primitives, and asserted **bit-equal**
(``==``, never ``approx``) against the schedule objects on fig30r/fig30s
shaped configurations — sync/overlap/stale-k modes, one and two nodes,
and the lookahead's fill/write-back pricing.  Unit tests of the schedule
layer itself (mode arithmetic, tier decomposition, pipeline makespan,
compact window refcounts) ride along.
"""

import numpy as np
import pytest

from repro.core.lookahead import CachedEmbeddingPipeline, WindowRefcounts
from repro.core.reducer import WIRE_BYTES_PER_ELEMENT, GradientBucketReducer
from repro.core.schedule import (
    CommOp,
    ComposedSchedule,
    FlatLinks,
    StepSchedule,
    allreduce_ops,
    pipeline_makespan,
)
from repro.hwsim import DMAEngine, HierarchicalTopology, multi_node, single_node
from repro.hwsim.collectives import (
    allreduce_time,
    cache_fill_time,
    comm_op_time,
    embedding_alltoall_time,
    hierarchical_allreduce_time,
)
from repro.hwsim.interconnect import INFINIBAND_100G, NVLINK2, PCIE_GEN3_X16


# --------------------------------------------------------------------- #
# Retired bespoke formulas, re-implemented locally as the golden truth
# --------------------------------------------------------------------- #
def legacy_bucket_wire_time(reducer: GradientBucketReducer, num_bytes: float) -> float:
    """The pre-migration ``GradientBucketReducer._bucket_wire_time`` (ring)."""
    if reducer.cluster is None or reducer.num_replicas <= 1:
        return 0.0
    node = reducer.cluster.node
    if reducer.cluster.num_nodes == 1:
        return allreduce_time(num_bytes, reducer.num_replicas, node.gpu_link)
    return hierarchical_allreduce_time(
        num_bytes,
        node.num_gpus,
        reducer.cluster.num_nodes,
        node.gpu_link,
        reducer.cluster.inter_link,
    )


def legacy_exposed_time(mode: str, staleness: int, bucket_times, compute: float) -> float:
    """The pre-migration ``GradientBucketReducer.exposed_time`` arithmetic."""
    if not bucket_times:
        return 0.0
    total = float(sum(bucket_times))
    if mode == "overlap":
        count = len(bucket_times)
        finish = 0.0
        for i, wire_time in enumerate(bucket_times):
            ready = compute * (i + 1) / count
            finish = max(ready, finish) + wire_time
        return max(0.0, finish - compute)
    if staleness > 0:
        return max(0.0, total - staleness * compute)
    return total


#: fig30r/fig30s-shaped configurations: replicas × topology × bucket size.
PARITY_CONFIGS = [
    (4, single_node(4), 64 * 1024),
    (4, single_node(4), 4 * 1024),
    (8, multi_node(2, 4), 64 * 1024),
    (16, multi_node(4, 4), 4 * 1024),
]

#: Dense-gradient sizes covering the sub-bucket and many-bucket regimes.
GRADIENT_ELEMENTS = [1, 1000, 333_333]

MODES = ["sync", "overlap", "stale-1", "stale-2", "stale-4"]


# A one-value parameter so the ring cases keep the test IDs they had while a
# tree algorithm was priced beside them.
@pytest.mark.parametrize("algorithm", ["ring"])
@pytest.mark.parametrize("replicas,cluster,bucket_bytes", PARITY_CONFIGS)
def test_bucket_times_bit_match_retired_pricing(replicas, cluster, bucket_bytes, algorithm):
    """Schedule-object wire pricing == the retired inline branches, bitwise."""
    reducer = GradientBucketReducer(replicas, bucket_bytes=bucket_bytes, cluster=cluster)
    for num_elements in GRADIENT_ELEMENTS:
        times = reducer.bucket_times(num_elements)
        assert len(times) == len(reducer.bucket_slices(num_elements))
        for chunk, priced in zip(reducer.bucket_slices(num_elements), times):
            num_bytes = (chunk.stop - chunk.start) * WIRE_BYTES_PER_ELEMENT
            assert priced == legacy_bucket_wire_time(reducer, num_bytes)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("replicas,cluster,bucket_bytes", PARITY_CONFIGS)
def test_exposed_time_bit_matches_retired_arithmetic(replicas, cluster, bucket_bytes, mode):
    """StepSchedule exposure == the retired mode arithmetic, bitwise."""
    reducer = GradientBucketReducer(
        replicas, bucket_bytes=bucket_bytes, mode=mode, cluster=cluster
    )
    for num_elements in GRADIENT_ELEMENTS:
        times = reducer.bucket_times(num_elements)
        total = float(sum(times))
        for compute in (0.0, total / 3.0, total, 2.5 * total):
            expected = legacy_exposed_time(mode, reducer.staleness, times, compute)
            assert reducer.comm_schedule(times).exposed_time(compute) == expected
        assert reducer.comm_schedule(reducer.bucket_times(num_elements)).total_s == total


def test_trainer_lane_composition_matches_retired_sum():
    """ComposedSchedule == the retired left-to-right exposure sum, bitwise."""
    cluster = single_node(4)
    reducer = GradientBucketReducer(4, bucket_bytes=4096, mode="overlap", cluster=cluster)
    bucket_times = reducer.bucket_times(50_000)
    remote_lookups, row_bytes, shards = 1234, 16, 4
    link = cluster.inter_link
    prefetch = 3.7e-4
    for compute in (0.0, 1e-4, 1e-2):
        # The retired trainer composition, term by term.
        exposed = legacy_exposed_time(reducer.mode, reducer.staleness, bucket_times, compute)
        lookup_alltoall = embedding_alltoall_time(remote_lookups, row_bytes, shards, link)
        exposed_prefetch = max(0.0, prefetch - compute)
        legacy = exposed + lookup_alltoall + exposed_prefetch

        alltoall_op = CommOp(
            "embedding_alltoall",
            tier="node",
            rows=float(remote_lookups),
            row_bytes=row_bytes,
            participants=shards,
        )
        comm = ComposedSchedule(
            (
                reducer.comm_schedule(bucket_times),
                StepSchedule.sequential(
                    (comm_op_time(alltoall_op, FlatLinks(link)),), label="lookup-alltoall"
                ),
                StepSchedule.staged((prefetch,), 1, label="prefetch"),
            )
        )
        assert comm.exposed_time(compute) == legacy
        lanes = dict(comm.lane_exposures(compute))
        assert lanes["dense-allreduce"] == exposed
        assert lanes["lookup-alltoall"] == lookup_alltoall
        assert lanes["prefetch"] == exposed_prefetch


def test_lookahead_fill_and_writeback_bit_match_retired_pricing():
    """The pipeline's fill/write-back ops == the direct primitive calls."""
    pipe = CachedEmbeddingPipeline(
        (500, 300),
        window=2,
        row_bytes=32,
        num_replicas=4,
        link=INFINIBAND_100G,
        dma=DMAEngine(),
    )
    reference = DMAEngine()
    for fills in (1, 17, 4096):
        assert pipe._fill_time(fills) == cache_fill_time(
            fills, 32, 4, INFINIBAND_100G, dma=reference
        )
    for rows in (1, 29, 1000):
        assert pipe._writeback_time(rows) == reference.write_time(
            rows * 32, scattered=True
        )
    # One pricing call per charge: the engines saw identical traffic.
    assert pipe.dma.bytes_read == reference.bytes_read
    assert pipe.dma.bytes_written == reference.bytes_written


# --------------------------------------------------------------------- #
# StepSchedule / ComposedSchedule unit behaviour
# --------------------------------------------------------------------- #
def test_schedule_mode_and_stage_validation():
    with pytest.raises(ValueError, match="mode"):
        StepSchedule(segments_s=(1.0,), mode="bogus")
    with pytest.raises(ValueError, match="stage"):
        StepSchedule.staged((1.0,), 0)
    with pytest.raises(ValueError, match="compute_window_s"):
        StepSchedule.sequential((1.0,)).exposed_time(-1.0)
    with pytest.raises(ValueError, match="kind"):
        CommOp("teleport")


def test_empty_schedule_exposes_zero_in_every_mode():
    for schedule in (
        StepSchedule.sequential(()),
        StepSchedule.overlap(()),
        StepSchedule.staged((), 3),
    ):
        assert schedule.exposed_time(0.0) == 0.0
        assert schedule.exposed_time(5.0) == 0.0
        assert schedule.total_s == 0.0


def test_sequential_exposes_total_regardless_of_window():
    schedule = StepSchedule.sequential((0.25, 0.5))
    assert schedule.exposed_time(0.0) == 0.75
    assert schedule.exposed_time(100.0) == 0.75


def test_staged_hides_k_windows():
    schedule = StepSchedule.staged((0.3, 0.3), 2)
    assert schedule.exposed_time(0.0) == pytest.approx(0.6)
    assert schedule.exposed_time(0.2) == pytest.approx(0.2)
    assert schedule.exposed_time(0.5) == 0.0


def test_overlap_exposes_only_the_tail():
    # Two equal segments, window 1.0: segment 0 ready at 0.5, done 0.9;
    # segment 1 ready at 1.0, done 1.4 -> 0.4 exposed.
    schedule = StepSchedule.overlap((0.4, 0.4))
    assert schedule.exposed_time(1.0) == pytest.approx(0.4)
    # No window: everything is exposed, in every mode.
    assert schedule.exposed_time(0.0) == pytest.approx(0.8)


def test_composed_schedule_totals_and_lanes():
    comm = ComposedSchedule(
        (
            StepSchedule.sequential((0.1,), label="a"),
            StepSchedule.staged((0.5,), 1, label="b"),
        )
    )
    assert comm.total_s == pytest.approx(0.6)
    assert comm.exposed_time(0.2) == pytest.approx(0.1 + 0.3)
    assert comm.lane_exposures(0.2) == (("a", 0.1), ("b", pytest.approx(0.3)))


def test_price_threads_each_op_through_comm_op_time():
    topo = HierarchicalTopology(gpus_per_nic=4, nics_per_node=2, num_nodes=4)
    ops = allreduce_ops(topo, 1 << 20, topo.total_gpus)
    schedule = StepSchedule.price(ops, topo, label="dense")
    assert schedule.segments_s == tuple(comm_op_time(op, topo) for op in ops)
    assert schedule.label == "dense"


# --------------------------------------------------------------------- #
# allreduce_ops tier decomposition
# --------------------------------------------------------------------- #
def test_allreduce_ops_trivial_cases():
    assert allreduce_ops(None, 1024, 8) == ()
    assert allreduce_ops(single_node(4), 1024, 1) == ()


def test_allreduce_ops_single_node_is_one_gpu_ring():
    (op,) = allreduce_ops(single_node(4), 1024, 4)
    assert (op.kind, op.tier, op.participants) == ("allreduce", "gpu", 4)


def test_allreduce_ops_flat_cluster_matches_hierarchical_allreduce():
    cluster = multi_node(3, 4)
    ops = allreduce_ops(cluster, 1 << 16, 12)
    assert [(op.tier, op.participants) for op in ops] == [("gpu", 4), ("node", 3)]
    total = sum(comm_op_time(op, cluster) for op in ops)
    assert total == hierarchical_allreduce_time(
        1 << 16, 4, 3, cluster.node.gpu_link, cluster.inter_link
    )


def test_allreduce_ops_hierarchical_three_levels():
    topo = HierarchicalTopology(gpus_per_nic=4, nics_per_node=2, num_nodes=8)
    ops = allreduce_ops(topo, 1024, topo.total_gpus, kind="tree_allreduce")
    assert [(op.kind, op.tier, op.participants) for op in ops] == [
        ("tree_allreduce", "gpu", 4),
        ("tree_allreduce", "nic", 2),
        ("tree_allreduce", "spine", 8),
    ]
    # A single NIC group per node skips the nic level.
    topo_single = HierarchicalTopology(gpus_per_nic=8, nics_per_node=1, num_nodes=8)
    assert [op.tier for op in allreduce_ops(topo_single, 1024, 64)] == ["gpu", "spine"]


def test_spine_link_derates_bandwidth_not_latency():
    topo = HierarchicalTopology(num_nodes=4, oversubscription=4.0)
    spine = topo.spine_link
    assert spine.bandwidth == INFINIBAND_100G.bandwidth / 4.0
    assert spine.latency_s == INFINIBAND_100G.latency_s
    # Non-blocking fabric: the spine *is* the leaf link.
    assert HierarchicalTopology(num_nodes=4).spine_link is INFINIBAND_100G


def test_topology_link_tiers():
    topo = HierarchicalTopology(num_nodes=2, oversubscription=2.0)
    assert topo.link("gpu") is NVLINK2
    assert topo.link("nic") is INFINIBAND_100G
    assert topo.link("node") is INFINIBAND_100G
    assert topo.link("pcie") is PCIE_GEN3_X16
    assert topo.link("spine").bandwidth == INFINIBAND_100G.bandwidth / 2.0
    with pytest.raises(ValueError, match="unknown link tier"):
        topo.link("carrier-pigeon")


# --------------------------------------------------------------------- #
# pipeline_makespan
# --------------------------------------------------------------------- #
def test_pipeline_makespan_fill_drain():
    assert pipeline_makespan(2.0, 4, 16) == (16 + 4 - 1) * 2.0
    assert pipeline_makespan(1.0, 1, 5) == 5.0  # depth 1: no bubble
    assert pipeline_makespan(1.0, 4, 0) == 0.0
    assert pipeline_makespan(1.0, 0, 5) == 0.0
    with pytest.raises(ValueError, match="stage_time_s"):
        pipeline_makespan(-1.0, 2, 2)


# --------------------------------------------------------------------- #
# WindowRefcounts (compact per-window reference counts)
# --------------------------------------------------------------------- #
def test_window_refcounts_enter_release_roundtrip():
    refs = WindowRefcounts()
    a = np.array([3, 7, 9], dtype=np.int64)
    b = np.array([7, 42], dtype=np.int64)
    np.testing.assert_array_equal(refs.enter(a), a)  # every key fills
    np.testing.assert_array_equal(refs.enter(b), [42])  # key 7 is cached
    assert refs.tracked_keys == 4  # {3, 7, 9, 42}
    # Releasing the first batch evicts only keys no other batch holds.
    gone = refs.release(a)
    np.testing.assert_array_equal(gone, np.array([3, 9], dtype=np.int64))
    assert refs.tracked_keys == 2  # {7, 42}
    gone = refs.release(b)
    np.testing.assert_array_equal(gone, b)
    assert refs.tracked_keys == 0
    assert refs.nbytes == 0


def test_window_refcounts_footprint_tracks_window_not_table():
    refs = WindowRefcounts()
    # Keys of a 10M-row table's first rows and a second table behind it.
    keys = np.concatenate([np.arange(0, 500), 10_000_000 + np.arange(0, 500)])
    refs.enter(keys.astype(np.int64))
    # int64 key + int32 count per *referenced* row — not 40 MB per table.
    assert refs.nbytes == keys.size * (8 + 4)
    refs.clear()
    assert refs.nbytes == 0


def test_window_refcounts_empty_arrays_are_noops():
    refs = WindowRefcounts()
    empty = np.empty(0, dtype=np.int64)
    assert refs.enter(empty).size == 0
    assert refs.release(empty).size == 0
    assert refs.nbytes == 0
