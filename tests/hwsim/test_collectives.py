"""Unit tests for the collective-communication cost models."""

import pytest

from repro.hwsim.collectives import (
    allreduce_time,
    alltoall_time,
    broadcast_time,
    hierarchical_allreduce_time,
)
from repro.hwsim.interconnect import INFINIBAND_100G, NVLINK2
from repro.hwsim.units import MB


def test_single_participant_is_free():
    assert allreduce_time(10 * MB, 1, NVLINK2) == 0.0
    assert alltoall_time(10 * MB, 1, NVLINK2) == 0.0
    assert broadcast_time(10 * MB, 1, NVLINK2) == 0.0


def test_zero_bytes_is_free():
    assert allreduce_time(0, 4, NVLINK2) == 0.0
    assert alltoall_time(0, 4, NVLINK2) == 0.0


def test_allreduce_grows_with_participants():
    assert allreduce_time(10 * MB, 8, NVLINK2) > allreduce_time(10 * MB, 2, NVLINK2)


def test_allreduce_ring_bandwidth_term():
    """For large messages the ring time approaches 2*(p-1)/p * bytes / bw."""
    num_bytes = 1000 * MB
    p = 4
    expected = 2 * (p - 1) / p * num_bytes / NVLINK2.bandwidth
    assert allreduce_time(num_bytes, p, NVLINK2) == pytest.approx(expected, rel=0.05)


def test_alltoall_cheaper_than_allreduce_per_byte():
    num_bytes = 100 * MB
    assert alltoall_time(num_bytes, 4, NVLINK2) < allreduce_time(num_bytes, 4, NVLINK2)


def test_alltoall_slower_over_infiniband_than_nvlink():
    """The Figure 5 effect: inter-node all-to-all dominates training time."""
    num_bytes = 50 * MB
    assert alltoall_time(num_bytes, 4, INFINIBAND_100G) > 5 * alltoall_time(
        num_bytes, 4, NVLINK2
    )


def test_broadcast_log_scaling():
    num_bytes = 10 * MB
    assert broadcast_time(num_bytes, 8, NVLINK2) == pytest.approx(
        3 * (NVLINK2.latency_s + num_bytes / NVLINK2.bandwidth)
    )


def test_hierarchical_allreduce_adds_inter_node_cost():
    num_bytes = 20 * MB
    single_node = allreduce_time(num_bytes, 4, NVLINK2)
    two_nodes = hierarchical_allreduce_time(num_bytes, 4, 2, NVLINK2, INFINIBAND_100G)
    assert two_nodes > single_node


def test_tree_allreduce_doubles_broadcast_hops():
    from repro.hwsim.collectives import broadcast_time, tree_allreduce_time

    link = NVLINK2
    assert tree_allreduce_time(1024, 1, link) == 0.0
    assert tree_allreduce_time(0, 8, link) == 0.0
    # Reduce up + broadcast down: twice the one-way tree traversal.
    assert tree_allreduce_time(1 << 20, 8, link) == pytest.approx(
        2.0 * broadcast_time(1 << 20, 8, link)
    )


def test_embedding_alltoall_prices_forward_and_backward():
    from repro.hwsim.collectives import alltoall_time, embedding_alltoall_time

    link = NVLINK2
    rows, row_bytes, p = 4096, 256.0, 4
    expected = 2.0 * alltoall_time(rows * row_bytes / p, p, link)
    assert embedding_alltoall_time(rows, row_bytes, p, link) == pytest.approx(expected)
    assert embedding_alltoall_time(0, row_bytes, p, link) == 0.0
    assert embedding_alltoall_time(rows, row_bytes, 1, link) == 0.0
    # In the bandwidth-bound regime, more participants spread the same
    # remote volume across more injectors (at tiny payloads the per-hop
    # latency term dominates instead).
    many_rows = 1 << 24
    assert embedding_alltoall_time(many_rows, row_bytes, 8, link) < (
        embedding_alltoall_time(many_rows, row_bytes, 4, link)
    )


def test_cache_fill_time_prices_alltoall_plus_dma():
    from repro.hwsim.collectives import cache_fill_time, embedding_alltoall_time
    from repro.hwsim.dma import DMAEngine

    link = NVLINK2
    rows, row_bytes, p = 2048, 128.0, 4
    dma = DMAEngine()
    priced = cache_fill_time(rows, row_bytes, p, link, dma=dma)
    # The round-trip all-to-all with the owners plus the host-DRAM gather.
    assert priced == pytest.approx(
        embedding_alltoall_time(rows, row_bytes, p, link)
        + DMAEngine().read_time(rows * row_bytes)
    )
    assert dma.bytes_read == rows * row_bytes  # the live engine tracked it
    # Degenerate inputs price to zero; one replica still pays the DMA term.
    assert cache_fill_time(0, row_bytes, p, link) == 0.0
    assert cache_fill_time(rows, 0.0, p, link) == 0.0
    solo = cache_fill_time(rows, row_bytes, 1, link)
    assert solo == pytest.approx(DMAEngine().read_time(rows * row_bytes))
