"""Cost models for collective communication (all-reduce, all-to-all, ...).

The hybrid and GPU-only baselines rely heavily on collectives:

* data-parallel dense layers synchronise gradients with an **all-reduce**
  (ring algorithm over NVLink within a node, over InfiniBand across nodes);
* model-parallel embeddings in the GPU-only mode exchange looked-up rows
  with an **all-to-all** every iteration (Figure 1b), which the paper shows
  grows to >50 % of multi-node training time (Figure 5).

Hotline eliminates the embedding all-to-all entirely.
"""

from __future__ import annotations

import math

from repro.hwsim.dma import DMAEngine
from repro.hwsim.interconnect import Link


def allreduce_time(num_bytes: float, participants: int, link: Link) -> float:
    """Ring all-reduce time for ``num_bytes`` across ``participants`` devices.

    Uses the standard 2*(p-1)/p bandwidth term plus 2*(p-1) latency hops.
    """
    if participants <= 1 or num_bytes <= 0:
        return 0.0
    p = participants
    bandwidth_term = 2.0 * (p - 1) / p * num_bytes / link.bandwidth
    latency_term = 2.0 * (p - 1) * link.latency_s
    return bandwidth_term + latency_term


def alltoall_time(num_bytes_per_device: float, participants: int, link: Link) -> float:
    """All-to-all exchange where every device sends ``num_bytes_per_device``.

    Each device sends (p-1)/p of its payload to peers; with p-1 concurrent
    flows per device the bottleneck is each device's injection bandwidth.
    """
    if participants <= 1 or num_bytes_per_device <= 0:
        return 0.0
    p = participants
    bandwidth_term = (p - 1) / p * num_bytes_per_device / link.bandwidth
    latency_term = (p - 1) * link.latency_s
    return bandwidth_term + latency_term


def broadcast_time(num_bytes: float, participants: int, link: Link) -> float:
    """Tree broadcast of ``num_bytes`` from one device to all others."""
    if participants <= 1 or num_bytes <= 0:
        return 0.0
    hops = max(1, math.ceil(math.log2(participants)))
    return hops * (link.latency_s + num_bytes / link.bandwidth)


def tree_allreduce_time(num_bytes: float, participants: int, link: Link) -> float:
    """Binary-tree all-reduce: reduce up the tree, then broadcast back down.

    Latency-optimal for small payloads (NCCL switches to trees for small
    buffers and large rings for bandwidth-bound ones), which is why the
    bucketed gradient reducer offers it as an alternative to the ring.
    """
    return 2.0 * broadcast_time(num_bytes, participants, link)


def embedding_alltoall_time(
    num_remote_rows: float, row_bytes: float, participants: int, link: Link
) -> float:
    """Per-step all-to-all cost of remotely-owned embedding lookups.

    With row-wise partitioned tables (model parallelism), every lookup of a
    row owned by another shard is exchanged twice per iteration: the row
    travels to the consumer in the forward pass and its gradient travels
    back to the owner in the backward pass (Figure 1b — the traffic Hotline
    eliminates, priced here so hybrid-parallel runs can report it).  Remote
    rows are assumed evenly spread, so each device injects its ``1/p`` share.
    """
    if participants <= 1 or num_remote_rows <= 0 or row_bytes <= 0:
        return 0.0
    per_device_bytes = num_remote_rows * row_bytes / participants
    return 2.0 * alltoall_time(per_device_bytes, participants, link)


def cache_fill_time(
    num_rows: float,
    row_bytes: float,
    participants: int,
    link: Link,
    dma: DMAEngine | None = None,
) -> float:
    """Per-step cost of prefetching ``num_rows`` rows into a lookahead cache.

    BagPipe-style bounded-staleness training prefetches the embedding rows
    of upcoming batches into a per-replica cache.  Each filled row pays two
    terms:

    * the round-trip exchange with the row's owner — priced with
      :func:`embedding_alltoall_time` (the row travels in at fill time and
      its accumulated gradient travels back at write-back, the same 2x a
      remotely-owned lookup pays);
    * the **cache-fill DMA term** — the host-DRAM gather that materialises
      the scattered rows through the DMA engine before they can be pushed
      to the replicas.  Pass a live :class:`~repro.hwsim.dma.DMAEngine` to
      have its traffic counters track the fills; with ``None`` a transient
      engine prices the transfer without recording it.

    Single-replica runs pay no all-to-all but still pay the DMA gather.
    """
    if num_rows <= 0 or row_bytes <= 0:
        return 0.0
    engine = dma if dma is not None else DMAEngine()
    alltoall = embedding_alltoall_time(num_rows, row_bytes, participants, link)
    return alltoall + engine.read_time(num_rows * row_bytes, scattered=True)


def hierarchical_allreduce_time(
    num_bytes: float,
    gpus_per_node: int,
    nodes: int,
    intra_link: Link,
    inter_link: Link,
) -> float:
    """Two-level all-reduce: intra-node ring, then inter-node ring, then bcast.

    This matches how NCCL executes multi-node all-reduce on NVLink +
    InfiniBand systems and is what drives the Fig. 5 breakdown shape.
    """
    if num_bytes <= 0:
        return 0.0
    intra = allreduce_time(num_bytes, gpus_per_node, intra_link)
    inter = allreduce_time(num_bytes, nodes, inter_link)
    return intra + inter


def comm_op_time(op, links, dma: DMAEngine | None = None) -> float:
    """Price one :class:`~repro.core.schedule.CommOp` on a tiered topology.

    ``links`` is anything with a ``link(tier)`` method resolving a named
    tier to a :class:`Link` — a :class:`~repro.hwsim.cluster.Cluster`, a
    :class:`~repro.hwsim.cluster.HierarchicalTopology`, or the
    single-link :class:`~repro.core.schedule.FlatLinks` adapter.  Each
    kind dispatches to exactly one of this module's ``*_time`` primitives
    (or, for ``writeback``, one DMA write), so schedule-object pricing is
    bit-identical to calling the primitive directly.  ``dma`` threads a
    live engine through to the fill/write-back kinds so their traffic
    counters keep accumulating; with ``None`` a transient engine prices
    without recording.
    """
    kind = op.kind
    link = links.link(op.tier)
    if kind == "allreduce":
        return allreduce_time(op.num_bytes, op.participants, link)
    if kind == "tree_allreduce":
        return tree_allreduce_time(op.num_bytes, op.participants, link)
    if kind == "alltoall":
        return alltoall_time(op.num_bytes, op.participants, link)
    if kind == "broadcast":
        return broadcast_time(op.num_bytes, op.participants, link)
    if kind == "embedding_alltoall":
        return embedding_alltoall_time(op.rows, op.row_bytes, op.participants, link)
    if kind == "fill":
        return cache_fill_time(op.rows, op.row_bytes, op.participants, link, dma=dma)
    if kind == "writeback":
        num_bytes = op.rows * op.row_bytes
        if num_bytes <= 0:
            return 0.0
        engine = dma if dma is not None else DMAEngine()
        return engine.write_time(num_bytes, scattered=True)
    raise ValueError(f"unknown CommOp kind {kind!r}")
