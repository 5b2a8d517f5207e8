"""Reduction machinery: the accelerator Reducer and the gradient collectives.

Two kinds of reduction live here:

* :class:`Reducer` — Section V-D of the paper: a simple array of arithmetic
  units (16 in the paper's configuration, Table IV) that performs the
  sparse-length element-wise sum, pooling multiple fetched embedding rows
  into a single per-sample vector stored in the Embedding Vector Buffer.
  Functionally this is the EmbeddingBag sum (:mod:`repro.nn.embedding`);
  the class is its cycle model, used by the accelerator's timing estimates.

* The **gradient collectives** used by the K-shard trainer
  (:mod:`repro.core.distributed`):

  - :class:`GradientBucketReducer` models the all-reduce of the flattened
    dense gradient across K shards.  The trainer accumulates every
    µ-batch's partial in the model's layers in shard-major order, which is
    the association a ring all-reduce produces;
    :meth:`GradientBucketReducer.reduce` is that ring chain over a list,
    ``((g0 + g1) + g2) + ...``.  The association depends only on a
    partial's position, so the reduced value is bit-identical however
    elements are packed into buckets — what the permutation/bucket-size
    invariance property suite asserts.
    Buckets (fixed-size wire-byte ranges) govern the *communication model*
    only: each bucket is priced as a ring all-reduce with
    :mod:`repro.hwsim.collectives` and the ``mode`` knob decides how much
    of that time is exposed (``sync`` = serial after backward, ``overlap``
    = buckets pipeline behind backward as they become ready, ``stale-k``
    = a k-deep pipeline of in-flight reduces: each reduce has k compute
    windows to hide in and the update lands k steps late; ``stale-0`` ≡
    ``sync``, ``stale-1`` is the PR 3 one-step-late mode).

  - :class:`SparseGradientExchange` merges the per-µ-batch sparse-gradient
    partials of every shard — each one flat-keyed gradient over every
    table (see :mod:`repro.nn.embedding`) — with one merge in a single
    deterministic ``(shard, µ-batch)`` order, the accumulation a
    parameter-less embedding all-reduce performs, and, when a
    :class:`~repro.core.placement.PartitionedEmbeddingPlacement` is
    attached, can route the merged keys to their owner shards.

  Both collectives preserve the gradient dtype end-to-end (float32 stays
  float32); mixed-dtype partials are rejected rather than silently upcast.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from repro.core.schedule import CommOp, StepSchedule, allreduce_ops
from repro.hwsim.cluster import Cluster
from repro.hwsim.collectives import comm_op_time
from repro.nn.embedding import SparseGradient, merge_sparse_gradients


class Reducer:
    """Cycle model of the sparse-length-sum pooling unit."""

    def __init__(self, num_alus: int = 16, lanes_per_alu: int = 16):
        if num_alus <= 0 or lanes_per_alu <= 0:
            raise ValueError("ALU count and lane width must be positive")
        self.num_alus = num_alus
        self.lanes_per_alu = lanes_per_alu

    def cycles_for(self, num_rows: int, dim: int) -> int:
        """Accelerator cycles to pool ``num_rows`` rows of width ``dim``.

        Each ALU adds ``lanes_per_alu`` elements per cycle; the ALUs work on
        independent rows/segments in parallel.
        """
        if num_rows <= 0 or dim <= 0:
            return 0
        element_ops = num_rows * dim
        ops_per_cycle = self.num_alus * self.lanes_per_alu
        return -(-element_ops // ops_per_cycle)  # ceil division


# ---------------------------------------------------------------------- #
# Gradient collectives (K-shard training)
# ---------------------------------------------------------------------- #

def parse_staleness(mode: str) -> int:
    """Bounded-staleness depth ``k`` encoded by a reducer mode string.

    ``"sync"`` and ``"overlap"`` carry no staleness (``0``); ``"stale-<k>"``
    carries ``k``.  Raises :class:`ValueError` for anything else, making
    this the single mode validator of the reducer family.
    """
    if mode in ("sync", "overlap"):
        return 0
    if mode.startswith("stale-"):
        suffix = mode[len("stale-") :]
        if suffix.isdigit():
            return int(suffix)
    raise ValueError(
        f"mode must be 'sync', 'overlap', or 'stale-<k>' with integer k >= 0, got {mode!r}"
    )

#: Bytes each gradient element occupies on the simulated wire (fp32, the
#: convention of ``TrainingCostModel.dense_allreduce_time``) — the itemsize
#: of the functional gradient arrays, which are the training dtype.
WIRE_BYTES_PER_ELEMENT = 4


@dataclass(frozen=True)
class GradientBucketReducer:
    """Deterministic bucketed all-reduce of flattened dense gradients.

    Frozen: a run is priced against one configuration, and a different
    mode, bucket size or cluster is a new reducer (and a new trainer).

    Args:
        num_replicas: Number of participating data-parallel replicas.
        bucket_bytes: Fixed bucket size in *wire* bytes (fp32 convention, 4
            bytes per gradient element).  The default of 4 MiB matches
            PyTorch DDP's gradient-bucketing default; gradients smaller than
            one bucket degenerate to a single all-reduce.
        mode: ``"sync"`` (communication fully exposed after backward),
            ``"overlap"`` (buckets pipeline behind backward as they become
            ready, only the un-hidden tail is exposed), or ``"stale-<k>"``
            (a k-deep pipeline of in-flight reduces: each step's reduce may
            hide under the next ``k`` compute windows and the trainer
            applies the reduced gradient ``k`` steps late; ``stale-0`` is
            exactly ``sync``, ``stale-1`` the original one-step-late mode).
        cluster: Hardware topology pricing the per-bucket wire time.  When
            ``None``, all timing queries report zero (numeric-only use).

    Attributes:
        staleness: Bounded-staleness depth ``k`` of the mode (0 for
            sync/overlap), derived from ``mode``.
    """

    num_replicas: int
    _: KW_ONLY
    bucket_bytes: int = 4 * 1024 * 1024
    mode: str = "sync"
    cluster: Cluster | None = None
    staleness: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        if self.bucket_bytes < WIRE_BYTES_PER_ELEMENT:
            raise ValueError("bucket_bytes must hold at least one gradient element")
        object.__setattr__(self, "bucket_bytes", int(self.bucket_bytes))
        object.__setattr__(self, "staleness", parse_staleness(self.mode))

    # ------------------------------------------------------------------ #
    # Bucket layout
    # ------------------------------------------------------------------ #
    @property
    def elements_per_bucket(self) -> int:
        """Gradient elements per bucket at the fp32 wire convention."""
        return max(1, self.bucket_bytes // WIRE_BYTES_PER_ELEMENT)

    def bucket_slices(self, num_elements: int) -> list[slice]:
        """Contiguous element ranges of each bucket for a flat gradient."""
        if num_elements <= 0:
            return []
        step = self.elements_per_bucket
        return [
            slice(start, min(start + step, num_elements))
            for start in range(0, num_elements, step)
        ]

    # ------------------------------------------------------------------ #
    # Numeric reduction
    # ------------------------------------------------------------------ #
    def reduce(self, partials: list[np.ndarray]) -> np.ndarray:
        """Ring sum of a list of gradient partials, ``((g0 + g1) + g2) + ...``.

        The per-element association is fixed by each partial's position —
        never by the bucket layout — so the result is bit-identical for
        any ``bucket_bytes`` and any permutation of the element packing
        (the property suite asserts both).  The input dtype is preserved
        end-to-end; mixed dtypes are rejected rather than silently
        promoted.
        """
        if not partials:
            raise ValueError("at least one partial gradient is required")
        arrays = [np.asarray(partial) for partial in partials]
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("all partial gradients must share one shape")
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) > 1:
            raise ValueError(
                "all partial gradients must share one dtype; mixed dtypes drift "
                f"precision silently (got {sorted(map(str, dtypes))})"
            )
        total = arrays[0].copy()
        for array in arrays[1:]:
            total += array
        return total

    # ------------------------------------------------------------------ #
    # Simulated timing
    # ------------------------------------------------------------------ #
    def bucket_comm_ops(self, num_bytes: float) -> tuple[CommOp, ...]:
        """Tiered :class:`~repro.core.schedule.CommOp` decomposition of one
        bucket's all-reduce on the attached cluster.

        With no cluster (numeric-only use) or a single replica, nothing
        moves.  Otherwise the decomposition follows the topology — one op
        on a single node, intra+inter on a flat multi-node cluster, three
        levels on a :class:`~repro.hwsim.cluster.HierarchicalTopology`;
        every level is a ring.
        """
        if self.cluster is None or self.num_replicas <= 1:
            return ()
        return allreduce_ops(self.cluster, num_bytes, self.num_replicas)

    def _bucket_wire_time(self, num_bytes: float) -> float:
        """Wire time of one bucket's all-reduce on the attached cluster."""
        total = 0.0
        for op in self.bucket_comm_ops(num_bytes):
            total += comm_op_time(op, self.cluster)
        return total

    def bucket_times(self, num_elements: int) -> list[float]:
        """Per-bucket all-reduce wire times for a flat gradient.

        A zero-element (or negative) gradient has no buckets and therefore
        an empty — but well-defined — schedule; callers summing it get the
        correct ``0.0`` rather than an error.
        """
        return [
            self._bucket_wire_time((chunk.stop - chunk.start) * WIRE_BYTES_PER_ELEMENT)
            for chunk in self.bucket_slices(num_elements)
        ]

    def comm_schedule(self, bucket_times: list[float]) -> StepSchedule:
        """Wrap per-bucket wire times in the mode's schedule composition.

        ``sync`` (and its ``stale-0`` alias) maps to ``sequential``,
        ``overlap`` to ``overlap``, and ``stale-k`` with ``k > 0`` to
        ``staged(k)``.  The trainer exposes the schedule against its whole
        per-step compute window, an optimistic simplification for
        ``overlap``: buckets cannot really be reduced before backward
        begins.
        """
        if self.mode == "overlap":
            return StepSchedule.overlap(bucket_times, label="dense-allreduce")
        if self.staleness > 0:
            return StepSchedule.staged(
                bucket_times, self.staleness, label="dense-allreduce"
            )
        return StepSchedule.sequential(bucket_times, label="dense-allreduce")


class SparseGradientExchange:
    """Deterministic cross-shard merge (and routing) of sparse gradients.

    Embedding tables have no dense all-reduce: every shard contributes the
    per-µ-batch :class:`~repro.nn.embedding.SparseGradient` partials of its
    slice, each flat-keyed over every table, and the exchange merges them
    in one fixed ``(shard, µ-batch)`` order with a single
    :func:`~repro.nn.embedding.merge_sparse_gradients` — exactly the
    accumulation the merged-gradient reference performs (restricted to one
    key, the same adds in the same order as a per-table merge), which keeps
    the K-shard sparse update bit-identical to it.

    With a :class:`~repro.core.placement.PartitionedEmbeddingPlacement`
    attached, :meth:`route` splits a merged gradient key-wise by owner
    shard, the sparse-gradient all-to-all of hybrid data+model
    parallelism.

    Args:
        partition: Optional row-wise table partition for routing.
    """

    def __init__(self, partition=None):
        self.partition = partition
        #: Merged gradient rows of the most recent exchange.
        self.last_exchanged_rows: int = 0

    def exchange(self, partials: list[SparseGradient]) -> SparseGradient:
        """Merge the step's flat-keyed partials (already in deterministic
        order) into one gradient.

        The merge preserves the partials' value dtype (float32 gradients
        stay float32); partials that disagree on dtype are rejected.
        """
        dtypes = {partial.values.dtype for partial in partials}
        if len(dtypes) > 1:
            raise ValueError(f"sparse partials mix dtypes {sorted(map(str, dtypes))}")
        merged = merge_sparse_gradients(partials)
        self.last_exchanged_rows = merged.nnz
        return merged

    def route(self, grad: SparseGradient) -> list[SparseGradient]:
        """Split the merged gradient by owner shard (partitioned runs)."""
        if self.partition is None:
            raise RuntimeError("routing requires a PartitionedEmbeddingPlacement")
        return self.partition.route_gradient(grad)
