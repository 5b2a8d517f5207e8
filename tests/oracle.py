"""The test oracle: every reference implementation production is checked against.

Production code under ``src/`` keeps exactly one path per capability.  The
slower, simpler implementations those paths must reproduce bit for bit
live here, and only here; nothing under ``src/`` imports this module
(``tests/test_oracle_boundary.py`` enforces that).  The parity suites and
the speedup benchmarks build their baselines from it:

* :class:`SequentialDLRM` / :class:`SequentialTBSM` — the models with
  ``fused_loss_and_gradients`` replaced by a loop of per-µ-batch
  ``loss_and_gradients`` calls (separate gathers, scatters and unpacked
  MLP passes per segment).  Passed to a production trainer, they give the
  sequential schedule every fused, packed and replica-stacked pass must
  reproduce.
* :class:`MergedGradientTrainer` — the shared-model K-shard trainer: all
  shards' µ-batch gradients accumulate in one model's layers.  Sync-mode
  :class:`~repro.core.distributed.ShardedHotlineTrainer` must match it.
* :class:`ReferencePendingStore` — the dict-of-rows deferred write-back
  store; swap it into a pipeline with
  ``pipe.pending = ReferencePendingStore(pipe.rows_per_table)``.
* :class:`ReferenceTieredStore` — the per-table hot/cold tier whose
  counters and priced times the flat-keyed
  :class:`~repro.nn.embedding.TieredEmbeddingStore` must reproduce.
* :func:`reference_forward` / :func:`reference_backward` — per-sample-loop
  embedding pooling and scatter.
* :func:`split_minibatch_reference` — the ``np.isin`` µ-batch
  classification.
* :func:`reference_kernels` — routes the dot interaction through its
  einsum reference and the loss through the two-pass
  :func:`~repro.nn.loss.reference_epilogue` for a whole training run.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

import repro.models.dlrm
import repro.models.tbsm
import repro.nn.interaction
from repro.core.classifier import MicroBatches, split_minibatch
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.engine import StepOutcome
from repro.data.batch import MiniBatch
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import SparseGradient, merge_sparse_gradients
from repro.nn.init import DTYPE
from repro.nn.loss import reference_epilogue

__all__ = [
    "MergedGradientTrainer",
    "ReferencePendingStore",
    "ReferenceTieredStore",
    "SequentialDLRM",
    "SequentialTBSM",
    "reference_backward",
    "reference_forward",
    "reference_kernels",
    "split_minibatch_reference",
]


# ---------------------------------------------------------------------- #
# Sequential µ-batch models
# ---------------------------------------------------------------------- #
class _SequentialSegments:
    """Train each µ-batch segment with its own ``loss_and_gradients`` call."""

    def fused_loss_and_gradients(
        self,
        batch: MiniBatch,
        segments: list[np.ndarray],
        normalizer: float | None = None,
        after_segment=None,
    ) -> tuple[list[float], list[list[SparseGradient]]]:
        """The per-segment loop the fused pass must reproduce bit for bit.

        Same contract as :meth:`repro.models.dlrm.DLRM.
        fused_loss_and_gradients`: dense gradients accumulate in the
        layers segment by segment, ``after_segment(s, loss)`` fires after
        each segment's backward, and the result is per-segment losses plus
        ``sparse_grads[t][s]``.
        """
        losses: list[float] = []
        sparse_grads: list[list[SparseGradient]] = [[] for _ in self.tables]
        for s, idx in enumerate(segments):
            loss, grads = self.loss_and_gradients(batch.select(idx), normalizer)
            losses.append(loss)
            for table, grad in enumerate(grads):
                sparse_grads[table].append(grad)
            if after_segment is not None:
                after_segment(s, loss)
        return losses, sparse_grads


class SequentialDLRM(_SequentialSegments, DLRM):
    """:class:`~repro.models.dlrm.DLRM` trained one µ-batch at a time."""


class SequentialTBSM(_SequentialSegments, TBSM):
    """:class:`~repro.models.tbsm.TBSM` trained one µ-batch at a time."""


# ---------------------------------------------------------------------- #
# Merged-gradient K-shard trainer
# ---------------------------------------------------------------------- #
class MergedGradientTrainer(ShardedHotlineTrainer):
    """The K-shard step written out µ-batch by µ-batch.

    Every shard's µ-batches run through their own ``loss_and_gradients``
    call; the dense gradients accumulate in the shared layers (the
    functional equivalent of a ring all-reduce) and per-table sparse
    gradients merge once across shards.
    Because every µ-batch is normalised by the *global* mini-batch size,
    the accumulated K-shard update equals the single-replica update
    (Eq. 5 extended across shards).  Sync-mode
    :class:`~repro.core.distributed.ShardedHotlineTrainer` must produce
    bit-identical losses and parameters.
    """

    def train_step(self, batch: MiniBatch) -> tuple[float, float]:
        """One merged-gradient step over the K shards of ``batch``.

        Returns:
            ``(loss, popular_fraction)`` summed / averaged over the batch.
        """
        if any(shard.placement is None for shard in self.shards):
            raise RuntimeError("learning_phase must run before training")
        self.model.zero_grad()
        total_loss = 0.0
        popular_size = 0
        partial_sparse: list[list[SparseGradient]] = [
            [] for _ in range(self.model.config.num_sparse_features)
        ]
        for shard_batch, shard in zip(batch.shards(self.num_shards), self.shards, strict=True):
            if shard_batch.size == 0:
                continue
            micro = split_minibatch(shard_batch, shard.placement.index)
            popular_size += micro.popular.size
            for micro_batch in (micro.popular, micro.non_popular):
                if micro_batch.size == 0:
                    continue
                # Global-batch normalisation keeps the accumulated K-shard
                # update identical to the single-replica one (Eq. 5).
                loss, sparse_grads = self.model.loss_and_gradients(
                    micro_batch, normalizer=batch.size
                )
                total_loss += loss
                for table, grad in enumerate(sparse_grads):
                    partial_sparse[table].append(grad)
        merged = [merge_sparse_gradients(grads) for grads in partial_sparse]
        self.model.apply_dense_update(self.lr)
        self.model.apply_sparse_updates(merged, self.lr)
        popular_fraction = popular_size / batch.size if batch.size else 0.0
        return total_loss, popular_fraction

    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """One merged step; the oracle prices nothing."""
        loss, popular_fraction = self.train_step(batch)
        return StepOutcome(loss=loss, popular_fraction=popular_fraction)


# ---------------------------------------------------------------------- #
# Dict-of-rows pending store
# ---------------------------------------------------------------------- #
class ReferencePendingStore:
    """Dict-of-rows deferred write-back store — the bit-parity reference.

    The original (pre-flat-store) implementation: one ``dict[int,
    np.ndarray]`` of accumulated gradient rows plus one ``dict[int, int]``
    of birth steps per table.  Every ``defer``/``take`` walks the step's
    rows in the Python interpreter — O(nnz) dict churn per training step —
    which is exactly the overhead
    :class:`~repro.core.lookahead.FlatPendingStore` removes.  It is the
    ground truth the parity suite and the pending-store benchmark compare
    against; swap it into a pipeline with ``pipe.pending =
    ReferencePendingStore(pipe.rows_per_table)``.
    """

    def __init__(self, rows_per_table: tuple[int, ...]):
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self._pending: list[dict[int, np.ndarray]] = [{} for _ in self.rows_per_table]
        self._births: list[dict[int, int]] = [{} for _ in self.rows_per_table]

    @property
    def num_tables(self) -> int:
        """Number of tables the store covers."""
        return len(self.rows_per_table)

    @property
    def total_pending(self) -> int:
        """Deferred (not yet written back) rows across tables."""
        return sum(len(pending) for pending in self._pending)

    def pending_count(self, table: int) -> int:
        """Deferred rows of one table."""
        return len(self._pending[table])

    @property
    def pending_bytes(self) -> int:
        """Bytes held by the dict store (value rows + per-row id/birth ints).

        API symmetry with
        :attr:`~repro.core.lookahead.FlatPendingStore.pending_bytes`; the
        dict store is inherently window-bounded (it only ever holds
        deferred rows), it just pays the interpreter for it.
        """
        total = 0
        for pending in self._pending:
            for value in pending.values():
                total += value.nbytes + 16
        return total

    def defer(self, table: int, grad: SparseGradient, step: int) -> None:
        """Accumulate one merged gradient; new rows are born at ``step``."""
        pending = self._pending[table]
        births = self._births[table]
        for row, value in zip(grad.indices.tolist(), grad.values, strict=True):
            if row in pending:
                pending[row] = pending[row] + value
            else:
                pending[row] = value.copy()
                births[row] = step

    def pending_mask(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over ``rows``: True where the row is deferred."""
        pending = self._pending[table]
        return np.fromiter(
            (int(row) in pending for row in rows), dtype=bool, count=rows.size
        )

    def aged_rows(self, table: int, step: int, staleness: int) -> np.ndarray:
        """Sorted rows whose oldest contribution is ``staleness`` steps old."""
        births = self._births[table]
        aged = sorted(row for row, birth in births.items() if step - birth >= staleness)
        return np.asarray(aged, dtype=np.int64)

    def birth_steps(self, table: int) -> dict[int, int]:
        """``{row: birth step}`` of one table's deferred rows (tests)."""
        return dict(self._births[table])

    def take(self, table: int, rows: np.ndarray) -> SparseGradient:
        """Remove the deferred subset of ``rows`` as one sparse gradient.

        ``rows`` must be sorted; rows with nothing pending are skipped, so
        the result's indices are the sorted deferred subset.
        """
        pending = self._pending[table]
        births = self._births[table]
        taken = [int(row) for row in rows if int(row) in pending]
        if not taken:
            return SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=DTYPE))
        values = np.stack([pending.pop(row) for row in taken], axis=0)
        for row in taken:
            births.pop(row, None)
        return SparseGradient(np.asarray(taken, dtype=np.int64), values)

    def take_all(self, table: int) -> SparseGradient:
        """Remove and return everything deferred for one table."""
        return self.take(table, np.asarray(sorted(self._pending[table]), dtype=np.int64))

    def clear(self) -> None:
        """Drop all deferred gradients and their birth steps."""
        for pending, births in zip(self._pending, self._births, strict=True):
            pending.clear()
            births.clear()


# ---------------------------------------------------------------------- #
# Per-table hot/cold tier
# ---------------------------------------------------------------------- #
def _in_sorted(sorted_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Boolean membership of ``rows`` in an ascending unique ``sorted_rows``."""
    if sorted_rows.size == 0 or rows.size == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_rows, rows)
    present = pos < sorted_rows.size
    present[present] = sorted_rows[pos[present]] == rows[present]
    return present


class ReferenceTieredStore:
    """Per-table LFU hot tier — the reference for the flat-keyed tier.

    One sorted resident-row array per table, with aligned access counts,
    and one sorted pinned-row array per table; pinned rows are also
    resident (and keep counts nobody reads).  Eviction concatenates every
    table's unpinned resident rows, table-major and row-ascending, and
    evicts the ``argpartition`` of their counts.  The flat-keyed
    :class:`~repro.nn.embedding.TieredEmbeddingStore` must reproduce its
    counters, priced times and residency exactly.
    """

    def __init__(self, rows_per_table, dim: int, *, hot_bytes: float, dma, dtype_bytes: int = 4):
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self.row_bytes = int(dim) * int(dtype_bytes)
        self.capacity_rows = int(float(hot_bytes) // self.row_bytes)
        self.dma = dma
        num_tables = len(self.rows_per_table)
        self._rows = [np.empty(0, dtype=np.int64) for _ in range(num_tables)]
        self._counts = [np.empty(0, dtype=np.int64) for _ in range(num_tables)]
        self._pinned = [np.empty(0, dtype=np.int64) for _ in range(num_tables)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fetch_time_s = 0.0
        self.writeback_time_s = 0.0

    @property
    def resident_rows(self) -> int:
        """Rows currently resident in the hot tier, across tables."""
        return int(sum(rows.size for rows in self._rows))

    def is_resident(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Boolean residency of ``rows``."""
        return _in_sorted(self._rows[table], np.asarray(rows, dtype=np.int64))

    def pin_rows(self, table: int, rows: np.ndarray) -> None:
        """Make ``rows`` resident and un-evictable; price fresh rows contiguously."""
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return
        if rows[0] < 0 or rows[-1] >= self.rows_per_table[table]:
            raise ValueError(f"pinned row out of range for table {table}")
        self._pinned[table] = np.union1d(self._pinned[table], rows)
        fresh = rows[~_in_sorted(self._rows[table], rows)]
        if fresh.size:
            self._insert(table, fresh, np.zeros(fresh.size, dtype=np.int64))
            self.fetch_time_s += self.dma.read_time(fresh.size * self.row_bytes, scattered=False)
        self._evict_to_capacity()

    def touch(self, table: int, indices: np.ndarray) -> float:
        """Resolve one lookup block through the tier; return priced seconds."""
        rows, occurrences = np.unique(
            np.asarray(indices, dtype=np.int64).reshape(-1), return_counts=True
        )
        if rows.size == 0:
            return 0.0
        if rows[0] < 0 or rows[-1] >= self.rows_per_table[table]:
            raise ValueError(f"lookup row out of range for table {table}")
        resident = self._rows[table]
        present = _in_sorted(resident, rows)
        hit_count = int(np.count_nonzero(present))
        self.hits += hit_count
        self.misses += rows.size - hit_count
        step_time = 0.0
        if hit_count:
            positions = np.searchsorted(resident, rows[present])
            self._counts[table][positions] += occurrences[present]
        cold = rows[~present]
        if cold.size:
            fetch = self.dma.read_time(cold.size * self.row_bytes, scattered=True)
            self.fetch_time_s += fetch
            step_time += fetch
            self._insert(table, cold, occurrences[~present])
            step_time += self._evict_to_capacity()
        return step_time

    def _insert(self, table: int, rows: np.ndarray, counts: np.ndarray) -> None:
        positions = np.searchsorted(self._rows[table], rows)
        self._rows[table] = np.insert(self._rows[table], positions, rows)
        self._counts[table] = np.insert(self._counts[table], positions, counts)

    def _evict_to_capacity(self) -> float:
        excess = self.resident_rows - self.capacity_rows
        if excess <= 0:
            return 0.0
        candidate_counts, candidate_tables, candidate_positions = [], [], []
        for table in range(len(self.rows_per_table)):
            positions = np.flatnonzero(~_in_sorted(self._pinned[table], self._rows[table]))
            if positions.size == 0:
                continue
            candidate_counts.append(self._counts[table][positions])
            candidate_tables.append(np.full(positions.size, table, dtype=np.int64))
            candidate_positions.append(positions)
        if not candidate_counts:
            return 0.0
        counts = np.concatenate(candidate_counts)
        tables = np.concatenate(candidate_tables)
        positions = np.concatenate(candidate_positions)
        take = min(excess, counts.size)
        order = (
            np.argpartition(counts, take - 1)[:take]
            if take < counts.size
            else np.arange(counts.size)
        )
        evicted = 0
        for table in range(len(self.rows_per_table)):
            victim_positions = positions[order][tables[order] == table]
            if victim_positions.size == 0:
                continue
            keep = np.ones(self._rows[table].size, dtype=bool)
            keep[victim_positions] = False
            self._rows[table] = self._rows[table][keep]
            self._counts[table] = self._counts[table][keep]
            evicted += victim_positions.size
        self.evictions += evicted
        writeback = self.dma.write_time(evicted * self.row_bytes, scattered=True)
        self.writeback_time_s += writeback
        return writeback


# ---------------------------------------------------------------------- #
# Loop-based embedding and classification
# ---------------------------------------------------------------------- #
def reference_forward(weight: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-sample Python-loop forward: pool each sample's rows in turn."""
    indices = np.asarray(indices, dtype=np.int64)
    batch = indices.shape[0]
    dim = weight.shape[1]
    out = np.zeros((batch, dim), dtype=weight.dtype)
    for i in range(batch):
        idx = indices[i]
        if len(idx) == 0:
            continue
        out[i] = weight[idx].sum(axis=0)
    return out


def reference_backward(
    indices: np.ndarray, grad_output: np.ndarray, dim: int
) -> SparseGradient:
    """Per-sample Python-loop backward: repeat each sample's gradient row."""
    indices = np.asarray(indices, dtype=np.int64)
    all_indices: list[np.ndarray] = []
    all_grads: list[np.ndarray] = []
    for i in range(indices.shape[0]):
        idx = indices[i]
        if len(idx) == 0:
            continue
        all_indices.append(idx)
        all_grads.append(np.repeat(grad_output[i : i + 1], len(idx), axis=0))
    if not all_indices:
        return SparseGradient(
            np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=grad_output.dtype)
        )
    flat_indices = np.concatenate(all_indices)
    flat_grads = np.concatenate(all_grads, axis=0)
    unique, inverse = np.unique(flat_indices, return_inverse=True)
    values = np.zeros((unique.shape[0], dim), dtype=grad_output.dtype)
    np.add.at(values, inverse, flat_grads)
    return SparseGradient(unique, values)


def split_minibatch_reference(
    batch: MiniBatch, hot_sets: list[np.ndarray]
) -> MicroBatches:
    """The pre-bitmap ``np.isin``-based split, retained as parity ground truth."""
    if len(hot_sets) != batch.num_tables:
        raise ValueError(
            f"expected {batch.num_tables} hot sets (one per table), got {len(hot_sets)}"
        )
    mask = np.ones(batch.size, dtype=bool)
    for table, hot in enumerate(hot_sets):
        if hot.size == 0:
            mask[:] = False
            break
        mask &= np.isin(batch.sparse[:, table, :], hot).all(axis=1)
    return MicroBatches(mask, batch)


# ---------------------------------------------------------------------- #
# Reference kernels
# ---------------------------------------------------------------------- #
@contextmanager
def reference_kernels(*, interaction: bool = True, loss: bool = True) -> Iterator[None]:
    """Train through the reference kernels for the duration of the block.

    ``interaction`` makes every interaction shape uncertified, so
    :class:`~repro.nn.interaction.DotInteractionKernel` and
    :func:`~repro.nn.interaction.dot_interaction` take the einsum
    reference; ``loss`` routes both models' loss epilogue through the
    two-pass :func:`~repro.nn.loss.reference_epilogue`.  Every patched name
    is restored on exit.  Not thread-safe: use from single-threaded test
    and measurement code only.
    """
    patches = []
    if interaction:
        patches.append((repro.nn.interaction, "interaction_certified", lambda *_: False))
    if loss:
        patches.append((repro.models.dlrm, "fused_bce_epilogue", reference_epilogue))
        patches.append((repro.models.tbsm, "fused_bce_epilogue", reference_epilogue))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
