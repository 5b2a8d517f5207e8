"""The test oracle: every reference implementation production is checked against.

Production code under ``src/`` keeps exactly one path per capability.  The
slower, simpler implementations those paths must reproduce bit for bit
live here, and only here; nothing under ``src/`` imports this module
(``tests/test_oracle_boundary.py`` enforces that).  The parity suites and
the speedup benchmarks build their baselines from it:

* :class:`SequentialDLRM` / :class:`SequentialTBSM` — the models with
  ``fused_loss_and_gradients`` replaced by a loop of per-µ-batch
  ``loss_and_gradients`` calls (separate gathers, scatters and unpacked
  MLP passes per segment), one flat-keyed gradient per segment.  Passed
  to a production trainer, they give the sequential schedule every fused,
  packed and replica-stacked pass must reproduce.
* :class:`MergedGradientTrainer` — the shared-model K-shard trainer: all
  shards' µ-batch gradients accumulate in one model's layers.  Sync-mode
  :class:`~repro.core.distributed.ShardedHotlineTrainer` must match it.
* :class:`ReferencePendingStore` — the dict-of-rows deferred write-back
  store, keyed by flat key; swap it into a pipeline with
  ``pipe.pending = ReferencePendingStore()``.
* :class:`ReferenceTieredStore` — the per-table hot/cold tier, touched a
  step's whole flat-keyed block at a time, whose counters and priced
  times the flat-keyed
  :class:`~repro.nn.embedding.TieredEmbeddingStore` must reproduce.
* :class:`ReferenceEAL` — the per-access SRRIP loop whose tracked ways,
  counters and hit counts the set-vectorised
  :class:`~repro.core.eal.EmbeddingAccessLogger` must reproduce
  (:func:`tracked_ways` reads both layouts); assign one to
  ``accelerator.eal`` to run a learning phase through it.
  :func:`simulate_parallel_requests` is the Monte-Carlo count of
  Figure 16's requests per iteration that checks
  :func:`~repro.core.eal.expected_parallel_requests`.
* :func:`reference_forward` / :func:`reference_backward` — per-sample-loop
  embedding pooling and scatter of one table; :func:`reference_bag` runs
  them table by table on a table-batched bag's views and relabels the
  gradients into flat keys.
* :func:`split_minibatch_reference` — the ``np.isin`` µ-batch
  classification; :func:`classify_per_lookup` asks a tracker about one
  lookup at a time.
* :func:`reference_roc_auc` — the rank-sum AUC whose tied scores are
  ranked by a Python loop over the sorted scores.
* :func:`bce_with_logits` / :func:`bce_with_logits_backward` — the
  two-pass loss and logit gradient that
  :func:`~repro.nn.loss.fused_bce_epilogue` reproduces bit for bit
  (:func:`reference_epilogue` is the pair).
* :func:`reference_kernels` — routes the dot interaction through its
  einsum reference and the loss through :func:`reference_epilogue` for a
  whole training run.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

import repro.models.dlrm
import repro.nn.interaction
from repro.core.classifier import MicroBatches, split_minibatch
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EmbeddingAccessLogger
from repro.core.engine import StepOutcome
from repro.core.lookup_engine import FeistelRandomizer
from repro.data.batch import MiniBatch
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import SparseGradient, merge_sparse_gradients
from repro.nn.init import DTYPE
from repro.nn.loss import _float_logits, _stable_sigmoid

__all__ = [
    "MergedGradientTrainer",
    "ReferenceEAL",
    "ReferencePendingStore",
    "ReferenceTieredStore",
    "SequentialDLRM",
    "SequentialTBSM",
    "bce_with_logits",
    "bce_with_logits_backward",
    "bce_with_logits_per_sample",
    "classify_per_lookup",
    "held_arrays",
    "reference_backward",
    "reference_bag",
    "reference_epilogue",
    "reference_forward",
    "reference_kernels",
    "reference_roc_auc",
    "simulate_parallel_requests",
    "split_minibatch_reference",
    "tracked_ways",
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
    ) -> tuple[list[float], list[SparseGradient]]:
        """The per-segment loop the fused pass must reproduce bit for bit.

        Same contract as :meth:`repro.models.dlrm.RecommendationModel.
        fused_loss_and_gradients`: dense gradients accumulate in the
        layers segment by segment, and the result is per-segment losses
        plus per-segment flat-keyed gradients.
        """
        losses: list[float] = []
        partials: list[SparseGradient] = []
        for idx in segments:
            loss, grad = self.loss_and_gradients(batch.select(idx), normalizer)
            losses.append(loss)
            partials.append(grad)
        return losses, partials


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
    functional equivalent of a ring all-reduce) and the flat-keyed sparse
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
        partials: list[SparseGradient] = []
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
                loss, grad = self.model.loss_and_gradients(
                    micro_batch, normalizer=batch.size
                )
                total_loss += loss
                partials.append(grad)
        self.model.apply_dense_update(self.lr)
        self.model.apply_sparse_updates(merge_sparse_gradients(partials), self.lr)
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

    The original implementation: one ``dict[int, np.ndarray]`` of
    accumulated gradient rows plus one ``dict[int, int]`` of birth steps,
    both keyed by flat key.  Every ``defer``/``take`` walks the step's keys
    in the Python interpreter — O(nnz) dict churn per training step.
    :class:`~repro.core.lookahead.FlatPendingStore` holds the same rows as
    three aligned arrays (sorted keys, gradient rows, birth steps) and must
    reproduce this store's flushed keys, values and birth steps bit for
    bit.  It is the ground truth the parity suite and the pending-store
    benchmark compare against; swap it into a pipeline with
    ``pipe.pending = ReferencePendingStore()``.
    """

    def __init__(self):
        self._pending: dict[int, np.ndarray] = {}
        self._births: dict[int, int] = {}

    @property
    def total_pending(self) -> int:
        """Deferred (not yet written back) rows."""
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Bytes of the value rows plus 16 per key (its id and birth step).

        The count :attr:`~repro.core.lookahead.FlatPendingStore.pending_bytes`
        makes of its three arrays; the dict store is inherently
        window-bounded (it only ever holds deferred rows), it just pays the
        interpreter for it.
        """
        return sum(value.nbytes + 16 for value in self._pending.values())

    def defer(self, grad: SparseGradient, step: int) -> None:
        """Accumulate one merged gradient; new keys are born at ``step``."""
        pending = self._pending
        for key, value in zip(grad.indices.tolist(), grad.values, strict=True):
            if key in pending:
                pending[key] = pending[key] + value
            else:
                pending[key] = value.copy()
                self._births[key] = step

    def pending_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask over ``keys``: True where the key is deferred."""
        return np.fromiter(
            (int(key) in self._pending for key in keys), dtype=bool, count=keys.size
        )

    def aged_rows(self, step: int, staleness: int) -> np.ndarray:
        """Sorted keys whose oldest contribution is ``staleness`` steps old."""
        aged = sorted(key for key, birth in self._births.items() if step - birth >= staleness)
        return np.asarray(aged, dtype=np.int64)

    def birth_steps(self) -> dict[int, int]:
        """``{key: birth step}`` of the deferred keys (tests)."""
        return dict(self._births)

    def take(self, keys: np.ndarray) -> SparseGradient:
        """Remove the deferred subset of ``keys`` as one sparse gradient.

        ``keys`` must be sorted; keys with nothing pending are skipped, so
        the result's indices are the sorted deferred subset.
        """
        taken = [int(key) for key in keys if int(key) in self._pending]
        if not taken:
            return SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=DTYPE))
        values = np.stack([self._pending.pop(key) for key in taken], axis=0)
        for key in taken:
            self._births.pop(key, None)
        return SparseGradient(np.asarray(taken, dtype=np.int64), values)

    def take_all(self) -> SparseGradient:
        """Remove and return everything deferred."""
        return self.take(np.asarray(sorted(self._pending), dtype=np.int64))

    def clear(self) -> None:
        """Drop all deferred gradients and their birth steps."""
        self._pending.clear()
        self._births.clear()


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
    resident (and keep counts nobody reads).  Its methods take flat keys,
    as the flat tier's do, and split them by table.  A :meth:`touch` of a
    step's block decides every table's hits first, then prices one
    scattered fetch of all the misses and runs one eviction.  Eviction
    keeps the unpinned resident rows within ``capacity_rows`` (pinned rows
    do not count): it concatenates every table's unpinned resident rows,
    table-major and row-ascending, and evicts the ``argpartition`` of
    their counts.  The flat-keyed
    :class:`~repro.nn.embedding.TieredEmbeddingStore` must reproduce its
    counters, priced times and residency exactly.
    """

    def __init__(self, rows_per_table, dim: int, *, hot_bytes: float, dma, dtype_bytes: int = 4):
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self.row_bytes = int(dim) * int(dtype_bytes)
        self.capacity_rows = int(float(hot_bytes) // self.row_bytes)
        self.dma = dma
        self._bounds = np.cumsum((0, *self.rows_per_table))
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

    def _in_table(self, keys: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Per table: ``(table, mask of its keys, their row ids)``."""
        for table in range(len(self.rows_per_table)):
            lo, hi = self._bounds[table], self._bounds[table + 1]
            mask = (keys >= lo) & (keys < hi)
            yield table, mask, keys[mask] - lo

    def is_resident(self, keys: np.ndarray) -> np.ndarray:
        """Boolean residency of the flat ``keys`` (1-D)."""
        keys = np.asarray(keys, dtype=np.int64)
        resident = np.zeros(keys.shape, dtype=bool)
        for table, mask, rows in self._in_table(keys):
            resident[mask] = _in_sorted(self._rows[table], rows)
        return resident

    def repin(self, keys: np.ndarray) -> None:
        """Pin exactly the flat ``keys``: unpinned rows keep residency at
        count 0; rows not resident load in one priced contiguous read."""
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        fresh = 0
        for table, _mask, rows in self._in_table(keys):
            leaving = self._pinned[table][~_in_sorted(rows, self._pinned[table])]
            self._counts[table][np.searchsorted(self._rows[table], leaving)] = 0
            new = rows[~_in_sorted(self._rows[table], rows)]
            self._insert(table, new, np.zeros(new.size, dtype=np.int64))
            self._pinned[table] = rows
            fresh += new.size
        if fresh:
            self.fetch_time_s += self.dma.read_time(fresh * self.row_bytes, scattered=False)
        self._evict_to_capacity()

    def touch(self, keys: np.ndarray) -> float:
        """Resolve one step's flat-keyed lookup block; return priced seconds."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size and (keys.min() < 0 or keys.max() >= self._bounds[-1]):
            raise ValueError("lookup key out of range")
        cold_rows = []
        for table, _mask, table_rows in self._in_table(keys):
            rows, occurrences = np.unique(table_rows, return_counts=True)
            present = _in_sorted(self._rows[table], rows)
            self.hits += int(np.count_nonzero(present))
            positions = np.searchsorted(self._rows[table], rows[present])
            self._counts[table][positions] += occurrences[present]
            cold_rows.append((table, rows[~present], occurrences[~present]))
        misses = sum(rows.size for _table, rows, _counts in cold_rows)
        self.misses += misses
        if not misses:
            return 0.0
        for table, rows, counts in cold_rows:
            self._insert(table, rows, counts)
        fetch = self.dma.read_time(misses * self.row_bytes, scattered=True)
        self.fetch_time_s += fetch
        return fetch + self._evict_to_capacity()

    def _insert(self, table: int, rows: np.ndarray, counts: np.ndarray) -> None:
        positions = np.searchsorted(self._rows[table], rows)
        self._rows[table] = np.insert(self._rows[table], positions, rows)
        self._counts[table] = np.insert(self._counts[table], positions, counts)

    def _evict_to_capacity(self) -> float:
        pinned = sum(rows.size for rows in self._pinned)
        excess = self.resident_rows - pinned - self.capacity_rows
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
# Per-access Embedding Access Logger
# ---------------------------------------------------------------------- #
class ReferenceEAL(EmbeddingAccessLogger):
    """The EAL one lookup at a time — the reference for the vectorised EAL.

    The counters and the key space of
    :class:`~repro.core.eal.EmbeddingAccessLogger`, but its own layout: a
    valid bit, a ``(table << 40) | row`` key and an RRPV per way.  Every
    lookup range-checks its id against its table, hashes its key with
    scalar Python arithmetic, scans its set's ways, and on a miss fills
    the first invalid way or ages the set one step at a time until a
    victim reaches ``max_rrpv``.  Queries scan the ways too, and
    ``hot_indices`` groups the valid keys one at a time.  The arrays are
    allocated by the first access and dropped by ``release`` (which
    returns them) and ``clear``; ``reuse`` takes nothing, so each
    reference EAL learns in arrays of its own.  :func:`tracked_ways`
    compares its arrays with the production layout's.
    """

    _valid: np.ndarray | None = None

    def _allocate(self) -> None:
        if self._valid is None:
            shape = (self.config.num_sets, self.config.ways)
            self._valid = np.zeros(shape, dtype=bool)
            self._keys = np.zeros(shape, dtype=np.uint64)
            self._rrpv = np.full(shape, self.config.max_rrpv, dtype=np.int8)

    def _check(self, table: int, index: int) -> None:
        if not 0 <= table < len(self.rows_per_table):
            raise ValueError(f"EAL table {table} out of range")
        if not 0 <= index < self.rows_per_table[table]:
            raise ValueError(f"id out of range for table {table}")

    def _key(self, table: int, index: int) -> int:
        return (int(table) << 40) | int(index)

    def _set_for(self, key: int) -> int:
        table = key >> 40
        index = key & ((1 << 40) - 1)
        folded = ((table + 1) * 0x9E3779B1 + index * 0x85EBCA77) & 0xFFFFFFFF
        return self._randomizer.hash(folded) % self.config.num_sets

    def access(self, table: int, index: int) -> bool:
        self._check(table, index)
        return self._access_one(table, index)

    def _access_one(self, table: int, index: int) -> bool:
        self._allocate()
        key = self._key(table, index)
        set_idx = self._set_for(key)
        valid = self._valid[set_idx]
        keys = self._keys[set_idx]
        for way in range(self.config.ways):
            if valid[way] and keys[way] == key:
                self._rrpv[set_idx, way] = 0
                self.hits += 1
                return True
        self.misses += 1
        self._insert(set_idx, key)
        return False

    def access_batch(self, sparse: np.ndarray) -> int:
        _batch, num_tables, _pooling = sparse.shape
        lookups = [
            (table, int(value))
            for table in range(num_tables)
            for value in sparse[:, table, :].reshape(-1)
        ]
        for table, index in lookups:
            self._check(table, index)
        return sum(self._access_one(table, index) for table, index in lookups)

    def _insert(self, set_idx: int, key: int) -> None:
        valid = self._valid[set_idx]
        rrpv = self._rrpv[set_idx]
        for way in range(self.config.ways):
            if not valid[way]:
                self._fill(set_idx, way, key)
                return
        while True:
            candidates = np.nonzero(rrpv >= self.config.max_rrpv)[0]
            if candidates.size:
                victim = int(candidates[0])
                break
            rrpv += 1
        self.evictions += 1
        self._fill(set_idx, victim, key)

    def _fill(self, set_idx: int, way: int, key: int) -> None:
        self._valid[set_idx, way] = True
        self._keys[set_idx, way] = key
        self._rrpv[set_idx, way] = self.config.insertion_rrpv
        self.insertions += 1

    def contains(self, table: int, index: int) -> bool:
        if self._valid is None:
            return False
        key = self._key(table, index)
        set_idx = self._set_for(key)
        valid = self._valid[set_idx]
        keys = self._keys[set_idx]
        return any(valid[way] and keys[way] == key for way in range(self.config.ways))

    def hot_indices(self, num_tables: int) -> list[np.ndarray]:
        result: list[list[int]] = [[] for _ in range(num_tables)]
        for key in [] if self._valid is None else self._keys[self._valid]:
            table = int(key) >> 40
            if table < num_tables:
                result[table].append(int(key) & ((1 << 40) - 1))
        return [np.array(sorted(rows), dtype=np.int64) for rows in result]

    @property
    def occupancy(self) -> float:
        return 0.0 if self._valid is None else float(self._valid.mean())

    def release(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        arrays = None if self._valid is None else (self._valid, self._keys, self._rrpv)
        self._valid = self._keys = self._rrpv = None
        return arrays

    def reuse(self, arrays) -> None:
        pass


def held_arrays(eal) -> tuple | None:
    """The arrays ``eal`` holds, as its ``release`` would return them."""
    if isinstance(eal, ReferenceEAL):
        return None if eal._valid is None else (eal._valid, eal._keys, eal._rrpv)
    return None if eal._rrpv is None else (eal._keys, eal._rrpv)


def tracked_ways(eal, arrays) -> tuple[np.ndarray, ...]:
    """``arrays``, an EAL's released or held arrays, in one form for either
    layout: the ``(sets, ways)`` valid mask, then the table, row and RRPV
    of each valid way in row-major way order.

    A :class:`ReferenceEAL` holds valid bits, ``(table << 40) | row`` keys
    and RRPVs; the production EAL holds flat keys in ``eal``'s key space
    and RRPVs that read -1 on an empty way."""
    if isinstance(eal, ReferenceEAL):
        valid, keys, rrpv = arrays
        keys = keys[valid].astype(np.int64)
        return valid, keys >> 40, keys & ((1 << 40) - 1), rrpv[valid]
    keys, rrpv = arrays
    valid = rrpv >= 0
    keys = keys[valid].astype(np.int64)
    edges = np.cumsum((0, *eal.rows_per_table), dtype=np.int64)
    tables = np.searchsorted(edges, keys, side="right") - 1
    return valid, tables, keys - edges[tables], rrpv[valid]


def simulate_parallel_requests(
    queue_size: int, num_banks: int, trials: int = 200, seed: int = 0
) -> float:
    """Monte-Carlo count of requests per iteration (Figure 16): the mean
    number of distinct banks that ``queue_size`` Feistel-hashed random keys
    hit over ``trials`` draws."""
    rng = np.random.default_rng(seed)
    randomizer = FeistelRandomizer(seed=seed)
    banks_hit = 0
    for _ in range(trials):
        keys = rng.integers(0, 2**32, size=queue_size, dtype=np.uint64)
        banks_hit += len(np.unique(randomizer.hash(keys) % num_banks))
    return banks_hit / trials


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


def reference_bag(
    bag, indices: np.ndarray, grad_output: np.ndarray
) -> tuple[np.ndarray, SparseGradient]:
    """A table-batched bag's forward and backward, one table at a time.

    Runs :func:`reference_forward` and :func:`reference_backward` on each
    table's ``bag.table(t)`` view with its ``(batch, pooling)`` block and
    ``(batch, dim)`` output gradient.  Returns the pooled ``(batch,
    tables, dim)`` outputs and one gradient, table ``t``'s rows relabelled
    as the flat keys ``bag.offsets[t] + row``.
    """
    tables = range(bag.num_tables)
    pooled = np.stack([reference_forward(bag.table(t), indices[:, t]) for t in tables], axis=1)
    grads = [reference_backward(indices[:, t], grad_output[:, t], bag.dim) for t in tables]
    return pooled, SparseGradient(
        np.concatenate([grad.indices + bag.offsets[t] for t, grad in enumerate(grads)]),
        np.concatenate([grad.values for grad in grads]),
    )


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


def classify_per_lookup(sparse: np.ndarray, tracker) -> np.ndarray:
    """Popular-input mask of a ``(batch, tables, pooling)`` block, asking
    ``tracker.contains(table, index)`` about one lookup at a time; an
    input is popular only if every one of its lookups is tracked."""
    batch, num_tables, _pooling = sparse.shape
    return np.array(
        [
            all(tracker.contains(t, int(i)) for t in range(num_tables) for i in sparse[b, t])
            for b in range(batch)
        ],
        dtype=bool,
    )


def reference_roc_auc(targets: np.ndarray, scores: np.ndarray) -> float:
    """The rank-sum AUC with a Python loop over the sorted scores: each run
    of equal scores, first position ``i`` to last ``j``, gets rank
    ``0.5 * (i + j) + 1.0``."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    positives = targets > 0.5
    num_pos = int(positives.sum())
    num_neg = int(targets.shape[0] - num_pos)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty_like(sorted_scores)
    i = 0
    n = sorted_scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[i : j + 1] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_of = np.empty(n, dtype=np.float64)
    rank_of[order] = ranks
    rank_sum_pos = rank_of[positives].sum()
    return float((rank_sum_pos - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


# ---------------------------------------------------------------------- #
# Reference kernels
# ---------------------------------------------------------------------- #
def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray, reduction: str = "sum"
) -> float:
    """Binary cross-entropy of ``logits`` against 0/1 ``targets``, reduced
    by ``"sum"`` or ``"mean"``, from :func:`bce_with_logits_per_sample`."""
    per_sample = bce_with_logits_per_sample(logits, targets)
    if reduction == "sum":
        return float(per_sample.sum())
    if reduction == "mean":
        return float(per_sample.mean())
    raise ValueError(f"unknown reduction {reduction!r}")


def bce_with_logits_per_sample(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The stable form ``max(z,0) - z*y + log(1+exp(-|z|))`` per sample, in
    the logits' floating dtype."""
    logits = _float_logits(logits)
    targets = np.asarray(targets, dtype=logits.dtype).reshape(-1)
    if logits.shape != targets.shape:
        raise ValueError("logits and targets must have the same shape")
    return (
        np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    )


def bce_with_logits_backward(
    logits: np.ndarray, targets: np.ndarray, reduction: str = "sum"
) -> np.ndarray:
    """Gradient of :func:`bce_with_logits` with respect to the logits
    (``"sum"`` and ``"none"`` alike, or ``"mean"``)."""
    logits = _float_logits(logits)
    targets = np.asarray(targets, dtype=logits.dtype).reshape(-1)
    grad = _stable_sigmoid(logits) - targets
    if reduction == "mean":
        grad = grad / logits.shape[0]
    elif reduction not in ("sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    return grad


def reference_epilogue(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """The two-pass summed loss and logit gradient: the sigmoid/exp terms
    are evaluated once for the loss and once for the gradient."""
    loss = bce_with_logits(logits, targets, reduction="sum")
    grad = bce_with_logits_backward(logits, targets, reduction="sum")
    return loss, grad


@contextmanager
def reference_kernels(*, interaction: bool = True, loss: bool = True) -> Iterator[None]:
    """Train through the reference kernels for the duration of the block.

    ``interaction`` makes every interaction shape uncertified, so
    :class:`~repro.nn.interaction.DotInteractionKernel` and
    :func:`~repro.nn.interaction.dot_interaction` take the einsum
    reference; ``loss`` routes both models' loss epilogue (the skeleton's
    in :mod:`repro.models.dlrm`) through the two-pass
    :func:`reference_epilogue`.  Every patched name
    is restored on exit.  Not thread-safe: use from single-threaded test
    and measurement code only.
    """
    patches = []
    if interaction:
        patches.append((repro.nn.interaction, "interaction_certified", lambda *_: False))
    if loss:
        patches.append((repro.models.dlrm, "fused_bce_epilogue", reference_epilogue))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
