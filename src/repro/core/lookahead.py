"""BagPipe-style cached-embedding lookahead with bounded staleness.

Hotline hides the *dense* synchronisation by overlapping the accelerator
lane with CPU-side work; BagPipe (Agarwal et al.) shows the bigger win on
the *sparse* side: a **lookahead window** over the next ``W`` mini-batches
tells the trainer exactly which embedding rows the near future needs, so a
prefetcher can pull them into a per-replica cache ahead of time and the
optimizer can defer row write-backs while a row is still hot in the window.
:class:`CachedEmbeddingPipeline` maps that design onto this repo's
functional trainers:

* **Window** — the loader draws each epoch's sample order eagerly
  (``MiniBatchLoader.last_epoch_order``), so the pipeline can walk the
  *exact* upcoming batches of the in-flight epoch without touching the
  shuffling RNG.  At training step ``i`` the window holds batches
  ``[i, i + W]``: batch ``i + W`` *enters* (is examined and prefetched)
  while batch ``i`` trains, and batch ``i`` *retires* when its step ends —
  the same in-flight set BagPipe's lookahead process maintains.
* **Cache coherence** — cache membership is a per-table
  :class:`~repro.core.hotset.HotSetIndex` bitmap plus a per-row reference
  count of the window batches using the row.  A row is *filled* (DMA'd in)
  when the first window batch referencing it enters, and *evicted* when the
  last one retires.  Every replica fills the identical rows and applies the
  identical merged gradients, so the K per-replica caches stay coherent
  without any extra traffic — the same argument that lets
  :class:`~repro.core.placement.PartitionedEmbeddingPlacement` change
  accounting but never numerics; the pipeline therefore models one logical
  cache instance.
* **Flush rule (bounded staleness)** — merged sparse gradients of cached
  rows are *deferred*: they accumulate in the cache and only write back
  when the row leaves the window (eviction) or when the oldest deferred
  contribution reaches the staleness bound ``k`` — whichever comes first.
  Reads in between see the row at most ``k`` steps stale, the bounded
  staleness BagPipe proves convergence-safe.  ``k = 0`` flushes everything
  immediately, making the pipeline pure accounting: training is
  bit-identical to the non-cached run (the parity harness asserts it).
* **Pricing** — fill traffic is priced per step with
  :func:`~repro.hwsim.collectives.cache_fill_time`: the all-to-all
  round-trip with each row's owner plus the cache-fill DMA gather from host
  DRAM; evictions add the write-back DMA term.  Like the bucketed reducer,
  a pipeline built without a link prices everything at zero (numeric /
  accounting-only use).
* **Window-bounded flat pending store** — deferred write-backs live in a
  :class:`FlatPendingStore`: per table, a *compact* sorted array of the
  pending row ids, a parallel slot array indirecting into a
  geometrically-grown ``(capacity, dim)`` gradient slab, and a matching
  birth-step slab.  ``defer`` is two binary searches plus one scatter;
  the age/eviction flush is boolean-mask arithmetic over birth buckets;
  ``take`` is one gather + zero-fill — so the lookahead machinery itself
  is constant-overhead (no O(nnz) interpreter loop).  The original
  dict-of-rows implementation survives as :class:`ReferencePendingStore`
  (``pending_store="reference"``), the ground truth of the bit-parity
  suite and the speedup benchmark.

**The window-bound invariant.**  Only rows inside the ``W``-batch
lookahead window can ever be pending: a row defers while it is cached and
flushes no later than its eviction, so the pending set is a subset of the
cached row set (plus, transiently, the retiring batch's rows).  The store
exploits that: every structure it allocates — row ids, slot indirection,
value slab, birth slab — is sized to the *deferred* row set and grown
geometrically, never to the table.  ``rows_per_table`` only bounds id
validity; a store over a 10M-row Criteo-Terabyte table with a 4-batch
window allocates a few thousand rows, not 10 GB.  Slab capacity stays
under 2x the peak pending row count (capacity only doubles when
exceeded), :attr:`FlatPendingStore.pending_bytes` /
:attr:`FlatPendingStore.peak_pending_bytes` expose the live and
high-water footprint, and ``clear()`` / an emptying ``take_all()``
**free** the slabs rather than zeroing them, so reset and epoch-carry
paths release the memory they no longer need.

**Invariants** (asserted by the parity/regression suites):

1. Flushed gradients are bit-identical between the two stores: rows flush
   in sorted order and each row's value accumulates in arrival order.
2. A row's birth step is set exactly when it first defers and cleared
   exactly when it flushes; row array, slot array, value slab, and birth
   slab always move together (``reset``/``clear`` included), so no state
   survives a flush or a trainer re-bind.
3. Every deferred unit of gradient is applied exactly once — on eviction,
   at the staleness bound, at an epoch-boundary carry, or through the
   end-of-run :meth:`CachedEmbeddingPipeline.drain`.
4. Peak allocated pending-store bytes are proportional to the cached row
   set, never the table size (the footprint regression test drives a
   10M-row table through a small window and pins it).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.hotset import HotSetIndex
from repro.core.schedule import CommOp, FlatLinks
from repro.hwsim.collectives import comm_op_time
from repro.hwsim.dma import DMAEngine
from repro.hwsim.interconnect import Link
from repro.nn.embedding import SparseGradient, merge_sparse_gradients
from repro.nn.init import DTYPE


@dataclass
class LookaheadStats:
    """Observations of one training step of the cached pipeline.

    Attributes:
        cache_hits: Lookups of the trained batch whose row was already
            cached when the batch entered the window (prefetched for free
            by an earlier in-flight batch).
        cache_misses: Lookups whose row had to be freshly filled when the
            batch entered the window.
        fill_rows: Unique rows DMA'd into the cache while this step trained
            (the fills of every window entry pulled during the step).
        evicted_rows: Cached rows written back because they left the window.
        stale_rows: Deferred rows flushed because their oldest contribution
            reached the staleness bound — including a schedule's backlog
            written back when its epoch ends or the bound drops to zero.
        prefetch_time_s: Priced fill + write-back traffic of the step
            (all-to-all and DMA terms); hidden behind compute unless it
            outlives the step's compute window.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    fill_rows: int = 0
    evicted_rows: int = 0
    stale_rows: int = 0
    prefetch_time_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of the step's lookups served without a fresh fill."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class _WindowEntry:
    """One in-flight batch of the lookahead window."""

    __slots__ = ("fresh", "rows")

    def __init__(self, rows: list[np.ndarray], fresh: list[np.ndarray]):
        self.rows = rows  # per-table sorted unique rows the batch touches
        self.fresh = fresh  # per-table subset filled by this entry


def _in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``needles`` in a sorted unique ``haystack``."""
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    slots = np.searchsorted(haystack, needles)
    mask = slots < haystack.size
    mask[mask] = haystack[slots[mask]] == needles[mask]
    return mask


class ReferencePendingStore:
    """Dict-of-rows deferred write-back store — the bit-parity reference.

    The original (pre-flat-store) implementation: one ``dict[int,
    np.ndarray]`` of accumulated gradient rows plus one ``dict[int, int]``
    of birth steps per table.  Every ``defer``/``take`` walks the step's
    rows in the Python interpreter — O(nnz) dict churn per training step —
    which is exactly the overhead :class:`FlatPendingStore` removes.  It is
    retained as the ground truth the parity suite and the pending-store
    benchmark compare against (the same role the loop-based
    ``reference_forward``/``reference_backward`` play for the embedding hot
    path); select it with ``CachedEmbeddingPipeline(pending_store=
    "reference")``.
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

        API symmetry with :attr:`FlatPendingStore.pending_bytes`; the dict
        store is inherently window-bounded (it only ever holds deferred
        rows), it just pays the interpreter for it.
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


class FlatPendingStore:
    """Window-bounded flat-array deferred write-back store.

    Layout, per table — everything sized to the *deferred* row set, never
    the table (the window-bound invariant of the module docstring):

    * a **sorted row array** of the pending row ids (membership is one
      binary search — no table-sized bitmap),
    * a parallel **slot array** mapping each pending row to its slot in
    * a ``(capacity, dim)`` **gradient value slab** plus a matching
      **birth-step slab**, grown geometrically (capacity < 2x the peak
      pending row count) with a free-slot list recycling flushed slots.

    ``defer`` is two binary searches, one ``np.insert`` of the fresh rows,
    and one scatter through the slot indirection; ``take`` is one gather +
    zero-fill of the freed slots.  The age-based flush never scans
    anything: each ``defer`` appends its freshly-born rows to a per-table
    **birth-bucket deque** (buckets are in birth order because steps are),
    and ``aged_rows`` walks only the buckets past the staleness cutoff,
    validating their rows with one membership + birth-step mask pass (a
    row evicted or re-deferred since simply fails the check).  Fully
    invalidated aged buckets are pruned as they are seen, so the amortised
    cost is O(rows flushed), independent of the table size.

    The ``SparseGradient`` sorted-unique-indices contract is checked once
    at the ``defer`` boundary: gradients that violate it (hand-built
    duplicates) are routed through a duplicate-safe ``np.add.at`` scatter
    whose element order matches the dict reference's per-occurrence
    accumulation, so results stay bit-identical to
    :class:`ReferencePendingStore` either way (rows flush in sorted order;
    per-row values accumulate in arrival order), which the parity suite
    asserts.  ``clear()`` and an emptying ``take_all()`` **free** the
    slabs (reset / epoch-carry paths release memory, not just zero it),
    and :attr:`pending_bytes` / :attr:`peak_pending_bytes` expose the
    footprint the regression suite and benchmark artifact pin.
    """

    def __init__(self, rows_per_table: tuple[int, ...]):
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        num_tables = len(self.rows_per_table)
        #: Sorted pending row ids per table (compact, window-bounded).
        self._rows: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(num_tables)
        ]
        #: Slab slot of each pending row, aligned with ``_rows``.
        self._slots: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(num_tables)
        ]
        # Value/birth slabs are allocated lazily at the first deferred
        # gradient (matching its dtype/width) and grown geometrically, so
        # a store that never defers (the stale-0 fast path) costs nothing
        # and one that does stays proportional to its pending set.
        self._values: list[np.ndarray | None] = [None] * num_tables
        self._births: list[np.ndarray | None] = [None] * num_tables
        #: Recycled slab slots (flushed rows' slots, already zeroed).
        self._free: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(num_tables)
        ]
        #: Per-table ``(birth step, rows born then)`` buckets, birth order.
        self._buckets: list[deque[tuple[int, np.ndarray]]] = [
            deque() for _ in range(num_tables)
        ]
        self._peak_bytes = 0

    @property
    def num_tables(self) -> int:
        """Number of tables the store covers."""
        return len(self.rows_per_table)

    @property
    def total_pending(self) -> int:
        """Deferred (not yet written back) rows across tables."""
        return sum(rows.size for rows in self._rows)

    def pending_count(self, table: int) -> int:
        """Deferred rows of one table."""
        return int(self._rows[table].size)

    @property
    def pending_bytes(self) -> int:
        """Bytes currently allocated by the store, across all tables.

        Counts the compact row/slot/free arrays and the value/birth slabs
        — by construction proportional to the pending row set (the
        window-bound invariant), never to ``rows_per_table``.
        """
        total = 0
        for table in range(self.num_tables):
            total += (
                self._rows[table].nbytes
                + self._slots[table].nbytes
                + self._free[table].nbytes
            )
            if self._values[table] is not None:
                total += self._values[table].nbytes + self._births[table].nbytes
        return total

    @property
    def peak_pending_bytes(self) -> int:
        """High-water mark of :attr:`pending_bytes` (reset by ``clear``)."""
        return self._peak_bytes

    def _allocate_slots(self, table: int, count: int, dim: int, dtype) -> np.ndarray:
        """Hand out ``count`` zeroed slab slots, growing the slabs if needed."""
        free = self._free[table]
        if free.size >= count:
            self._free[table] = free[count:]
            return free[:count]
        values = self._values[table]
        capacity = 0 if values is None else values.shape[0]
        need = count - free.size
        # Doubling keeps amortised growth O(1) and caps the slab at <2x
        # the peak pending row count — the bound the footprint test and
        # the bench-gate artifact assert against.
        new_capacity = max(2 * capacity, capacity + need)
        grown_values = np.zeros((new_capacity, dim), dtype=dtype)
        grown_births = np.zeros(new_capacity, dtype=np.int64)
        if values is not None:
            grown_values[:capacity] = values
            grown_births[:capacity] = self._births[table]
        self._values[table] = grown_values
        self._births[table] = grown_births
        taken = np.concatenate(
            [free, np.arange(capacity, capacity + need, dtype=np.int64)]
        )
        self._free[table] = np.arange(capacity + need, new_capacity, dtype=np.int64)
        return taken

    def defer(self, table: int, grad: SparseGradient, step: int) -> None:
        """Accumulate one merged gradient; new rows are born at ``step``."""
        if grad.nnz == 0:
            return
        indices = grad.indices
        # The SparseGradient contract (sorted unique indices) is checked
        # once here, at the boundary; violating gradients take the
        # duplicate-safe scatter below instead of silently corrupting the
        # fast path's one-write-per-row assumption.
        sorted_unique = indices.size <= 1 or not np.any(np.diff(indices) <= 0)
        unique_indices = indices if sorted_unique else np.unique(indices)
        rows = self._rows[table]
        pos = np.searchsorted(rows, unique_indices)
        present = pos < rows.size
        present[present] = rows[pos[present]] == unique_indices[present]
        fresh = unique_indices[~present]
        if fresh.size:
            slots_new = self._allocate_slots(
                table, fresh.size, grad.values.shape[1], grad.values.dtype
            )
            self._births[table][slots_new] = step
            insert_at = pos[~present]
            self._rows[table] = np.insert(rows, insert_at, fresh)
            self._slots[table] = np.insert(self._slots[table], insert_at, slots_new)
            self._buckets[table].append((step, fresh))
            rows = self._rows[table]
        slots_all = self._slots[table][np.searchsorted(rows, indices)]
        if sorted_unique:
            # Sorted unique indices hit every slot exactly once — the
            # fancy-index add equals the np.add.at scatter at a fraction
            # of its cost.  Freed/fresh slots read zero, so accumulating
            # into them matches the reference's arrival-order sums.
            self._values[table][slots_all] += grad.values
        else:
            # Duplicate (or unsorted) row ids: the duplicate-safe scatter
            # accumulates per-occurrence contributions exactly as the dict
            # reference accumulates them.
            np.add.at(self._values[table], slots_all, grad.values)
        live = self.pending_bytes
        if live > self._peak_bytes:
            self._peak_bytes = live

    def pending_mask(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over ``rows``: True where the row is deferred."""
        return _in_sorted(self._rows[table], np.asarray(rows, dtype=np.int64))

    def aged_rows(self, table: int, step: int, staleness: int) -> np.ndarray:
        """Sorted rows whose oldest contribution is ``staleness`` steps old.

        Walks only the birth buckets past the cutoff: a bucket row is
        still aged-and-pending iff it is in the pending row array with its
        original birth step (eviction flushes and re-deferrals invalidate
        it).  Buckets that turn out fully invalid are dropped; partially
        valid ones are compacted and kept until their rows flush, so
        repeated queries stay cheap and nothing ever rescans the table.
        """
        buckets = self._buckets[table]
        rows = self._rows[table]
        if rows.size == 0 or not buckets:
            return np.empty(0, dtype=np.int64)
        cutoff = step - staleness
        slots = self._slots[table]
        births = self._births[table]
        collected: list[np.ndarray] = []
        still_valid: list[tuple[int, np.ndarray]] = []
        while buckets and buckets[0][0] <= cutoff:
            birth, bucket_rows = buckets.popleft()
            candidates = bucket_rows[_in_sorted(rows, bucket_rows)]
            if candidates.size:
                positions = np.searchsorted(rows, candidates)
                valid = candidates[births[slots[positions]] == birth]
            else:
                valid = candidates
            if valid.size:
                collected.append(valid)
                still_valid.append((birth, valid))
        # Aged-but-unflushed rows stay queued (compacted) in birth order.
        for bucket in reversed(still_valid):
            buckets.appendleft(bucket)
        if not collected:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(collected))

    def birth_steps(self, table: int) -> dict[int, int]:
        """``{row: birth step}`` of one table's deferred rows (tests)."""
        rows = self._rows[table]
        if rows.size == 0:
            return {}
        births = self._births[table][self._slots[table]]
        return {int(row): int(birth) for row, birth in zip(rows, births, strict=True)}

    def take(self, table: int, rows: np.ndarray) -> SparseGradient:
        """Remove the deferred subset of ``rows`` as one sparse gradient.

        ``rows`` must be sorted.  One membership pass selects the deferred
        subset, one slab gather copies it out, and the freed slots are
        zeroed and recycled — row array, slot array, value slab, and birth
        slab always move together (a reused trainer can never observe a
        row whose gradient was cleared but whose birth survived, or vice
        versa).
        """
        rows = np.asarray(rows, dtype=np.int64)
        pending = self._rows[table]
        if rows.size:
            rows = rows[_in_sorted(pending, rows)]
        slab = self._values[table]
        if rows.size == 0 or slab is None:
            return SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, 0), dtype=DTYPE))
        positions = np.searchsorted(pending, rows)
        slots = self._slots[table][positions]
        values = slab[slots].copy()
        slab[slots] = 0.0  # recycled slots must read zero for the next +=
        keep = np.ones(pending.size, dtype=bool)
        keep[positions] = False
        self._rows[table] = pending[keep]
        self._slots[table] = self._slots[table][keep]
        self._free[table] = np.concatenate([self._free[table], slots])
        return SparseGradient(rows, values)

    def take_all(self, table: int) -> SparseGradient:
        """Remove and return everything deferred for one table.

        Emptying a table releases its slabs entirely: the full-flush paths
        (epoch carry, end-of-run drain, stale-0 backlog) free the memory
        instead of keeping zeroed capacity alive across epochs.
        """
        taken = self.take(table, self._rows[table])
        if self._rows[table].size == 0:
            self._release_table(table)
        return taken

    def _release_table(self, table: int) -> None:
        """Free one table's slabs and bookkeeping (drops, never zeroes)."""
        self._rows[table] = np.empty(0, dtype=np.int64)
        self._slots[table] = np.empty(0, dtype=np.int64)
        self._values[table] = None
        self._births[table] = None
        self._free[table] = np.empty(0, dtype=np.int64)
        self._buckets[table].clear()

    def clear(self) -> None:
        """Free all deferred gradients and their birth steps, atomically.

        Row arrays, slot arrays, value slabs, and birth slabs are released
        together (freed, not zeroed — a reset store holds no window's
        worth of capacity), and the footprint high-water mark restarts:
        the regression suite pins that a reused trainer starts from a
        state indistinguishable from a fresh store.
        """
        for table in range(self.num_tables):
            self._release_table(table)
        self._peak_bytes = 0


def make_pending_store(
    kind: str, rows_per_table: tuple[int, ...]
) -> FlatPendingStore | ReferencePendingStore:
    """Build a deferred write-back store by name (``"flat"``/``"reference"``)."""
    if kind == "flat":
        return FlatPendingStore(rows_per_table)
    if kind == "reference":
        return ReferencePendingStore(rows_per_table)
    raise ValueError(f"unknown pending store {kind!r} (expected 'flat' or 'reference')")


def epoch_row_stream(loader) -> Iterator[list[np.ndarray]]:
    """Per-batch, per-table unique-row arrays of the loader's current epoch.

    Mirrors the batches of the epoch the loader most recently started
    (``loader.last_epoch_order``, drawn eagerly before iteration begins)
    by slicing the click log directly — the loader's shuffling RNG is never
    touched, so walking ahead here cannot perturb the training stream.

    The per-epoch ``np.unique`` passes are memoised on the loader, keyed on
    the *identity* of ``loader.last_epoch_order`` (plus the log's sparse
    block and the batch bounds): replayed epochs — every epoch of an
    unshuffled loader, and any second walk over the same drawn order —
    yield the cached arrays and pay nothing.  A shuffled loader draws a
    fresh order array each epoch, so its identity changes and the stream is
    recomputed.  The cache holds references to its key objects, so ``id``
    reuse after garbage collection can never cause a false hit, and it is
    only installed once a walk completes (a partial walk never poisons it).
    Treat the yielded arrays as read-only — they are shared across walks.
    """
    order = getattr(loader, "last_epoch_order", None)
    log = loader.log
    bounds = list(loader.batch_bounds())
    cached = getattr(loader, "_row_stream_cache", None)
    if (
        cached is not None
        and cached[0] is order
        and cached[1] is log.sparse
        and cached[2] == bounds
    ):
        yield from cached[3]
        return
    rows_per_batch: list[list[np.ndarray]] = []
    for start, stop in bounds:
        block = log.sparse[start:stop] if order is None else log.sparse[order[start:stop]]
        rows = [np.unique(block[:, table, :]) for table in range(block.shape[1])]
        rows_per_batch.append(rows)
        yield rows
    # Reached only when the walk completed (generators abandoned mid-epoch
    # never install a partial stream).
    try:
        loader._row_stream_cache = (order, log.sparse, bounds, rows_per_batch)
    except AttributeError:  # loaders that forbid ad-hoc attributes
        pass


def shard_epoch_row_stream(
    loader, shard: int, num_shards: int
) -> Iterator[list[np.ndarray]]:
    """Per-batch unique-row arrays of one shard's slice of each batch.

    The per-shard counterpart of :func:`epoch_row_stream`: each yielded
    list holds the unique rows that *shard ``shard``'s* contiguous slice
    of the batch touches, using the same balanced-split arithmetic as
    :meth:`~repro.data.batch.MiniBatch.shards` (``bounds[k] = (k * size)
    // num_shards``), so the stream matches exactly the shard batches the
    trainer hands each replica.  Used by the per-shard accounting
    lookahead caches, whose windows (and therefore fill traffic and
    capacity) differentiate by shard; the walk is read-only with respect
    to the loader's RNG, like the global stream.
    """
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard {shard} out of range for {num_shards} shards")
    order = getattr(loader, "last_epoch_order", None)
    log = loader.log
    for start, stop in loader.batch_bounds():
        block = (
            log.sparse[start:stop] if order is None else log.sparse[order[start:stop]]
        )
        size = block.shape[0]
        lo = (shard * size) // num_shards
        hi = ((shard + 1) * size) // num_shards
        sub = block[lo:hi]
        yield [np.unique(sub[:, table, :]) for table in range(block.shape[1])]


class WindowRefcounts:
    """Compact per-table reference counts of the window's cached rows.

    The lookahead window needs, per cached row, how many in-flight window
    batches reference it (fill on first reference, evict on last).  A
    table-sized int32 array answers that in O(1) per row but costs
    40 MB per 10M-row Criteo-Terabyte table — the same O(table) footprint
    :class:`FlatPendingStore` was built to avoid.  This class mirrors the
    store's compact layout instead: per table, a sorted int64 array of
    the rows currently referenced and a parallel int32 count array, both
    sized to the *window's* row set and empty when nothing is cached.

    Like the pending store (and the ``_in_sorted`` helper both lean on),
    it relies on the window invariant that every entry's per-table row
    array is **sorted and unique** — the ``np.unique`` output of the
    epoch row streams and the self-feed path — so membership is one
    ``searchsorted`` per batch.
    """

    def __init__(self, rows_per_table: tuple[int, ...]):
        self.num_tables = len(rows_per_table)
        self._rows: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self.num_tables)
        ]
        self._counts: list[np.ndarray] = [
            np.empty(0, dtype=np.int32) for _ in range(self.num_tables)
        ]

    def clear(self) -> None:
        """Drop every reference (a window reset): all counts become zero."""
        for table in range(self.num_tables):
            self._rows[table] = np.empty(0, dtype=np.int64)
            self._counts[table] = np.empty(0, dtype=np.int32)

    @property
    def nbytes(self) -> int:
        """Bookkeeping bytes — O(referenced rows), never O(table)."""
        return int(
            sum(rows.nbytes for rows in self._rows)
            + sum(counts.nbytes for counts in self._counts)
        )

    def tracked_rows(self, table: int) -> int:
        """Rows of one table currently holding a non-zero reference count."""
        return int(self._rows[table].size)

    def enter(self, table: int, rows: np.ndarray) -> None:
        """A batch enters the window: count its (sorted-unique) rows."""
        if rows.size == 0:
            return
        held = self._rows[table]
        counts = self._counts[table]
        slots = np.searchsorted(held, rows)
        in_bounds = slots < held.size
        present = np.zeros(rows.size, dtype=bool)
        present[in_bounds] = held[slots[in_bounds]] == rows[in_bounds]
        counts[slots[present]] += 1
        fresh = rows[~present]
        if fresh.size:
            insert_at = slots[~present]
            self._rows[table] = np.insert(held, insert_at, fresh)
            self._counts[table] = np.insert(counts, insert_at, np.int32(1))

    def release(self, table: int, rows: np.ndarray) -> np.ndarray:
        """A batch retires: drop one reference per row.

        Returns the rows whose count reached zero (in input order — the
        rows the cache must evict), and removes them from the layout so
        the footprint tracks the live window.  Every released row must
        currently be referenced (the window pairs each ``release`` with
        an earlier ``enter`` of the same rows).
        """
        if rows.size == 0:
            return rows
        held = self._rows[table]
        counts = self._counts[table]
        slots = np.searchsorted(held, rows)
        counts[slots] -= 1
        zeroed = counts[slots] == 0
        gone = rows[zeroed]
        if gone.size:
            keep = np.ones(held.size, dtype=bool)
            keep[slots[zeroed]] = False
            self._rows[table] = held[keep]
            self._counts[table] = counts[keep]
        return gone


class CachedEmbeddingPipeline:
    """Lookahead-window embedding cache with bounded-staleness write-back.

    Drive it once per training step, in order:

    1. :meth:`observe` with the step's ``(batch, tables, pooling)`` index
       block *before* the forward pass — advances the window (prefetching
       the batch entering it) and accounts the step's cache hits.
    2. :meth:`defer` with the step's merged per-table sparse gradients
       *after* the backward pass — accumulates them into the cache, retires
       the trained batch, and returns the per-table gradients that must be
       applied **now** (evicted rows + rows at the staleness bound).

    :meth:`begin_epoch` resets the window onto a fresh batch stream
    (normally :func:`epoch_row_stream`) and returns any still-deferred
    gradient from the previous epoch for the caller to apply first.  With
    no stream the pipeline self-feeds from the observed batches — the
    window degenerates to the current batch (no lookahead), but every
    guarantee still holds.

    Args:
        rows_per_table: Embedding-table sizes (bounds the cache bitmaps).
        window: Lookahead depth ``W`` — how many batches beyond the current
            one are prefetched and kept cached.
        staleness: Bound ``k`` on how many steps a deferred row update may
            wait before it must write back.  ``0`` = immediate application
            (numerics identical to an uncached run).
        row_bytes: Wire/DMA bytes per embedding row.
        num_replicas: Data-parallel replicas filling their (coherent) caches.
        link: Interconnect pricing the fill all-to-all; ``None`` prices all
            traffic at zero (accounting-only use).
        dma: DMA engine whose counters track fill/write-back bytes; a
            private engine is created when omitted.
        pending_store: Deferred write-back store implementation — ``"flat"``
            (default) for the vectorised :class:`FlatPendingStore`,
            ``"reference"`` for the dict-based
            :class:`ReferencePendingStore` parity ground truth.
        price_fills: Whether :meth:`observe` prices fill traffic.  Leave
            on for the pipeline that owns the deferral numerics; turn off
            when per-shard accounting pipelines price the fills instead
            (the per-shard lookahead of
            :class:`~repro.core.distributed.ShardedHotlineTrainer`), so
            the same fill is never charged twice.
    """

    def __init__(
        self,
        rows_per_table: tuple[int, ...],
        *,
        window: int,
        staleness: int = 0,
        row_bytes: int = 4,
        num_replicas: int = 1,
        link: Link | None = None,
        dma: DMAEngine | None = None,
        pending_store: str = "flat",
        price_fills: bool = True,
    ):
        if window < 0:
            raise ValueError("window must be >= 0")
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        if row_bytes <= 0 or num_replicas <= 0:
            raise ValueError("row_bytes and num_replicas must be positive")
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self.window = int(window)
        self.staleness = int(staleness)
        self.row_bytes = int(row_bytes)
        self.num_replicas = int(num_replicas)
        self.link = link
        self.dma = dma or DMAEngine()
        self.price_fills = bool(price_fills)
        num_tables = len(self.rows_per_table)
        #: Cache membership: one HotSetIndex bitmap per table.
        self.cache = HotSetIndex(
            [np.empty(0, dtype=np.int64) for _ in range(num_tables)],
            self.rows_per_table,
        )
        self._refcounts = WindowRefcounts(self.rows_per_table)
        self._entries: deque[_WindowEntry] = deque()
        self._stream: Iterator[list[np.ndarray]] | None = None
        #: Deferred write-back store (flat arrays by default).
        self.pending = make_pending_store(pending_store, self.rows_per_table)
        self._step = 0
        #: Epoch-carry write-back charge folded into the next step's stats.
        self._carry_rows = 0
        self._carry_time_s = 0.0
        #: Stats of the most recent observe/defer cycle.
        self.last_stats = LookaheadStats()

    @property
    def num_tables(self) -> int:
        """Number of cached embedding tables."""
        return len(self.rows_per_table)

    @property
    def cached_rows_total(self) -> int:
        """Current cache occupancy across tables (bitmap popcount)."""
        return sum(self.cache.hot_count(table) for table in range(self.num_tables))

    @property
    def pending_rows_total(self) -> int:
        """Deferred (not yet written back) rows across tables."""
        return self.pending.total_pending

    @property
    def pending_bytes(self) -> int:
        """Bytes currently allocated by the deferred write-back store."""
        return int(getattr(self.pending, "pending_bytes", 0))

    @property
    def peak_pending_bytes(self) -> int:
        """High-water mark of the store's allocation (0 if untracked)."""
        return int(getattr(self.pending, "peak_pending_bytes", 0))

    @property
    def refcount_bytes(self) -> int:
        """Bytes of the window's compact refcount layout — O(cached rows)."""
        return self._refcounts.nbytes

    # ------------------------------------------------------------------ #
    # Traffic pricing (one CommOp per charge)
    # ------------------------------------------------------------------ #
    def _fill_time(self, fills: int) -> float:
        """Price one step's cache fills as a tiered ``fill`` op.

        Resolves — through :func:`~repro.hwsim.collectives.comm_op_time`
        — to exactly one :func:`~repro.hwsim.collectives.cache_fill_time`
        call on the pipeline's link and DMA engine, so the engine's
        traffic counters see one charge per priced fill batch, as before
        the schedule-layer migration.
        """
        op = CommOp(
            "fill",
            tier="node",
            rows=fills,
            row_bytes=self.row_bytes,
            participants=self.num_replicas,
        )
        return comm_op_time(op, FlatLinks(self.link), dma=self.dma)

    def _writeback_time(self, rows: int) -> float:
        """Price a write-back flush of ``rows`` as one ``writeback`` op.

        One DMA write charge per flush — the counter-lifetime contract of
        :class:`~repro.hwsim.dma.DMAEngine` requires exactly one pricing
        call per charge, which is why every flush path funnels through
        here.
        """
        op = CommOp("writeback", tier="pcie", rows=rows, row_bytes=self.row_bytes)
        return comm_op_time(op, FlatLinks(self.link), dma=self.dma)

    # ------------------------------------------------------------------ #
    # Epoch lifecycle
    # ------------------------------------------------------------------ #
    def begin_epoch(
        self, stream: Iterator[list[np.ndarray]] | None
    ) -> list[SparseGradient] | None:
        """Reset the window onto a new epoch's batch stream.

        Returns the per-table gradient of everything still deferred from
        the previous epoch (the caller applies it before the next forward
        pass), or ``None`` when nothing was pending.  The cache itself is
        cleared: a shuffled epoch invalidates the old window.  The carry
        writes back like any other flush, so its rows and DMA traffic are
        charged — folded into the *next* step's stats, since the boundary
        itself has no step of its own.
        """
        carry, rows, time_s = self._priced_flush_all()
        self._carry_rows += rows
        self._carry_time_s += time_s
        self._reset_window(stream)
        return carry

    def reset(self) -> None:
        """Discard all in-flight state: window, cache, deferred write-backs.

        For a trainer re-bound to start a fresh run: the deferred gradients
        belong to the previous run's schedule and are *dropped*, not
        carried (mirroring the dense stale-k deque, whose in-flight reduces
        die with their run) — applying them would contaminate the new run
        with the old run's data.  The store clears its gradient buffers and
        birth arrays in one atomic pass, so a reused trainer cannot inherit
        a stale birth step for a fresh deferral (the PR 5 regression suite
        pins this alongside the PR 4 ``bind()`` fix).  The DMA engine's
        traffic counters reset too: a reused trainer's reported fill/
        write-back bytes describe *its* run, not the previous one's (the
        rebind counter-lifetime regression pins this).
        """
        self.pending.clear()
        self.dma.reset_counters()
        self._reset_window(None)
        self._step = 0
        self._carry_rows = 0
        self._carry_time_s = 0.0
        self.last_stats = LookaheadStats()

    def _reset_window(self, stream: Iterator[list[np.ndarray]] | None) -> None:
        self._stream = iter(stream) if stream is not None else None
        self._entries.clear()
        self._refcounts.clear()
        for table in range(self.num_tables):
            self.cache.replace_table(table, np.empty(0, dtype=np.int64))

    def _flush_all(self) -> list[SparseGradient] | None:
        # Always walk ``take_all`` (even when nothing is pending): it is
        # what frees the store's compact slabs, so an epoch boundary or
        # drain leaves no capacity behind — the window-bound invariant's
        # "free, don't zero" half.
        flushed = [self.pending.take_all(table) for table in range(self.num_tables)]
        if all(grad.nnz == 0 for grad in flushed):
            return None
        return flushed

    def _priced_flush_all(self) -> tuple[list[SparseGradient] | None, int, float]:
        """Flush every deferred write-back and price its DMA traffic.

        The single pricing point for all three full-flush paths (epoch
        carry, end-of-run drain, and the stale-0 backlog), so a change to
        the write-back cost model cannot make their accounting diverge.

        Returns:
            ``(flushed gradients or None, flushed rows, priced seconds)``.
        """
        flushed = self._flush_all()
        if flushed is None:
            return None, 0, 0.0
        rows = sum(grad.nnz for grad in flushed)
        time_s = 0.0
        if self.link is not None and rows:
            time_s = self._writeback_time(rows)
        return flushed, rows, time_s

    def drain(self) -> list[SparseGradient] | None:
        """End-of-run flush: everything still deferred writes back *now*.

        The executor ``finalize()`` hook calls this so a run's last
        in-flight sparse updates are applied before the final evaluation
        instead of dying with the run (which made a stale-k sweep's final
        metrics fold a dropped-tail effect into the staleness effect).
        The write-back is priced like any other flush and reported through
        :attr:`last_stats`; the window is left untouched — a drained
        pipeline can keep training, it just holds no deferred gradient.

        Returns:
            Per-table gradients to apply, or ``None`` if nothing was
            deferred.
        """
        flushed, rows, time_s = self._priced_flush_all()
        if flushed is None:
            return None
        self.last_stats = LookaheadStats(stale_rows=rows, prefetch_time_s=time_s)
        return flushed

    # ------------------------------------------------------------------ #
    # Step lifecycle: observe (pre-forward) + defer (post-backward)
    # ------------------------------------------------------------------ #
    def observe(self, sparse: np.ndarray) -> LookaheadStats:
        """Advance the window for one training step and account its hits.

        Args:
            sparse: The trained batch's ``(batch, tables, pooling)`` index
                block.

        Returns:
            The step's :class:`LookaheadStats` (also kept as
            :attr:`last_stats`; :meth:`defer` adds the flush counters).
        """
        sparse = np.asarray(sparse)
        if sparse.ndim != 3 or sparse.shape[1] != self.num_tables:
            raise ValueError("sparse must be 3-D (batch, num_tables, pooling)")
        stats = LookaheadStats()
        # Pull window entries until the batch `window` steps ahead of the
        # trained one has entered (the prefetcher runs W batches ahead).
        fills = 0
        while len(self._entries) <= self.window:
            if not self._pull_entry():
                break
            fills += sum(entry_fresh.size for entry_fresh in self._entries[-1].fresh)
        if not self._entries:
            # Self-feed: no stream — the observed batch is its own entry.
            self._enter(
                [np.unique(sparse[:, table, :]) for table in range(self.num_tables)]
            )
            fills += sum(entry_fresh.size for entry_fresh in self._entries[-1].fresh)
        entry = self._entries[0]
        for table in range(self.num_tables):
            lookups = sparse[:, table, :].ravel()
            misses = int(_in_sorted(entry.fresh[table], lookups).sum())
            stats.cache_misses += misses
            stats.cache_hits += lookups.size - misses
        stats.fill_rows = fills
        if self.link is not None and fills and self.price_fills:
            stats.prefetch_time_s = self._fill_time(fills)
        if self._carry_rows:
            # The previous epoch's backlog wrote back at the boundary.
            stats.stale_rows += self._carry_rows
            stats.prefetch_time_s += self._carry_time_s
            self._carry_rows = 0
            self._carry_time_s = 0.0
        self.last_stats = stats
        return stats

    def _pull_entry(self) -> bool:
        if self._stream is None:
            return False
        try:
            rows = next(self._stream)
        except StopIteration:
            self._stream = None
            return False
        self._enter([np.asarray(table_rows, dtype=np.int64) for table_rows in rows])
        return True

    def _enter(self, rows: list[np.ndarray]) -> None:
        """A batch enters the window: fill its uncached rows, take refs."""
        fresh: list[np.ndarray] = []
        for table, table_rows in enumerate(rows):
            cached = self.cache.contains(table, table_rows)
            new_rows = table_rows[~cached]
            if new_rows.size:
                self.cache.set_rows(table, new_rows)
            self._refcounts.enter(table, table_rows)
            fresh.append(new_rows)
        self._entries.append(_WindowEntry(rows, fresh))

    def defer(self, merged: list[SparseGradient]) -> list[SparseGradient]:
        """Absorb one step's merged gradients; return what must apply now.

        With ``staleness == 0`` the input is returned untouched (the
        bit-parity fast path; anything still deferred from a higher
        earlier bound is flushed alongside it, never stranded).  Otherwise
        the gradients accumulate in the cache and the returned per-table
        gradients contain exactly the flushed rows: those evicted as the
        trained batch retires plus those whose oldest deferred
        contribution is ``staleness`` steps old.
        """
        if len(merged) != self.num_tables:
            raise ValueError(
                f"expected gradients for {self.num_tables} tables, got {len(merged)}"
            )
        stats = self.last_stats
        step = self._step
        self._step += 1
        evicted = self._retire()
        stats.evicted_rows = sum(table_rows.size for table_rows in evicted)
        if self.staleness == 0:
            if self.pending_rows_total == 0:
                return list(merged)
            # The backlog writes back like any other flush — price it, so
            # a bound lowered to 0 mid-run does not make the same traffic
            # momentarily free.
            backlog, backlog_rows, backlog_time_s = self._priced_flush_all()
            stats.stale_rows += backlog_rows
            stats.prefetch_time_s += backlog_time_s
            return [
                merge_sparse_gradients([carried, grad]) if carried.nnz else grad
                for carried, grad in zip(backlog, merged, strict=True)
            ]
        writeback_rows = 0
        flushed: list[SparseGradient] = []
        for table, grad in enumerate(merged):
            self.pending.defer(table, grad, step)
            # Flush rule: a deferred row writes back when it leaves the
            # window or its oldest contribution reaches the bound.  Both
            # sets come out of the store as sorted arrays, so the union
            # (and therefore the flushed gradient's row order) matches the
            # reference store's sorted-dict walk bit for bit.
            evicted_pending = evicted[table][
                self.pending.pending_mask(table, evicted[table])
            ]
            aged = self.pending.aged_rows(table, step, self.staleness)
            stats.stale_rows += int(aged.size - _in_sorted(evicted_pending, aged).sum())
            grad_out = self.pending.take(table, np.union1d(evicted_pending, aged))
            writeback_rows += grad_out.nnz
            flushed.append(grad_out)
        if self.link is not None and writeback_rows:
            stats.prefetch_time_s += self._writeback_time(writeback_rows)
        return flushed

    def _retire(self) -> list[np.ndarray]:
        """The trained batch leaves the window; evict rows it last used."""
        if not self._entries:
            return [np.empty(0, dtype=np.int64) for _ in range(self.num_tables)]
        entry = self._entries.popleft()
        evicted: list[np.ndarray] = []
        for table, table_rows in enumerate(entry.rows):
            gone = self._refcounts.release(table, table_rows)
            if gone.size:
                self.cache.clear_rows(table, gone)
            evicted.append(gone)
        return evicted
