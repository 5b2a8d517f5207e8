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
* **Cache coherence** — every row carries a reference count of the window
  batches using it.  A row is *filled* (DMA'd in) when the first window
  batch referencing it enters, and *evicted* when the last one retires, so
  a row is cached exactly while its count is positive: the counted rows
  *are* the cache.  Every replica fills the identical rows and applies the
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

**Layout: one flat key space.**  Every structure keys row ``r`` of table
``t`` as ``offsets[t] + r`` (:func:`~repro.nn.embedding.key_offsets`), the
format the models' sparse gradients already carry.  The epoch stream
yields one sorted key array per batch, the :class:`WindowRefcounts` are
one sorted key array with aligned int32 counts, and the deferred
write-backs live in one :class:`FlatPendingStore` of the same shape: a
sorted int64 array of the pending keys with an aligned ``(n, dim)``
gradient array and an aligned int64 birth-step array.  So ``observe`` and
``defer`` each make one pass per step whatever the table count: ``defer``
is one binary search, one insert of the fresh keys and one scatter, the
age flush is one mask over the birth steps, and ``take`` is one gather
plus one compaction.  Sorted keys are table-major and row-ascending, so
every flush, birth and counter equals a per-table layout's.  The original
dict-of-rows implementation lives in the test oracle (``tests/oracle.py``:
``ReferencePendingStore``, swapped in as ``pipeline.pending``), the ground
truth of the bit-parity suite and the speedup benchmark.

**The window-bound invariant.**  Only rows inside the ``W``-batch
lookahead window can ever be pending: a row defers while it is cached and
flushes no later than its eviction, so the pending set is a subset of the
cached row set (plus, transiently, the retiring batch's rows).  The
store's three arrays hold exactly the pending rows, nothing sized to the
tables and no spare capacity: a store over a 10M-row Criteo-Terabyte
table with a 4-batch window holds a few thousand rows, not 10 GB.
:attr:`FlatPendingStore.pending_bytes` (``16 + dim * itemsize`` bytes per
pending row) and :attr:`FlatPendingStore.peak_pending_bytes` count exactly
those arrays, and ``clear()`` / an emptying ``take_all()`` **free** them,
so reset and epoch-carry paths release the memory they no longer need.

**Invariants** (asserted by the parity/regression suites):

1. Flushed gradients are bit-identical between the two stores: keys flush
   in sorted order and each key's value accumulates in arrival order.
2. A key's birth step is set exactly when it first defers and cleared
   exactly when it flushes; the key, value and birth arrays always move
   together (``reset``/``clear`` included), so no state survives a flush
   or a trainer re-bind.
3. Every deferred unit of gradient is applied exactly once — on eviction,
   at the staleness bound, at an epoch-boundary carry, or through the
   end-of-run :meth:`CachedEmbeddingPipeline.drain`.
4. Peak allocated pending-store bytes are proportional to the cached row
   set, never the table sizes (the footprint regression test drives
   10M-row tables through a small window and pins it).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.schedule import CommOp, FlatLinks
from repro.hwsim.collectives import comm_op_time
from repro.hwsim.dma import DMAEngine
from repro.hwsim.interconnect import Link
from repro.nn.embedding import (
    SparseGradient,
    _in_sorted,
    check_ids,
    key_offsets,
    scatter_add_rows,
)
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
            written back when its epoch ends.
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


class _WindowEntry:
    """One in-flight batch of the lookahead window."""

    __slots__ = ("fresh", "keys")

    def __init__(self, keys: np.ndarray, fresh: np.ndarray):
        self.keys = keys  # sorted unique keys the batch touches
        self.fresh = fresh  # the subset filled by this entry


class FlatPendingStore:
    """Window-bounded deferred write-back store: three aligned arrays.

    A sorted int64 array of the pending keys (every table's flat keys), an
    aligned ``(n, dim)`` array of their accumulated gradients and an
    aligned int64 array of their birth steps: the layout of
    :class:`WindowRefcounts` and the hot tier, sized to the *deferred* row
    set (the window-bound invariant of the module docstring).  The value
    and birth arrays are allocated at the first ``defer`` (matching its
    dtype and width) and freed, with the keys, by ``clear()`` and by a
    ``take_all()`` that empties the store.

    ``defer`` is one binary search, one ``np.insert`` per array for the
    fresh keys (zero value rows, born at the step) and one scatter-add;
    ``aged_rows`` is one mask over the birth steps; ``take`` is one gather
    and one keep-mask compaction.

    The ``SparseGradient`` sorted-unique-indices contract is checked once
    at the ``defer`` boundary: gradients that violate it (hand-built
    duplicates) are routed through the duplicate-safe ``scatter_add_rows``,
    whose element order matches the dict reference's per-occurrence
    accumulation, so results stay bit-identical to the test oracle's
    ``ReferencePendingStore`` either way (keys flush in sorted order;
    per-key values accumulate in arrival order), which the parity suite
    asserts.  :attr:`pending_bytes` / :attr:`peak_pending_bytes` count the
    three arrays exactly.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        # Allocated at the first deferred gradient, so a store that never
        # defers (the stale-0 fast path) holds nothing.
        self._values: np.ndarray | None = None
        self._births: np.ndarray | None = None
        self._peak_bytes = 0

    @property
    def total_pending(self) -> int:
        """Deferred (not yet written back) rows across tables."""
        return int(self._keys.size)

    @property
    def pending_bytes(self) -> int:
        """Bytes held by the key, value and birth arrays: ``16 + dim *
        itemsize`` per pending row, never anything sized to the tables."""
        if self._values is None:
            return 0
        return self._keys.nbytes + self._values.nbytes + self._births.nbytes

    @property
    def peak_pending_bytes(self) -> int:
        """High-water mark of :attr:`pending_bytes` (reset by ``clear``)."""
        return self._peak_bytes

    def defer(self, grad: SparseGradient, step: int) -> None:
        """Accumulate one merged gradient; new keys are born at ``step``."""
        if grad.nnz == 0:
            return
        indices = grad.indices
        # The SparseGradient contract (sorted unique indices) is checked
        # once here, at the boundary; violating gradients take the
        # duplicate-safe scatter below instead of silently corrupting the
        # fast path's one-write-per-key assumption.
        inverse = None
        if indices.size > 1 and np.any(np.diff(indices) <= 0):
            indices, inverse = np.unique(indices, return_inverse=True)
        if self._values is None:
            self._values = np.empty((0, grad.values.shape[1]), dtype=grad.values.dtype)
            self._births = np.empty(0, dtype=np.int64)
        keys = self._keys
        pos = np.searchsorted(keys, indices)
        fresh = np.ones(indices.size, dtype=bool)
        inside = pos < keys.size
        fresh[inside] = keys[pos[inside]] != indices[inside]
        if fresh.any():
            at = pos[fresh]
            self._keys = np.insert(keys, at, indices[fresh])
            self._values = np.insert(self._values, at, 0, axis=0)
            self._births = np.insert(self._births, at, step)
            # Every fresh key inserted before an index shifts it by one.
            pos += np.cumsum(fresh) - fresh
        if inverse is None:
            # Sorted unique keys hit every row exactly once — the
            # fancy-index add equals the scatter-add below at a fraction
            # of its cost.  Fresh rows read zero, so accumulating into
            # them matches the reference's arrival-order sums.
            self._values[pos] += grad.values
        else:
            # Duplicate (or unsorted) keys: the duplicate-safe scatter
            # accumulates per-occurrence contributions exactly as the dict
            # reference accumulates them.
            scatter_add_rows(self._values, pos[inverse], grad.values)
        self._peak_bytes = max(self._peak_bytes, self.pending_bytes)

    def pending_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask over ``keys``: True where the key is deferred."""
        return _in_sorted(self._keys, np.asarray(keys, dtype=np.int64))

    def aged_rows(self, step: int, staleness: int) -> np.ndarray:
        """Sorted keys whose oldest contribution is ``staleness`` steps old."""
        if self._births is None:
            return np.empty(0, dtype=np.int64)
        return self._keys[self._births <= step - staleness]

    def birth_steps(self) -> dict[int, int]:
        """``{key: birth step}`` of the deferred keys (tests)."""
        if self._births is None:
            return {}
        return dict(zip(self._keys.tolist(), self._births.tolist(), strict=True))

    def take(self, keys: np.ndarray) -> SparseGradient:
        """Remove the deferred subset of ``keys`` as one sparse gradient.

        ``keys`` must be sorted.  One binary search selects the deferred
        subset, one gather copies its values out, and one keep-mask
        compacts the key, value and birth arrays together (a reused
        trainer can never observe a key whose gradient was taken but whose
        birth survived, or vice versa).
        """
        keys = np.asarray(keys, dtype=np.int64)
        pending = self._keys
        pos = np.searchsorted(pending, keys)
        found = pos < pending.size
        found[found] = pending[pos[found]] == keys[found]
        if not found.any():
            return SparseGradient(keys[found], np.empty((0, 0), dtype=DTYPE))
        pos = pos[found]
        taken = SparseGradient(keys[found], self._values[pos])
        keep = np.ones(pending.size, dtype=bool)
        keep[pos] = False
        self._keys = pending[keep]
        self._values = self._values[keep]
        self._births = self._births[keep]
        return taken

    def take_all(self) -> SparseGradient:
        """Remove and return everything deferred, freeing the arrays.

        The two full-flush paths (epoch carry and end-of-run drain)
        release the memory instead of keeping it across epochs.
        """
        keys, values = self._keys, self._values
        self._keys = np.empty(0, dtype=np.int64)
        self._values = self._births = None
        if keys.size == 0:
            return SparseGradient(keys, np.empty((0, 0), dtype=DTYPE))
        return SparseGradient(keys, values)

    def clear(self) -> None:
        """Free all deferred gradients and their birth steps, atomically.

        The three arrays are released together and the footprint
        high-water mark restarts: the regression suite pins that a reused
        trainer starts from a state indistinguishable from a fresh store.
        """
        self.take_all()
        self._peak_bytes = 0


def epoch_row_stream(loader, rows_per_table) -> Iterator[np.ndarray]:
    """Per-batch sorted unique flat keys of the loader's current epoch.

    Mirrors the batches of the epoch the loader most recently started
    (``loader.last_epoch_order``, drawn eagerly before iteration begins)
    by slicing the click log directly — the loader's shuffling RNG is never
    touched, so walking ahead here cannot perturb the training stream.
    Row ``r`` of table ``t`` is key ``offsets[t] + r`` over
    ``rows_per_table`` (the consuming pipeline's key space), so each batch
    costs one ``np.unique`` whatever the table count.  A batch with an id
    outside its table raises ``ValueError`` naming the table as it enters
    the window, ``W`` steps before it trains.
    """
    order = getattr(loader, "last_epoch_order", None)
    sparse = loader.log.sparse
    offsets = key_offsets(rows_per_table)[:, None]
    for start, stop in loader.batch_bounds():
        block = sparse[start:stop] if order is None else sparse[order[start:stop]]
        yield np.unique(check_ids(block, rows_per_table) + offsets)


class WindowRefcounts:
    """Compact reference counts of the window's cached keys.

    The lookahead window needs, per cached row, how many in-flight window
    batches reference it (fill on first reference, evict on last).  A
    table-sized int32 array answers that in O(1) per row but costs
    40 MB per 10M-row Criteo-Terabyte table — the same O(table) footprint
    :class:`FlatPendingStore` was built to avoid.  This class mirrors the
    store's compact layout instead: one sorted int64 array of the keys
    currently referenced and a parallel int32 count array, both sized to
    the *window's* row set and empty when nothing is cached — 12 bytes per
    cached row.  A key is counted exactly while it is cached, so the
    counted keys are the cache.

    Like the pending store (and the ``_in_sorted`` helper both lean on),
    it relies on the window invariant that every entry's key array is
    **sorted and unique** — the ``np.unique`` output of the epoch stream
    and the self-feed path — so membership is one ``searchsorted`` per
    batch.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int32)

    def clear(self) -> None:
        """Drop every reference (a window reset): all counts become zero."""
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int32)

    @property
    def nbytes(self) -> int:
        """Bookkeeping bytes — O(referenced rows), never O(table)."""
        return int(self._keys.nbytes + self._counts.nbytes)

    @property
    def tracked_keys(self) -> int:
        """Keys currently holding a non-zero reference count."""
        return int(self._keys.size)

    def enter(self, keys: np.ndarray) -> np.ndarray:
        """A batch enters the window: count its (sorted-unique) keys.

        Returns the keys that held no reference before — the rows the
        cache must fill.
        """
        held = self._keys
        slots = np.searchsorted(held, keys)
        present = slots < held.size
        present[present] = held[slots[present]] == keys[present]
        self._counts[slots[present]] += 1
        fresh = keys[~present]
        if fresh.size:
            insert_at = slots[~present]
            self._keys = np.insert(held, insert_at, fresh)
            self._counts = np.insert(self._counts, insert_at, np.int32(1))
        return fresh

    def release(self, keys: np.ndarray) -> np.ndarray:
        """A batch retires: drop one reference per key.

        Returns the keys whose count reached zero (in input order — the
        rows the cache must evict), and removes them from the layout so
        the footprint tracks the live window.  Every released key must
        currently be referenced (the window pairs each ``release`` with
        an earlier ``enter`` of the same keys).
        """
        if keys.size == 0:
            return keys
        counts = self._counts
        slots = np.searchsorted(self._keys, keys)
        counts[slots] -= 1
        zeroed = counts[slots] == 0
        gone = keys[zeroed]
        if gone.size:
            keep = np.ones(self._keys.size, dtype=bool)
            keep[slots[zeroed]] = False
            self._keys = self._keys[keep]
            self._counts = counts[keep]
        return gone


class CachedEmbeddingPipeline:
    """Lookahead-window embedding cache with bounded-staleness write-back.

    Drive it once per training step, in order:

    1. :meth:`observe` with the step's ``(batch, tables, pooling)`` index
       block *before* the forward pass — advances the window (prefetching
       the batch entering it) and accounts the step's cache hits.
    2. :meth:`defer` with the step's merged flat-keyed sparse gradient
       *after* the backward pass — accumulates it into the cache, retires
       the trained batch, and returns the flat-keyed gradient that must be
       applied **now** (evicted rows + rows at the staleness bound).

    :meth:`begin_epoch` resets the window onto a fresh stream of per-batch
    sorted key arrays (normally :func:`epoch_row_stream`) and returns any
    still-deferred gradient from the previous epoch for the caller to
    apply first.  With no stream the pipeline self-feeds from the observed
    batches — the window degenerates to the current batch (no lookahead),
    but every guarantee still holds.

    Args:
        rows_per_table: Embedding-table sizes (they fix the key space).
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
        #: ``(tables, 1)`` key offsets, broadcast over an index block.
        self._offsets = key_offsets(self.rows_per_table)[:, None]
        self._num_keys = sum(self.rows_per_table)
        #: Window references per cached key; the counted keys are the cache.
        self._refcounts = WindowRefcounts()
        self._entries: deque[_WindowEntry] = deque()
        self._stream: Iterator[np.ndarray] | None = None
        #: Deferred write-back store.
        self.pending = FlatPendingStore()
        self._step = 0
        #: Epoch-carry write-back charge folded into the next step's stats.
        self._carry_rows = 0
        self._carry_time_s = 0.0
        #: Stats of the most recent observe/defer cycle.
        self.last_stats = LookaheadStats()

    @property
    def cached_rows_total(self) -> int:
        """Current cache occupancy across tables (the referenced keys)."""
        return self._refcounts.tracked_keys

    @property
    def pending_rows_total(self) -> int:
        """Deferred (not yet written back) rows across tables."""
        return self.pending.total_pending

    @property
    def pending_bytes(self) -> int:
        """Bytes currently allocated by the deferred write-back store."""
        return self.pending.pending_bytes

    @property
    def peak_pending_bytes(self) -> int:
        """High-water mark of the store's allocation."""
        return self.pending.peak_pending_bytes

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
    def begin_epoch(self, stream: Iterator[np.ndarray] | None) -> SparseGradient | None:
        """Reset the window onto a new epoch's stream of batch key arrays.

        Returns the flat-keyed gradient of everything still deferred from
        the previous epoch (the caller applies it before the next forward
        pass), or ``None`` when nothing was pending.  The cache itself is
        cleared: a shuffled epoch invalidates the old window.  The carry
        writes back like any other flush, so its rows and DMA traffic are
        charged — folded into the *next* step's stats, since the boundary
        itself has no step of its own.
        """
        carry, time_s = self._priced_flush_all()
        if carry is not None:
            self._carry_rows += carry.nnz
            self._carry_time_s += time_s
        self._reset_window(stream)
        return carry

    def reset(self) -> None:
        """Discard all in-flight state: window, cache, deferred write-backs.

        For a trainer re-bound to start a fresh run: the deferred gradients
        belong to the previous run's schedule and are *dropped*, not
        carried (mirroring the dense stale-k deque, whose in-flight reduces
        die with their run) — applying them would contaminate the new run
        with the old run's data.  The store frees its key, gradient and
        birth arrays in one atomic pass, so a reused trainer cannot inherit
        a stale birth step for a fresh deferral.  The DMA engine's traffic
        counters reset too: a reused trainer's reported fill/write-back
        bytes describe *its* run, not the previous one's (the rebind
        counter-lifetime regression pins this).
        """
        self.pending.clear()
        self.dma.reset_counters()
        self._reset_window(None)
        self._step = 0
        self._carry_rows = 0
        self._carry_time_s = 0.0
        self.last_stats = LookaheadStats()

    def _reset_window(self, stream: Iterator[np.ndarray] | None) -> None:
        self._stream = iter(stream) if stream is not None else None
        self._entries.clear()
        self._refcounts.clear()

    def _priced_flush_all(self) -> tuple[SparseGradient | None, float]:
        """Flush every deferred write-back and price its DMA traffic.

        The single pricing point for both full-flush paths (epoch carry
        and end-of-run drain), so a change to the write-back cost model
        cannot make their accounting diverge.
        ``take_all`` runs even when nothing is pending: it is what frees
        the store's arrays, so an epoch boundary or drain leaves nothing
        behind.

        Returns:
            ``(flushed gradient or None, priced seconds)``.
        """
        flushed = self.pending.take_all()
        if flushed.nnz == 0:
            return None, 0.0
        time_s = self._writeback_time(flushed.nnz) if self.link is not None else 0.0
        return flushed, time_s

    def drain(self) -> SparseGradient | None:
        """End-of-run flush: everything still deferred writes back *now*.

        The executor ``finalize()`` hook calls this so a run's last
        in-flight sparse updates are applied before the final evaluation
        instead of dying with the run (which made a stale-k sweep's final
        metrics fold a dropped-tail effect into the staleness effect).
        The write-back is priced like any other flush and reported through
        :attr:`last_stats`; the window is left untouched — a drained
        pipeline can keep training, it just holds no deferred gradient.

        Returns:
            The flat-keyed gradient to apply, or ``None`` if nothing was
            deferred.
        """
        flushed, time_s = self._priced_flush_all()
        if flushed is not None:
            self.last_stats = LookaheadStats(stale_rows=flushed.nnz, prefetch_time_s=time_s)
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

        Raises:
            ValueError: naming the table, before the window moves, if an
                id lies outside ``[0, rows)`` of its table.
        """
        sparse = check_ids(sparse, self.rows_per_table)
        stats = LookaheadStats()
        lookups = sparse + self._offsets
        # Pull window entries until the batch `window` steps ahead of the
        # trained one has entered (the prefetcher runs W batches ahead).
        fills = 0
        while len(self._entries) <= self.window:
            if not self._pull_entry():
                break
            fills += self._entries[-1].fresh.size
        if not self._entries:
            # Self-feed: no stream — the observed batch is its own entry.
            self._enter(np.unique(lookups))
            fills += self._entries[-1].fresh.size
        misses = _in_sorted(self._entries[0].fresh, lookups.ravel())
        stats.cache_misses = int(np.count_nonzero(misses))
        stats.cache_hits = lookups.size - stats.cache_misses
        stats.fill_rows = fills
        if self.link is not None and fills:
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
            keys = next(self._stream)
        except StopIteration:
            self._stream = None
            return False
        self._enter(np.asarray(keys, dtype=np.int64))
        return True

    def _enter(self, keys: np.ndarray) -> None:
        """A batch enters the window: take refs, fill the unreferenced keys."""
        self._entries.append(_WindowEntry(keys, self._refcounts.enter(keys)))

    def defer(self, merged: SparseGradient) -> SparseGradient:
        """Absorb one step's merged gradient; return what must apply now.

        With ``staleness == 0`` the input is returned untouched (the
        bit-parity fast path; a bound fixed at 0 never defers anything).
        Otherwise the gradient accumulates in the cache and the returned
        gradient contains exactly the flushed keys: those evicted as the
        trained batch retires plus those whose oldest deferred
        contribution is ``staleness`` steps old.  A key outside the
        pipeline's key space raises :class:`ValueError`.
        """
        keys = merged.indices
        if keys.size and (keys.min() < 0 or keys.max() >= self._num_keys):
            raise ValueError(f"sparse gradient key outside [0, {self._num_keys})")
        stats = self.last_stats
        step = self._step
        self._step += 1
        evicted = self._retire()
        stats.evicted_rows = evicted.size
        if self.staleness == 0:
            return merged
        pending = self.pending
        pending.defer(merged, step)
        # Flush rule: a deferred key writes back when it leaves the window
        # or its oldest contribution reaches the bound.  Both sets come out
        # of the store as sorted arrays, so the union (and therefore the
        # flushed gradient's key order) matches the reference store's
        # sorted-dict walk bit for bit.
        evicted_pending = evicted[pending.pending_mask(evicted)]
        aged = pending.aged_rows(step, self.staleness)
        stats.stale_rows += int(aged.size - np.count_nonzero(_in_sorted(evicted_pending, aged)))
        flushed = pending.take(np.union1d(evicted_pending, aged))
        if self.link is not None and flushed.nnz:
            stats.prefetch_time_s += self._writeback_time(flushed.nnz)
        return flushed

    def _retire(self) -> np.ndarray:
        """The trained batch leaves the window; return the keys it last used."""
        if not self._entries:
            return np.empty(0, dtype=np.int64)
        return self._refcounts.release(self._entries.popleft().keys)
