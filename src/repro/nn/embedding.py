"""Embedding tables with bag (sum-pooling) lookups and sparse gradients.

Each sparse categorical feature of a recommendation model has one
EmbeddingBag.  A lookup takes the whole mini-batch's ``(batch, pooling)``
block of row indices and returns the pooled (summed) embedding vector per
sample.  The backward pass produces a *sparse* gradient — one row of
gradient per unique accessed index — mirroring how DLRM updates embeddings
and how Hotline updates rows in place on either the CPU or the GPU copy.

The forward/backward hot path is fully vectorised: a single gather +
``sum(axis=1)`` forward and one flat ``np.add.at`` scatter backward, the
way HugeCTR and CacheEmbedding flatten multi-hot lookups into one
gather + segment-sum.  The per-sample-loop originals live in the test
oracle (``tests/oracle.py``: ``reference_forward`` / ``reference_backward``),
against which the test-suite asserts bit-for-bit parity and the benchmarks
measure the speedup.

**Fused µ-batch execution.**  Hotline trains every mini-batch as two
µ-batches (popular / non-popular), which naively costs two gathers and two
scatters per table per step — each over a fancy-indexed *copy* of the
batch's index block.  The fused path never materialises those copies: the
forward gathers the **original contiguous block once** (each sample's
pooled vector is independent, so per-µ-batch views of the output are
bit-identical to per-µ-batch gathers), and
:meth:`EmbeddingBag.backward_segments` / :func:`segmented_scatter` produce
every µ-batch's sparse gradient with **one** scatter: each lookup's row id
is keyed into its segment's private id space (``segment * num_rows +
row``), so the combined ``np.unique`` + ``np.add.at`` accumulates per-row
contributions in exactly the per-segment order the unfused scatter uses,
and the split results are bit-identical to calling
:meth:`EmbeddingBag.backward` once per µ-batch.

**The hot/cold tiering model.**  At Criteo-Terabyte scale the embedding
weights themselves do not fit device memory — only the frequently-accessed
rows do (the same observation Hotline's placement and the lookahead window
exploit).  :class:`TieredEmbeddingStore` models the software-managed cache
that CacheEmbedding's ``CachedEmbeddingBag`` implements for real: a
device-resident **hot tier** of bounded byte capacity in front of a host
**cold tier**, with every lookup resolved through the tier.  Crucially it
is an *accounting and pricing* layer: the weights stay in the table's
own array, so training numerics are **bit-identical** with the tier
attached or not — what changes is the simulated cost (cold fetches and
dirty evictions priced through ``hwsim.dma.DMAEngine``) and the
hit/miss/eviction counters.  Residency
is tracked with compact sorted row arrays and aligned access-frequency
counts (window-bounded bookkeeping — never a table-sized side array), so
eviction is frequency-aware (LFU) and can be *fed by the classifier's
access counts* via :meth:`TieredEmbeddingStore.record_counts`; rows the
hot/cold placement replicates on every device are pinned and never evict.
:meth:`EmbeddingBag.attach_tier` makes a table resolve lookups through a
tier transparently — every :meth:`EmbeddingBag.lookup` (which ``forward``
pools, and which TBSM's history sequence reads unpooled) touches the tier,
nothing else changes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.nn import init

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.hotset import HotSetIndex


@dataclass
class SparseGradient:
    """Sparse gradient for one embedding table.

    Attributes:
        indices: Unique row indices that received gradient, shape (k,).
        values: Gradient rows aligned with ``indices``, shape (k, dim).
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.indices.shape[0] != self.values.shape[0]:
            raise ValueError("indices and values must have the same leading dimension")

    @property
    def nnz(self) -> int:
        """Number of rows carrying gradient."""
        return int(self.indices.shape[0])

    def restricted_to(
        self, allowed: np.ndarray | HotSetIndex, table: int = 0
    ) -> SparseGradient:
        """Gradient restricted to rows contained in ``allowed``.

        ``allowed`` may be a plain array of row ids or a prebuilt
        :class:`~repro.core.hotset.HotSetIndex` (with ``table`` selecting the
        bitmap), which turns the membership test into one fancy-index
        instead of an ``np.isin`` scan.
        """
        from repro.core.hotset import HotSetIndex

        if isinstance(allowed, HotSetIndex):
            mask = allowed.contains(table, self.indices)
        else:
            allowed = np.asarray(allowed)
            if allowed.size == 0 or self.nnz == 0:
                mask = np.zeros(self.indices.shape[0], dtype=bool)
            else:
                mask = HotSetIndex.from_hot_sets([allowed]).contains(0, self.indices)
        return SparseGradient(self.indices[mask], self.values[mask])


def merge_sparse_gradients(grads: list[SparseGradient]) -> SparseGradient:
    """Sum several sparse gradients for the same table into one.

    Rows appearing in more than one gradient have their values added, which
    is exactly what happens when a mini-batch's gradient is accumulated from
    the gradients of its µ-batches (Eq. 5 of the paper).
    """
    non_empty = [grad for grad in grads if grad.nnz]
    if not non_empty:
        dim = grads[0].values.shape[1] if grads else 0
        dtype = grads[0].values.dtype if grads else init.DTYPE
        return SparseGradient(np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=dtype))
    all_indices = np.concatenate([grad.indices for grad in non_empty])
    all_values = np.concatenate([grad.values for grad in non_empty], axis=0)
    unique, inverse = np.unique(all_indices, return_inverse=True)
    merged = np.zeros((unique.shape[0], all_values.shape[1]), dtype=all_values.dtype)
    np.add.at(merged, inverse, all_values)
    return SparseGradient(unique, merged)


def segment_ids_for(segments: list[np.ndarray], batch: int) -> np.ndarray:
    """Per-sample segment ids of a partition of ``range(batch)``.

    ``segments[s]`` must be an ascending index array; together the segments
    must cover every sample exactly once (the popular/non-popular µ-batches
    of one mini-batch partition it by construction, Eq. 3).  Raises when
    they do not, since a silent gap would scatter garbage gradient.
    """
    seg_ids = np.full(batch, -1, dtype=np.int64)
    total = 0
    for s, idx in enumerate(segments):
        seg_ids[idx] = s
        total += len(idx)
    if total != batch or (seg_ids < 0).any():
        raise ValueError("segments must partition the batch exactly")
    return seg_ids


def segmented_scatter(
    flat_indices: np.ndarray,
    flat_grads: np.ndarray,
    flat_segment_ids: np.ndarray,
    num_segments: int,
    num_rows: int,
    dim: int,
) -> list[SparseGradient]:
    """One scatter producing every segment's sparse gradient of one table.

    ``flat_indices``/``flat_grads``/``flat_segment_ids`` are the table's
    per-lookup row ids, gradient rows, and µ-batch (segment) ids, all in
    the **original batch order** — no per-segment copies are ever built.
    Each lookup is keyed into its segment's private id space (``segment *
    num_rows + row``) so a single ``np.unique`` + ``np.add.at`` pass
    accumulates every (segment, row) bucket separately; within a bucket,
    contributions arrive in batch order restricted to that segment's
    samples — exactly the order the unfused per-µ-batch scatter uses
    (segment index arrays are ascending), so the split results are
    **bit-identical** to running :meth:`EmbeddingBag.backward` once per
    µ-batch.  The private id spaces are disjoint and sorted, so each
    segment's block is recovered with one binary search (views, no copy).

    Returns:
        One :class:`SparseGradient` per segment (sorted unique row ids).
    """
    if flat_indices.size == 0:
        return [
            SparseGradient(
                np.empty(0, dtype=np.int64), np.empty((0, dim), dtype=flat_grads.dtype)
            )
            for _ in range(num_segments)
        ]
    keys = flat_segment_ids * num_rows + flat_indices
    unique, inverse = np.unique(keys, return_inverse=True)
    values = np.zeros((unique.shape[0], dim), dtype=flat_grads.dtype)
    np.add.at(values, inverse, flat_grads)
    bounds = np.searchsorted(unique, np.arange(num_segments + 1) * num_rows)
    return [
        SparseGradient(
            unique[bounds[s] : bounds[s + 1]] - s * num_rows,
            values[bounds[s] : bounds[s + 1]],
        )
        for s in range(num_segments)
    ]


class EmbeddingBag:
    """One embedding table with sum pooling over multi-hot lookups.

    Attributes:
        weight: The table's ``(num_rows, dim)`` weight rows, updated in
            place by :meth:`apply_sparse_update`.
    """

    def __init__(self, num_rows: int, dim: int, rng: np.random.Generator, name: str = ""):
        if num_rows <= 0 or dim <= 0:
            raise ValueError("embedding table must have positive rows and dim")
        self.num_rows = num_rows
        self.dim = dim
        self.name = name or f"emb_{num_rows}x{dim}"
        self.weight = init.embedding_uniform(num_rows, dim, rng)
        self._tier: TieredEmbeddingStore | None = None
        self._tier_table: int = -1
        self._last_indices: np.ndarray | None = None

    def attach_tier(self, tier: TieredEmbeddingStore, table: int) -> None:
        """Resolve this table's lookups through a hot/cold tier.

        Every subsequent :meth:`lookup` (and so every :meth:`forward`)
        touches ``tier`` as table ``table`` — hits/misses/evictions and
        DMA pricing accumulate on the tier; the lookup numerics are
        untouched (the tier is an accounting layer, see
        :class:`TieredEmbeddingStore`).
        """
        if tier.rows_per_table[table] != self.num_rows or tier.dim != self.dim:
            raise ValueError("tier table shape does not match this EmbeddingBag")
        self._tier = tier
        self._tier_table = table

    def detach_tier(self) -> None:
        """Stop resolving lookups through the attached tier (if any)."""
        self._tier = None
        self._tier_table = -1

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """The unpooled rows selected by each sample, through the tier.

        Args:
            indices: Integer block of shape (batch, pooling) — one row of
                lookups per sample (``MiniBatch.sparse[:, table, :]``).

        Returns:
            Array of shape (batch, pooling, dim): ``weight[indices]``.
        """
        try:
            indices = np.asarray(indices, dtype=np.int64)
        except ValueError as exc:
            raise ValueError(
                "indices must be a rectangular (batch, pooling) integer block; "
                "ragged per-sample lookups are no longer supported"
            ) from exc
        if indices.ndim != 2:
            raise ValueError("indices must be 2-D (batch, pooling)")
        rows = self.weight[indices]
        if self._tier is not None:
            self._tier.touch(self._tier_table, indices)
        return rows

    def forward(self, indices: np.ndarray) -> np.ndarray:
        """Sum-pool the rows selected by each sample.

        Args:
            indices: Integer block of shape (batch, pooling), as for
                :meth:`lookup`.  Pooling may be 0, in which case every
                pooled vector is zero.

        Returns:
            Array of shape (batch, dim) with the pooled embeddings.
        """
        out = self.lookup(indices).sum(axis=1)
        self._last_indices = np.asarray(indices, dtype=np.int64)
        return out

    def backward(self, grad_output: np.ndarray) -> SparseGradient:
        """Compute the sparse gradient for the last forward pass.

        With sum pooling, every row accessed by sample ``i`` receives
        ``grad_output[i]``; gradients of rows accessed by several samples
        accumulate via one flat scatter-add.
        """
        if self._last_indices is None:
            raise RuntimeError("backward called before forward")
        if grad_output.shape[0] != self._last_indices.shape[0]:
            raise ValueError("grad_output batch size does not match the last forward batch")
        pooling = self._last_indices.shape[1]
        flat_indices = self._last_indices.reshape(-1)
        if flat_indices.size == 0:
            return SparseGradient(
                np.empty(0, dtype=np.int64), np.empty((0, self.dim), dtype=grad_output.dtype)
            )
        flat_grads = np.repeat(grad_output, pooling, axis=0)
        unique, inverse = np.unique(flat_indices, return_inverse=True)
        values = np.zeros((unique.shape[0], self.dim), dtype=grad_output.dtype)
        np.add.at(values, inverse, flat_grads)
        return SparseGradient(unique, values)

    def backward_segments(
        self,
        grad_outputs: list[np.ndarray],
        segments: list[np.ndarray],
        segment_ids: np.ndarray | None = None,
        flat_segment_ids: np.ndarray | None = None,
    ) -> list[SparseGradient]:
        """Per-µ-batch sparse gradients of the last *full-batch* forward.

        The fused execution path runs :meth:`forward` once on the whole
        mini-batch's contiguous index block and trains the µ-batches on
        views of the pooled output; this is the matching backward:
        ``grad_outputs[s]`` holds the pooled-output gradient of the samples
        ``segments[s]`` (ascending index arrays partitioning the forward's
        batch), and one :func:`segmented_scatter` produces each µ-batch's
        gradient bit-identically to a per-µ-batch :meth:`backward` — so
        callers keep merging per-µ-batch partials in their established
        order.  ``segment_ids`` (per-sample segment) and
        ``flat_segment_ids`` (repeated over the pooling width) can be
        passed when precomputed once for many tables, keeping the per-table
        work to one assembly, one scatter, and one split.
        """
        if self._last_indices is None:
            raise RuntimeError("backward called before forward")
        batch, pooling = self._last_indices.shape
        if len(grad_outputs) != len(segments):
            raise ValueError("one gradient block per segment is required")
        if segment_ids is None:
            segment_ids = segment_ids_for(segments, batch)
        if flat_segment_ids is None:
            flat_segment_ids = (
                segment_ids if pooling == 1 else np.repeat(segment_ids, pooling)
            )
        dtype = grad_outputs[0].dtype if grad_outputs else init.DTYPE
        grad_all = np.empty((batch, self.dim), dtype=dtype)
        for idx, grad_output in zip(segments, grad_outputs, strict=True):
            if grad_output.shape[0] != len(idx):
                raise ValueError("gradient block does not match its segment")
            grad_all[idx] = grad_output
        flat_grads = grad_all if pooling == 1 else np.repeat(grad_all, pooling, axis=0)
        return segmented_scatter(
            self._last_indices.reshape(-1),
            flat_grads,
            flat_segment_ids,
            len(segments),
            self.num_rows,
            self.dim,
        )

    def apply_sparse_update(self, grad: SparseGradient, lr: float) -> None:
        """SGD update of only the rows present in ``grad``."""
        if grad.nnz == 0:
            return
        self.weight[grad.indices] -= lr * grad.values

    def rows_bytes(self, num_rows: int | None = None, dtype_bytes: int = 4) -> float:
        """Memory footprint of ``num_rows`` rows (default: the whole table)."""
        rows = self.num_rows if num_rows is None else num_rows
        return float(rows) * self.dim * dtype_bytes

    @property
    def num_parameters(self) -> int:
        """Number of scalar parameters in the table."""
        return self.num_rows * self.dim


def _in_sorted(sorted_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Boolean membership of ``rows`` in an ascending unique ``sorted_rows``."""
    if sorted_rows.size == 0 or rows.size == 0:
        return np.zeros(rows.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_rows, rows)
    present = pos < sorted_rows.size
    present[present] = sorted_rows[pos[present]] == rows[present]
    return present


class TieredEmbeddingStore:
    """Software-managed hot/cold tier in front of the embedding weights.

    Models a device-resident cache of ``hot_bytes`` capacity holding the
    frequently-accessed rows of every table, with the long tail in a host
    tier priced through a :class:`~repro.hwsim.dma.DMAEngine` — the
    CacheEmbedding ``CachedEmbeddingBag`` design.  Pure accounting: the
    weights stay in each table's own array, so attaching a tier never
    changes training numerics — only the simulated fetch/eviction cost
    and the hit/miss counters (see the module docstring).

    Residency bookkeeping is **window-bounded**: per-table sorted row
    arrays with aligned access-frequency counts, sized to the resident
    set, never the table.  Eviction is LFU over the unpinned resident
    rows (globally, since ``hot_bytes`` models one device memory), with
    frequencies optionally seeded from the classifier's access counts via
    :meth:`record_counts`; :meth:`pin_rows` marks the placement's
    replicated hot rows un-evictable.  Evicted rows are dirty (training
    updates rows in place), so each eviction prices a scattered
    write-back in addition to the miss's scattered fetch.
    """

    def __init__(
        self,
        rows_per_table: tuple[int, ...] | list[int],
        dim: int,
        *,
        hot_bytes: float,
        dma: object | None = None,
        dtype_bytes: int = 4,
    ):
        if dim <= 0:
            raise ValueError("embedding dim must be positive")
        if hot_bytes < 0:
            raise ValueError("hot_bytes must be non-negative")
        if dma is None:
            from repro.hwsim.dma import DMAEngine

            dma = DMAEngine()
        # One tier fronts every table of a model (it models one device
        # memory); all mutation happens under this lock.
        self._lock = threading.Lock()
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self.dim = int(dim)
        self.dtype_bytes = int(dtype_bytes)
        self.hot_bytes = float(hot_bytes)
        self.capacity_rows = int(self.hot_bytes // self.row_bytes)
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

    def __getstate__(self) -> dict:
        """Deepcopy/pickle support: the lock is recreated, not copied."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def num_tables(self) -> int:
        """Number of tables fronted by the tier."""
        return len(self.rows_per_table)

    @property
    def row_bytes(self) -> int:
        """Bytes per embedding row in the modelled device memory."""
        return self.dim * self.dtype_bytes

    @property
    def resident_rows(self) -> int:
        """Rows currently resident in the hot tier, across tables."""
        return int(sum(rows.size for rows in self._rows))

    @property
    def resident_bytes(self) -> float:
        """Modelled device bytes occupied by the resident rows."""
        return float(self.resident_rows) * self.row_bytes

    @property
    def nbytes(self) -> int:
        """Actual bookkeeping footprint (resident-set-sized, never O(table))."""
        return int(
            sum(
                rows.nbytes + counts.nbytes + pinned.nbytes
                for rows, counts, pinned in zip(
                    self._rows, self._counts, self._pinned, strict=True
                )
            )
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of touched rows resolved from the hot tier."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def tier_time_s(self) -> float:
        """Total simulated seconds spent on cold fetches and evictions."""
        return self.fetch_time_s + self.writeback_time_s

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters and priced times.

        Residency (and pinning) survives: a rebind reuses the warmed tier
        but must report only its own run's traffic — the same counter-
        lifetime contract as ``DMAEngine.reset_counters``.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fetch_time_s = 0.0
        self.writeback_time_s = 0.0

    def is_resident(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Boolean residency of ``rows`` (sorted-array probe, no bitmap)."""
        return _in_sorted(self._rows[table], np.asarray(rows, dtype=np.int64))

    def pin_rows(self, table: int, rows: np.ndarray, *, price: bool = True) -> None:
        """Make ``rows`` resident and un-evictable (the placement's hot set).

        Pinned rows model the replicated hot rows of an
        ``EmbeddingPlacement``: they are pre-loaded in one **contiguous**
        transfer (priced unless ``price=False``) and never considered for
        eviction, whatever their frequency.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            return
        if rows[0] < 0 or rows[-1] >= self.rows_per_table[table]:
            raise ValueError(f"pinned row out of range for table {table}")
        with self._lock:
            self._pinned[table] = np.union1d(self._pinned[table], rows)
            fresh = rows[~_in_sorted(self._rows[table], rows)]
            if fresh.size:
                self._insert(table, fresh, np.zeros(fresh.size, dtype=np.int64))
                if price:
                    self.fetch_time_s += self.dma.read_time(
                        fresh.size * self.row_bytes, scattered=False
                    )
            self._evict_to_capacity()

    def record_counts(self, table: int, rows: np.ndarray, counts: np.ndarray) -> None:
        """Fold classifier access counts into resident rows' frequencies.

        The µ-batch classifier (and the placement's learning phase) counts
        row accesses anyway; feeding them here makes LFU eviction agree
        with the classifier's popularity estimate instead of only the
        tier's own touch history.  Rows not resident are ignored — the
        bookkeeping stays resident-set-sized.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if rows.shape != counts.shape:
            raise ValueError("rows and counts must align")
        with self._lock:
            present = _in_sorted(self._rows[table], rows)
            if not present.any():
                return
            positions = np.searchsorted(self._rows[table], rows[present])
            np.add.at(self._counts[table], positions, counts[present])

    def touch(self, table: int, indices: np.ndarray) -> float:
        """Resolve one lookup block through the tier; return priced seconds.

        ``indices`` is the table's ``(batch, pooling)`` block (any shape —
        it is flattened).  Resident rows count as hits and bump their
        frequency by their occurrence count; the rest are cold misses,
        fetched with one scattered DMA read and made resident, after which
        the tier evicts back down to capacity (LFU over unpinned rows,
        dirty write-back priced per eviction).
        """
        rows, occurrences = np.unique(
            np.asarray(indices, dtype=np.int64).reshape(-1), return_counts=True
        )
        if rows.size == 0:
            return 0.0
        if rows[0] < 0 or rows[-1] >= self.rows_per_table[table]:
            raise ValueError(f"lookup row out of range for table {table}")
        with self._lock:
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
        """Splice ``rows`` (sorted, disjoint from resident) into the table."""
        positions = np.searchsorted(self._rows[table], rows)
        self._rows[table] = np.insert(self._rows[table], positions, rows)
        self._counts[table] = np.insert(self._counts[table], positions, counts)

    def _evict_to_capacity(self) -> float:
        """Evict lowest-frequency unpinned rows until capacity holds.

        Returns the priced write-back seconds.  If pinned rows alone
        exceed capacity nothing unpinned is left to evict and the tier
        stays over budget — callers size pinning against ``hot_bytes``
        (``EmbeddingPlacement.fits_budget`` gates exactly this).
        """
        excess = self.resident_rows - self.capacity_rows
        if excess <= 0:
            return 0.0
        candidate_counts: list[np.ndarray] = []
        candidate_tables: list[np.ndarray] = []
        candidate_positions: list[np.ndarray] = []
        for table in range(self.num_tables):
            unpinned = ~_in_sorted(self._pinned[table], self._rows[table])
            positions = np.flatnonzero(unpinned)
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
        order = np.argpartition(counts, take - 1)[:take] if take < counts.size else (
            np.arange(counts.size)
        )
        evicted = 0
        for table in range(self.num_tables):
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
