"""Embedding tables with bag (sum-pooling) lookups and sparse gradients.

**One table-batched bag per model.**  :class:`EmbeddingBag` holds every
sparse feature's table in one ``(total_rows, dim)`` weight array: table
``t`` is rows ``offsets[t]`` to ``offsets[t] + rows_per_table[t]``
(:meth:`EmbeddingBag.table` is that view), where ``offsets``
(:func:`key_offsets`) is the exclusive cumulative sum of the table sizes.
That is how Hotline's accelerator addresses the tables too: one CPU
memory, each table read at ``base + row * row_bytes``.  A lookup takes the
mini-batch's whole ``(batch, tables, pooling)`` id block and makes one
range check and one gather, ``weight[offsets[t] + id]``; the forward sums
each sample's rows per table.  The backward produces a *sparse* gradient,
one row per unique accessed key, mirroring how DLRM updates embeddings
and how Hotline updates rows in place on either the CPU or the GPU copy,
and the update is one ``weight[keys] -= lr * values``.  The per-sample-loop
originals live in the test oracle (``tests/oracle.py``:
``reference_forward`` / ``reference_backward``), against which the
test-suite asserts bit-for-bit parity table by table.

**One flat key space.**  A model's sparse gradient is one
:class:`SparseGradient` over every table: row ``r`` of table ``t`` is key
``offsets[t] + r``, its row in the bag's weight.  Keys are sorted and
unique, so they are table-major and row-ascending, and restricted to one
table they are that table's own sorted row ids shifted by its offset.
That one format runs from the backward scatter to the table update: the
bag makes one scatter over the whole ``(batch, tables, pooling)`` block,
the cross-shard exchange makes one merge, the lookahead keeps its window,
refcounts and deferred write-backs in the same keys, the hot tier and the
hot-set bitmap track rows in them, and the update indexes the weight with
them directly.  Every per-key sum adds the same contributions in the same
order as a per-table pass would, so the two formats are bit-identical.
Every id block is range-checked by :func:`check_ids` before anything
uses it: an id outside its table would name a neighbouring table's key.

**One scatter-add kernel.**  Every row scatter-add of the sparse path (the
segmented scatter, the cross-µ-batch and cross-shard merge, the
lookahead's duplicate-row defer) goes through :func:`scatter_add_rows`.
It expands each row index into its ``dim`` element indices and runs one
1-D ``np.add.at``, which takes numpy's fast ``ufunc.at`` path; element
``(r, j)`` still receives its contributions in input order, so the result
is byte-identical to the row-indexed ``np.add.at(out, rows, values)`` (a
NaN's payload aside), and 3–4× faster at these shapes.

**Fused µ-batch execution.**  Hotline trains every mini-batch as two
µ-batches (popular / non-popular), which naively costs two gathers and two
scatters per step, each over a fancy-indexed *copy* of the batch's index
block.  The fused path never materialises those copies: the forward
gathers the **original contiguous block once** (each sample's pooled
vector is independent, so per-µ-batch views of the output are
bit-identical to per-µ-batch gathers), and
:meth:`EmbeddingBag.backward_segments` produces every µ-batch's sparse
gradient with **one** :func:`segmented_scatter`: each lookup's key is
moved into its segment's private id space (``segment * num_keys + key``),
so the combined ``np.unique`` + scatter-add accumulates per-key
contributions in exactly the per-segment order the unfused scatter uses,
and the split results are bit-identical to one
:meth:`EmbeddingBag.backward` per µ-batch.

**The hot/cold tiering model.**  At Criteo-Terabyte scale the embedding
weights themselves do not fit device memory — only the frequently-accessed
rows do (the same observation Hotline's placement and the lookahead window
exploit).  :class:`TieredEmbeddingStore` models the software-managed cache
that CacheEmbedding's ``CachedEmbeddingBag`` implements for real: a
device-resident **hot tier** of bounded byte capacity in front of a host
**cold tier**, with every lookup resolved through the tier.  Crucially it
is an *accounting and pricing* layer: the weights stay in the bag's own
array, so training numerics are **bit-identical** with the tier attached
or not — what changes is the simulated cost (cold fetches and dirty
evictions priced through ``hwsim.dma.DMAEngine``) and the
hit/miss/eviction counters.  Residency is tracked in the flat key space,
so a lookup block costs one search whatever the table count: the cached
rows are one sorted key array with aligned access-frequency counts
(window-bounded — never a table-sized side array), and eviction is LFU
over it.  Rows the hot/cold placement replicates on every device are
pinned: their keys live in a separate sorted array, without counts, and
never evict; the byte capacity bounds the cached rows beside them.
:meth:`EmbeddingBag.attach_tier` makes the bag resolve lookups through a
tier transparently — every :meth:`EmbeddingBag.lookup` (which ``forward``
pools, and whose unpooled rows TBSM's history sequence reads) touches the
tier once, with the flat keys of the whole block it gathers, after the
block has passed its range check; nothing else changes.  So the tier sees
a step's rows at once, as Hotline's lookup engines check all of an input's
tables together (Section V): one fetch request for the step's misses, and
one eviction after every lookup, so no row is evicted before the step has
read it.  The models' ``predict`` reads rows through
:meth:`EmbeddingBag.gather`, which never touches the tier: an evaluation
is not training traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.nn import init


@dataclass
class SparseGradient:
    """Sparse gradient of one embedding table, or of a model in flat keys.

    Attributes:
        indices: Sorted unique row ids (or flat keys, see
            :func:`key_offsets`) that received gradient, shape (k,).
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


def key_offsets(rows_per_table) -> np.ndarray:
    """Where each table starts in the flat key space: row ``r`` of table
    ``t`` is key ``offsets[t] + r``.  The int64 exclusive cumulative sum
    of ``rows_per_table``."""
    return np.cumsum((0, *rows_per_table), dtype=np.int64)[:-1]


#: The one id dtype, as :data:`repro.nn.init.DTYPE` is the one parameter
#: dtype: the click log, its batches and every table's rank -> row map
#: hold ids in it.  The largest table of any paper dataset (Criteo
#: Terabyte's 86,265,607 rows) needs 27 bits.  Flat keys, ``offsets[t] +
#: id``, are int64.
ID_DTYPE = np.int32


def check_ids(block, rows_per_table) -> np.ndarray:
    """``block`` as a ``(batch, tables, pooling)`` integer id block whose
    ids all lie inside their tables.

    A signed integer array is checked in its own dtype and returned
    unchanged, so no consumer copies an :data:`ID_DTYPE` block.  An
    unsigned one comes back as int64, since numpy adds uint64 ids to
    int64 offsets as floats.  A non-integer block (float, bool, ...)
    raises :class:`ValueError` naming its dtype rather than truncating.
    An id outside ``[0, rows_per_table[t])`` would name a neighbouring
    table's flat key (a negative one would also wrap to a row from the
    end), so this raises :class:`ValueError` naming the first such table.
    Every consumer of an id block calls it before it changes any state.
    """
    try:
        block = np.asarray(block)
    except ValueError as exc:
        raise ValueError(
            "ids must be a rectangular (batch, tables, pooling) integer block"
        ) from exc
    if block.dtype.kind == "u":
        block = block.astype(np.int64)
    elif block.dtype.kind != "i":
        raise ValueError(f"ids must be integers, not {block.dtype}")
    rows = np.asarray(rows_per_table, dtype=np.int64)
    if block.ndim != 3 or block.shape[1] != rows.size:
        raise ValueError(f"ids must be a (batch, {rows.size}, pooling) block, not {block.shape}")
    if block.size:
        # One comparison in the unsigned view of the ids' width: a negative
        # id reads as 2**(width - 1) or more, which no id of this dtype
        # reaches, so it fails with those past their table.
        ids = block.view(block.dtype.str.replace("i", "u"))
        width = 8 * block.itemsize
        bound = rows if width == 64 else np.minimum(rows, 1 << (width - 1))
        if (ids >= bound.astype(ids.dtype)[:, None]).any():
            bad = (block.min(axis=(0, 2)) < 0) | (block.max(axis=(0, 2)) >= rows)
            table = int(np.flatnonzero(bad)[0])
            raise ValueError(f"id out of range [0, {rows[table]}) for table {table}")
    return block


def scatter_add_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, rows, values)`` for a 2-D ``out``, byte for byte.

    Adds ``values[i]`` into row ``rows[i]`` of ``out`` in place.  The row
    indices are expanded to element indices of the flattened ``out`` so one
    1-D ``np.add.at`` takes numpy's fast ``ufunc.at`` path; each element
    still receives its contributions in ``i`` order, so the sums equal the
    row-indexed scatter's bytes, signed zeros and infinities included.  A
    NaN lands in the same elements, but when two NaNs meet, which payload
    survives depends on numpy's compiled loop.  ``out`` must be
    C-contiguous: its flattening must be a view, or the adds are lost.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous output array")
    dim = out.shape[1]
    elements = (np.asarray(rows, dtype=np.int64)[:, None] * dim + np.arange(dim)).ravel()
    np.add.at(out.reshape(-1), elements, values.ravel())


def merge_sparse_gradients(grads: list[SparseGradient]) -> SparseGradient:
    """Sum several sparse gradients of one key space into one.

    Rows appearing in more than one gradient have their values added, in
    list order, which is exactly what happens when a mini-batch's gradient
    is accumulated from the gradients of its µ-batches (Eq. 5 of the
    paper).
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
    scatter_add_rows(merged, inverse, all_values)
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
    """One scatter producing every segment's sparse gradient.

    ``flat_indices``/``flat_grads``/``flat_segment_ids`` are per-lookup
    ids in ``[0, num_rows)`` (a model's flat keys, ``num_rows`` the total
    row count), gradient rows, and µ-batch (segment) ids.  Any order works
    in which each segment's lookups come in ascending sample order — the
    original batch order, or the segment-packed order of the models' dense
    pass — so no per-segment copies are ever built.  Each lookup is keyed
    into its segment's private id space (``segment * num_rows + id``) so a
    single ``np.unique`` + :func:`scatter_add_rows` pass accumulates every
    (segment, id) bucket separately; within a bucket, contributions arrive
    in sample order restricted to that segment's samples — exactly the
    order the unfused per-µ-batch scatter uses, so the split results are
    **bit-identical** to running :meth:`EmbeddingBag.backward` once per
    µ-batch.  The private id spaces are disjoint and sorted, so each
    segment's block is recovered with one binary search (views, no copy).

    Returns:
        One :class:`SparseGradient` per segment (sorted unique ids).
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
    scatter_add_rows(values, inverse, flat_grads)
    bounds = np.searchsorted(unique, np.arange(num_segments + 1) * num_rows)
    return [
        SparseGradient(
            unique[bounds[s] : bounds[s + 1]] - s * num_rows,
            values[bounds[s] : bounds[s + 1]],
        )
        for s in range(num_segments)
    ]


class EmbeddingBag:
    """Every embedding table of a model in one weight array, sum-pooled.

    Table ``t`` is rows ``offsets[t]`` to ``offsets[t] + rows_per_table[t]``
    of :attr:`weight`, so row ``r`` of table ``t`` is weight row (and
    sparse-gradient key) ``offsets[t] + r``.  Lookups take a mini-batch's
    whole ``(batch, tables, pooling)`` id block.

    Attributes:
        rows_per_table: Rows of each table.
        offsets: Start of each table in :attr:`weight` (:func:`key_offsets`).
        num_rows: Rows of every table together.
        weight: The ``(num_rows, dim)`` weight rows, updated in place by
            :meth:`apply_sparse_update`.
    """

    def __init__(self, rows_per_table, dim: int, rng: np.random.Generator):
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        if not self.rows_per_table or min(self.rows_per_table) <= 0 or dim <= 0:
            raise ValueError("embedding tables must have positive rows and dim")
        self.dim = dim
        self.offsets = key_offsets(self.rows_per_table)
        self.num_rows = sum(self.rows_per_table)
        self.weight = np.empty((self.num_rows, dim), dtype=init.DTYPE)
        for t in range(self.num_tables):
            # Table by table, in table order: the draws of one bag per table.
            init.embedding_uniform(self.table(t), rng)
        self._tier: TieredEmbeddingStore | None = None
        self._last_indices: np.ndarray | None = None

    @property
    def num_tables(self) -> int:
        """Number of tables in the bag."""
        return len(self.rows_per_table)

    def table(self, t: int) -> np.ndarray:
        """Table ``t``'s ``(rows, dim)`` weight rows, a view of :attr:`weight`."""
        start = self.offsets[t]
        return self.weight[start : start + self.rows_per_table[t]]

    def attach_tier(self, tier: TieredEmbeddingStore) -> None:
        """Resolve every subsequent :meth:`lookup` through a hot/cold tier.

        Hits/misses/evictions and DMA pricing accumulate on ``tier``, which
        keys rows as this bag does; the lookup numerics are untouched (the
        tier is an accounting layer, see :class:`TieredEmbeddingStore`).
        """
        if tier.rows_per_table != self.rows_per_table or tier.dim != self.dim:
            raise ValueError("tier table shapes do not match this EmbeddingBag")
        self._tier = tier

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """The unpooled rows of every lookup, through the tier.

        :meth:`gather`, then one :meth:`TieredEmbeddingStore.touch` of the
        attached tier with the block's flat keys.  The block is kept for
        the backward.
        """
        indices = check_ids(indices, self.rows_per_table)
        keys = indices + self.offsets[:, None]
        rows = self.weight[keys]
        if self._tier is not None:
            self._tier.touch(keys)
        self._last_indices = indices
        return rows

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """The unpooled rows of every lookup, read from the weights.

        The inference read: an attached tier is not touched, so an
        evaluation never counts as training traffic.

        Args:
            indices: Integer block of shape (batch, tables, pooling)
                (``MiniBatch.sparse``).

        Returns:
            Array of shape (batch, tables, pooling, dim).

        Raises:
            ValueError: naming the table, if an id lies outside its table
                (:func:`check_ids`).
        """
        return self.weight[check_ids(indices, self.rows_per_table) + self.offsets[:, None]]

    def forward(self, indices: np.ndarray) -> np.ndarray:
        """Sum-pool each sample's rows per table.

        Args:
            indices: Integer block of shape (batch, tables, pooling), as for
                :meth:`gather`.  Pooling may be 0, in which case every
                pooled vector is zero.

        Returns:
            Array of shape (batch, tables, dim) with the pooled embeddings.
        """
        return self.lookup(indices).sum(axis=2)

    def backward(self, grad: np.ndarray) -> SparseGradient:
        """The flat-keyed sparse gradient of the last lookup.

        :meth:`backward_segments` with the whole batch as its one segment:
        with sum pooling, every row accessed by sample ``i`` in table ``t``
        receives ``grad[i, t]``, and rows accessed several times accumulate
        in sample order.
        """
        if self._last_indices is None:
            raise RuntimeError("backward called before forward")
        return self.backward_segments(grad, [np.arange(self._last_indices.shape[0])])[0]

    def backward_segments(
        self, grad: np.ndarray, segments: list[np.ndarray]
    ) -> list[SparseGradient]:
        """Per-µ-batch flat-keyed sparse gradients of the last lookup.

        ``segments`` are ascending index arrays partitioning the lookup's
        batch, and ``grad`` is the gradient of the samples
        ``concatenate(segments)``, in that segment-packed order: per pooled
        output, ``(rows, tables, dim)``, which every lookup of the sample's
        table receives, or per lookup, ``(rows, tables, pooling, dim)``
        (TBSM's history sequence).  One :func:`segmented_scatter` over the
        whole block produces each µ-batch's gradient bit-identically to a
        per-µ-batch :meth:`backward`.
        """
        if self._last_indices is None:
            raise RuntimeError("backward called before forward")
        batch, tables, pooling = self._last_indices.shape
        segments = [np.asarray(idx, dtype=np.int64) for idx in segments]
        segment_ids_for(segments, batch)  # the segments must partition the batch
        if grad.ndim == 3:  # each lookup of a table receives its pooled gradient
            grad = grad[:, :, None]
            if pooling != 1:
                grad = np.repeat(grad, pooling, axis=2)
        if grad.shape != (batch, tables, pooling, self.dim):
            raise ValueError("gradient block does not match the last lookup")
        perm = np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)
        keys = self._last_indices[perm] + self.offsets[:, None]
        lookups = tables * pooling
        return segmented_scatter(
            keys.reshape(-1),
            grad.reshape(-1, self.dim),
            np.repeat(np.arange(len(segments)), [idx.size * lookups for idx in segments]),
            len(segments),
            self.num_rows,
            self.dim,
        )

    def apply_sparse_update(self, grad: SparseGradient, lr: float) -> None:
        """SGD update of only the rows keyed in the flat-keyed ``grad``.

        Raises :class:`ValueError` on a key outside ``[0, num_rows)``.
        """
        if grad.nnz == 0:
            return
        if grad.indices.min() < 0 or grad.indices.max() >= self.num_rows:
            raise ValueError(f"sparse gradient key outside [0, {self.num_rows})")
        self.weight[grad.indices] -= lr * grad.values

    @property
    def num_parameters(self) -> int:
        """Number of scalar parameters in every table."""
        return self.weight.size


def _in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``needles`` in a sorted unique ``haystack``."""
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    slots = np.searchsorted(haystack, needles)
    mask = slots < haystack.size
    mask[mask] = haystack[slots[mask]] == needles[mask]
    return mask


class TieredEmbeddingStore:
    """Software-managed hot/cold tier in front of the embedding weights.

    Models a device-resident cache of ``hot_bytes`` capacity holding the
    frequently-accessed rows of every table, with the long tail in a host
    tier priced through a :class:`~repro.hwsim.dma.DMAEngine` — the
    CacheEmbedding ``CachedEmbeddingBag`` design.  Pure accounting: the
    weights stay in the bag's own array, so attaching a tier never
    changes training numerics — only the simulated fetch/eviction cost
    and the hit/miss counters (see the module docstring).

    Every row of every table has one int64 key, ``offsets[table] + row``
    (:func:`key_offsets`), and every method takes flat keys.  The state is
    three sorted, resident-set-sized arrays: ``_pinned`` holds the keys
    :meth:`repin` made un-evictable (the placement's replicated hot rows;
    membership only, since they never evict), and ``_keys`` with aligned
    ``_counts`` is the LFU pool of cached rows and their access
    frequencies.  A :meth:`touch` resolves a whole step's block at once:
    one search into each array, at most one insert and one eviction,
    whatever the table count.  Eviction is LFU over the pool (globally,
    since ``hot_bytes`` models one device memory), and ``capacity_rows``
    bounds the pool alone: pinned rows are bounded by the EAL that found
    them and sit beside it.  Key order is table-major and row-ascending, which
    fixes the order of frequency ties.  Evicted rows are dirty (training
    updates rows in place), so each eviction prices a scattered write-back
    in addition to the miss's scattered fetch.
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
        self._pinned = np.empty(0, dtype=np.int64)
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
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
    def row_bytes(self) -> int:
        """Bytes per embedding row in the modelled device memory."""
        return self.dim * self.dtype_bytes

    @property
    def pinned_rows(self) -> int:
        """Pinned (un-evictable) rows, across tables."""
        return int(self._pinned.size)

    @property
    def resident_rows(self) -> int:
        """Rows currently resident in the hot tier, pinned ones included."""
        return int(self._keys.size + self._pinned.size)

    @property
    def resident_bytes(self) -> float:
        """Modelled device bytes occupied by the resident rows."""
        return float(self.resident_rows) * self.row_bytes

    @property
    def nbytes(self) -> int:
        """Actual bookkeeping footprint (resident-set-sized, never O(table))."""
        return int(self._keys.nbytes + self._counts.nbytes + self._pinned.nbytes)

    @property
    def hit_rate(self) -> float:
        """Fraction of touched rows resolved from the hot tier."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def is_resident(self, keys: np.ndarray) -> np.ndarray:
        """Boolean residency of flat ``keys`` (sorted-array probes, no bitmap)."""
        keys = np.asarray(keys, dtype=np.int64)
        return _in_sorted(self._keys, keys) | _in_sorted(self._pinned, keys)

    def _check_range(self, keys: np.ndarray, what: str) -> None:
        """Raise unless the sorted ``keys`` lie in the tier's key space."""
        if keys.size and (keys[0] < 0 or keys[-1] >= sum(self.rows_per_table)):
            raise ValueError(f"{what} key out of range")

    def repin(self, keys: np.ndarray) -> None:
        """Pin exactly the flat ``keys`` (the placement's hot set).

        Pinned rows model the replicated hot rows of an
        ``EmbeddingPlacement`` and never evict.  Only the symmetric
        difference with the current pinned set moves: keys leaving it stay
        resident as ordinary cached rows with count 0, the first LFU
        victims; keys joining it leave the LFU pool if cached, and the rest
        are pre-loaded in one priced **contiguous** transfer.
        """
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        self._check_range(keys, "pinned")
        with self._lock:
            self._move_pins(keys)

    def _move_pins(self, keys: np.ndarray) -> None:
        """Pin exactly the sorted unique ``keys``, then evict to capacity
        (the caller holds the lock)."""
        leaving = np.setdiff1d(self._pinned, keys, assume_unique=True)
        joining = np.setdiff1d(keys, self._pinned, assume_unique=True)
        cached = _in_sorted(self._keys, joining)
        keep = ~_in_sorted(joining[cached], self._keys)
        slots = np.searchsorted(self._keys[keep], leaving)
        self._keys = np.insert(self._keys[keep], slots, leaving)
        self._counts = np.insert(self._counts[keep], slots, 0)
        self._pinned = keys
        fresh = int(np.count_nonzero(~cached))
        if fresh:
            self.fetch_time_s += self.dma.read_time(fresh * self.row_bytes, scattered=False)
        self._evict_to_capacity()

    def touch(self, keys: np.ndarray) -> float:
        """Resolve one step's lookups through the tier; return priced seconds.

        ``keys`` is the flat keys of the step's whole ``(batch, tables,
        pooling)`` block (any shape — it is flattened).  Resident rows
        count as hits, and cached ones bump their frequency by their
        occurrence count; the rest are cold misses, fetched together with
        one scattered DMA read and made resident, after which the tier
        evicts back down to capacity once (LFU over unpinned rows, dirty
        write-back priced per eviction).
        """
        keys, occurrences = np.unique(np.asarray(keys, dtype=np.int64), return_counts=True)
        self._check_range(keys, "lookup")
        if keys.size == 0:
            return 0.0
        with self._lock:
            pos = np.searchsorted(self._keys, keys)
            cached = pos < self._keys.size
            cached[cached] = self._keys[pos[cached]] == keys[cached]
            self._counts[pos[cached]] += occurrences[cached]
            cold = ~cached
            cold[cold] = ~_in_sorted(self._pinned, keys[cold])
            miss_count = int(np.count_nonzero(cold))
            self.hits += keys.size - miss_count
            self.misses += miss_count
            if not miss_count:
                return 0.0
            fetch = self.dma.read_time(miss_count * self.row_bytes, scattered=True)
            self.fetch_time_s += fetch
            self._keys = np.insert(self._keys, pos[cold], keys[cold])
            self._counts = np.insert(self._counts, pos[cold], occurrences[cold])
            return fetch + self._evict_to_capacity()

    def _evict_to_capacity(self) -> float:
        """Evict lowest-frequency cached rows until the LFU pool holds at
        most ``capacity_rows``; return the priced write-back seconds.

        Pinned rows never evict and do not count: they are the placement's
        replicated hot rows, bounded by the EAL's capacity, and
        ``capacity_rows`` bounds the cached rows beside them.
        """
        excess = self._keys.size - self.capacity_rows
        if excess <= 0:
            return 0.0
        victims = np.argpartition(self._counts, excess - 1)[:excess]
        self._keys = np.delete(self._keys, victims)
        self._counts = np.delete(self._counts, victims)
        self.evictions += excess
        writeback = self.dma.write_time(excess * self.row_bytes, scattered=True)
        self.writeback_time_s += writeback
        return writeback
