"""Embedding layouts: hot/cold placement and row-wise table partitioning.

Hotline's first key insight (Section I): frequently-accessed embeddings have
a small footprint (~512 MB covers >=75 % of inputs) and are replicated on
every GPU's HBM, while the long tail stays in CPU main memory.  Because the
two sets are disjoint and each row has exactly one home, updates never need
coherence traffic (unlike FAE, which synchronises embeddings between CPU and
GPU at every popular/non-popular transition).
:class:`EmbeddingPlacement` captures that hot/cold split.

:class:`PartitionedEmbeddingPlacement` adds the *model-parallel* dimension:
each table's rows are dealt into contiguous ranges, one per shard, so a
K-replica data-parallel run can also split the embedding capacity K ways
(the hybrid layout of multi-node DLRM systems, Figure 1b).  The partition
owns no weights — it is the authority on which shard *owns* each row, which
drives per-shard memory accounting, the all-to-all cost of remotely-owned
lookups, and the routing of merged sparse gradients back to their owners.

:class:`HybridEmbeddingLayout` intersects the two: **hot rows replicate on
every shard, cold rows stay partitioned**.  A popular lookup is always
local (the replica serves it), so only cold, remotely-owned lookups pay
all-to-all; per-shard capacity is the full hot replica plus the shard's
owned slice of the cold tail, and :meth:`HybridEmbeddingLayout.shard_bytes`
drives the budget check.  Like the partition, the hybrid layout owns no
weights — it prices and routes, never changes numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hotset import HotSetIndex
from repro.nn.embedding import SparseGradient


@dataclass
class EmbeddingPlacement:
    """Placement of every embedding row: GPU-replicated hot set vs CPU tail.

    Attributes:
        hot_sets: Per-table arrays of row ids replicated on every GPU.
        rows_per_table: Table sizes (for footprint accounting).
        embedding_dim: Row width.
        dtype_bytes: Bytes per element.
        hbm_budget_bytes: Per-GPU budget for the hot replica (paper: 512 MB).
    """

    hot_sets: list[np.ndarray]
    rows_per_table: tuple[int, ...]
    embedding_dim: int
    dtype_bytes: int = 4
    hbm_budget_bytes: float = 512 * 1024 * 1024
    index: HotSetIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.hot_sets) != len(self.rows_per_table):
            raise ValueError("hot_sets must have one entry per table")
        # Builds the per-table membership bitmaps once (and validates row
        # ranges); every later popularity test is a fancy-index against it.
        self.index = HotSetIndex(self.hot_sets, self.rows_per_table)

    @property
    def num_tables(self) -> int:
        """Number of embedding tables."""
        return len(self.rows_per_table)

    @property
    def hot_rows_total(self) -> int:
        """Total number of GPU-resident (hot) rows across tables."""
        return int(sum(hot.size for hot in self.hot_sets))

    @property
    def cold_rows_total(self) -> int:
        """Total number of CPU-resident (cold) rows across tables."""
        return int(sum(self.rows_per_table)) - self.hot_rows_total

    @property
    def row_bytes(self) -> int:
        """Bytes per embedding row."""
        return self.embedding_dim * self.dtype_bytes

    @property
    def gpu_bytes(self) -> float:
        """HBM footprint of the hot replica on each GPU."""
        return float(self.hot_rows_total) * self.row_bytes

    @property
    def cpu_bytes(self) -> float:
        """CPU DRAM footprint of the cold rows."""
        return float(self.cold_rows_total) * self.row_bytes

    def fits_budget(self) -> bool:
        """Whether the hot replica respects the per-GPU HBM budget."""
        return self.gpu_bytes <= self.hbm_budget_bytes

    def is_hot(self, table: int, row: int) -> bool:
        """Whether a row lives in the GPU replica."""
        return self.index.is_hot(table, row)

    def split_rows(self, table: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split looked-up ``rows`` of one table into (hot, cold) subsets."""
        return self.index.split_rows(table, rows)

    def update_hot_sets(self, new_hot_sets: list[np.ndarray]) -> EmbeddingPlacement:
        """Apply a recalibration's hot sets as in-place bitmap deltas.

        Only the rows that drifted in or out of each table's hot set are
        touched (:meth:`~repro.core.hotset.HotSetIndex.replace_table`), so
        frequent recalibration avoids rebuilding the per-table bitmaps from
        scratch.  Returns ``self`` for chaining.
        """
        if len(new_hot_sets) != self.num_tables:
            raise ValueError("new_hot_sets must have one entry per table")
        for table, new_hot in enumerate(new_hot_sets):
            self.index.replace_table(table, new_hot)
        self.hot_sets = list(self.index.hot_sets)
        return self

    def truncate_to_budget(self, access_counts: list[np.ndarray]) -> EmbeddingPlacement:
        """Return a placement whose hot replica fits the HBM budget.

        If the tracked hot set exceeds the budget, keep the most-accessed
        rows first (requires per-table access counts, e.g. from the EAL's
        learning phase or an offline histogram).
        """
        max_rows = int(self.hbm_budget_bytes // self.row_bytes)
        if self.hot_rows_total <= max_rows:
            return self
        scored: list[tuple[float, int, int]] = []
        for table, hot in enumerate(self.hot_sets):
            counts = access_counts[table]
            for row in hot:
                scored.append((float(counts[row]), table, int(row)))
        scored.sort(reverse=True)
        kept: list[list[int]] = [[] for _ in self.rows_per_table]
        for _score, table, row in scored[:max_rows]:
            kept[table].append(row)
        new_hot = [np.array(sorted(rows), dtype=np.int64) for rows in kept]
        return EmbeddingPlacement(
            hot_sets=new_hot,
            rows_per_table=self.rows_per_table,
            embedding_dim=self.embedding_dim,
            dtype_bytes=self.dtype_bytes,
            hbm_budget_bytes=self.hbm_budget_bytes,
        )


@dataclass
class PartitionedEmbeddingPlacement:
    """Row-wise contiguous partition of every embedding table across shards.

    Shard ``k`` owns rows ``[bounds[k], bounds[k+1])`` of each table, with
    the same balanced-split arithmetic as
    :meth:`~repro.data.batch.MiniBatch.shards` (range sizes differ by at
    most one row; trailing shards of a table smaller than the shard count
    own nothing).  Ownership is authoritative for memory accounting and
    gradient routing; the functional trainer keeps a full local copy of
    every table per replica (a coherent cache — updates are identical
    everywhere), so partitioning changes *communication accounting*, never
    numerics.

    Attributes:
        rows_per_table: Table sizes.
        num_shards: Number of owning shards.
        embedding_dim: Row width.
        dtype_bytes: Bytes per element.
    """

    rows_per_table: tuple[int, ...]
    num_shards: int
    embedding_dim: int
    dtype_bytes: int = 4
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if any(rows <= 0 for rows in self.rows_per_table):
            raise ValueError("every table must have at least one row")
        #: ``(num_tables, num_shards + 1)`` row boundaries, one row per table.
        self._bounds = np.array(
            [
                [(k * rows) // self.num_shards for k in range(self.num_shards + 1)]
                for rows in self.rows_per_table
            ],
            dtype=np.int64,
        )

    @property
    def num_tables(self) -> int:
        """Number of embedding tables."""
        return len(self.rows_per_table)

    @property
    def row_bytes(self) -> int:
        """Bytes per embedding row."""
        return self.embedding_dim * self.dtype_bytes

    def bounds(self, table: int) -> np.ndarray:
        """The ``num_shards + 1`` row boundaries of one table's partition."""
        return self._bounds[table]

    def owned_range(self, table: int, shard: int) -> tuple[int, int]:
        """The ``[lo, hi)`` row range of ``table`` owned by ``shard``."""
        bounds = self._bounds[table]
        return int(bounds[shard]), int(bounds[shard + 1])

    def owner_of(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Owner shard id of each row index (vectorised)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows_per_table[table]):
            raise ValueError(f"row index out of range for table {table}")
        return np.searchsorted(self._bounds[table], rows, side="right") - 1

    def owned_row_count(self, shard: int) -> int:
        """Total rows (across tables) stored on ``shard``."""
        return int((self._bounds[:, shard + 1] - self._bounds[:, shard]).sum())

    def shard_bytes(self, shard: int) -> float:
        """Embedding-table footprint of one shard's owned rows."""
        return float(self.owned_row_count(shard)) * self.row_bytes

    def remote_lookup_count(self, sparse: np.ndarray, shard: int) -> int:
        """Lookups in a ``(batch, tables, pooling)`` block owned elsewhere.

        This is the per-step all-to-all volume of model parallelism: every
        counted row travels to ``shard`` in the forward pass and its
        gradient travels back to the owner in the backward pass.
        """
        sparse = np.asarray(sparse)
        if sparse.ndim != 3 or sparse.shape[1] != self.num_tables:
            raise ValueError("sparse must be 3-D (batch, num_tables, pooling)")
        lo = self._bounds[:, shard, None]
        hi = self._bounds[:, shard + 1, None]
        return int(np.count_nonzero((sparse < lo) | (sparse >= hi)))

    def route_gradient(self, table: int, grad: SparseGradient) -> list[SparseGradient]:
        """Split one table's merged gradient by owner shard.

        Returns one :class:`~repro.nn.embedding.SparseGradient` per shard
        (empty where the shard owns none of the touched rows); values are
        array views, preserving dtype.  Relies on merged gradients carrying
        sorted unique indices, so each owner's rows form one contiguous run.
        """
        cuts = np.searchsorted(grad.indices, self._bounds[table])
        return [
            SparseGradient(grad.indices[cuts[k] : cuts[k + 1]], grad.values[cuts[k] : cuts[k + 1]])
            for k in range(self.num_shards)
        ]


@dataclass
class HybridEmbeddingLayout:
    """Hot rows replicated on every shard, cold rows partitioned by owner.

    The intersection of :class:`EmbeddingPlacement` (popularity decides
    device residence) and :class:`PartitionedEmbeddingPlacement` (contiguous
    row ranges decide ownership): every shard carries the full hot replica,
    so popular lookups never leave the device, while the cold tail is dealt
    across shards exactly as the partition dictates.  Per-shard capacity is
    therefore ``hot replica + owned cold slice`` — :meth:`shard_bytes` —
    and the all-to-all volume shrinks to the **cold, remotely-owned**
    lookups only (:meth:`remote_cold_lookup_count`).

    Attributes:
        placement: The hot/cold split (its ``hbm_budget_bytes`` gates
            :meth:`fits_budget`).
        partition: The row-range ownership of the cold tail.
    """

    placement: EmbeddingPlacement
    partition: PartitionedEmbeddingPlacement

    def __post_init__(self) -> None:
        if self.placement.rows_per_table != self.partition.rows_per_table:
            raise ValueError("placement and partition must describe the same tables")
        if (
            self.placement.embedding_dim != self.partition.embedding_dim
            or self.placement.dtype_bytes != self.partition.dtype_bytes
        ):
            raise ValueError("placement and partition must agree on the row format")

    @property
    def num_tables(self) -> int:
        """Number of embedding tables."""
        return self.placement.num_tables

    @property
    def num_shards(self) -> int:
        """Number of owning shards."""
        return self.partition.num_shards

    @property
    def row_bytes(self) -> int:
        """Bytes per embedding row."""
        return self.placement.row_bytes

    def owned_cold_row_count(self, shard: int) -> int:
        """Cold rows (across tables) whose owned range lands on ``shard``.

        A shard's owned range also contains hot rows; those are served by
        the replica (and counted once in the replicated bytes), so they
        are subtracted here — one binary search per table against the
        sorted hot set, never a table-sized scan.
        """
        total = 0
        for table, hot in enumerate(self.placement.hot_sets):
            lo, hi = self.partition.owned_range(table, shard)
            owned = hi - lo
            hot = np.asarray(hot)
            if hot.size > 1 and np.any(np.diff(hot) < 0):
                hot = np.sort(hot)  # construction-time hot sets may be unsorted
            hot_within = int(
                np.searchsorted(hot, hi) - np.searchsorted(hot, lo)
            )
            total += owned - hot_within
        return total

    def shard_bytes(self, shard: int) -> float:
        """Device footprint of one shard: full hot replica + owned cold rows."""
        return self.placement.gpu_bytes + float(
            self.owned_cold_row_count(shard) * self.row_bytes
        )

    def fits_budget(self) -> bool:
        """Whether every shard's footprint respects the per-GPU HBM budget."""
        return all(
            self.shard_bytes(shard) <= self.placement.hbm_budget_bytes
            for shard in range(self.num_shards)
        )

    def remote_cold_lookup_count(self, sparse: np.ndarray, shard: int) -> int:
        """Cold lookups in a ``(batch, tables, pooling)`` block owned elsewhere.

        The hybrid layout's all-to-all volume: hot lookups are always
        local (replicated), so only the cold rows outside ``shard``'s
        owned range travel — by construction no larger than
        :meth:`PartitionedEmbeddingPlacement.remote_lookup_count` on the
        same block.
        """
        sparse = np.asarray(sparse)
        if sparse.ndim != 3 or sparse.shape[1] != self.num_tables:
            raise ValueError("sparse must be 3-D (batch, num_tables, pooling)")
        if sparse.shape[0] == 0 or sparse.shape[2] == 0:
            return 0
        remote = 0
        for table in range(self.num_tables):
            lo, hi = self.partition.owned_range(table, shard)
            rows = sparse[:, table, :].reshape(-1)
            hot = self.placement.index.contains(table, rows)
            cold_rows = rows[~hot]
            remote += int(((cold_rows < lo) | (cold_rows >= hi)).sum())
        return remote

    def route_gradient(
        self, table: int, grad: SparseGradient
    ) -> tuple[SparseGradient, list[SparseGradient]]:
        """Split one table's merged gradient into (replicated, per-owner).

        The hot subset applies to every shard's replica (the coherent-
        update path data parallelism already provides); the cold subset is
        routed to owner shards exactly like
        :meth:`PartitionedEmbeddingPlacement.route_gradient`.  Sorted
        unique indices are preserved on both sides, so downstream
        consumers keep their contiguous-run invariants.
        """
        hot_mask = self.placement.index.contains(table, grad.indices)
        hot_grad = SparseGradient(grad.indices[hot_mask], grad.values[hot_mask])
        cold_grad = SparseGradient(grad.indices[~hot_mask], grad.values[~hot_mask])
        return hot_grad, self.partition.route_gradient(table, cold_grad)
