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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hotset import HotSetIndex
from repro.nn.embedding import SparseGradient, key_offsets


@dataclass
class EmbeddingPlacement:
    """Placement of every embedding row: GPU-replicated hot set vs CPU tail.

    Attributes:
        hot_sets: Per-table arrays of row ids replicated on every GPU.
        rows_per_table: Table sizes (for footprint accounting).
        embedding_dim: Row width.
        dtype_bytes: Bytes per element.

    Nothing here caps the hot set: the EAL that found it bounds it, by its
    capacity (:attr:`~repro.core.eal.EALConfig.size_bytes`, 4 MB in the
    paper, about 2 M tracked rows).
    """

    hot_sets: list[np.ndarray]
    rows_per_table: tuple[int, ...]
    embedding_dim: int
    dtype_bytes: int = 4
    index: HotSetIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.hot_sets) != len(self.rows_per_table):
            raise ValueError("hot_sets must have one entry per table")
        # Builds the flat membership bitmap once (and validates row ranges);
        # every later popularity test is one gather against it.
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

    def update_hot_sets(self, new_hot_sets: list[np.ndarray]) -> EmbeddingPlacement:
        """Apply a recalibration's hot sets as in-place bitmap deltas.

        Only the rows that drifted in or out of each table's hot set are
        touched (:meth:`~repro.core.hotset.HotSetIndex.replace_table`), so
        frequent recalibration avoids rebuilding the bitmap from scratch.
        Returns ``self`` for chaining.
        """
        if len(new_hot_sets) != self.num_tables:
            raise ValueError("new_hot_sets must have one entry per table")
        for table, new_hot in enumerate(new_hot_sets):
            self.index.replace_table(table, new_hot)
        self.hot_sets = list(self.index.hot_sets)
        return self


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
    _key_starts: np.ndarray = field(init=False, repr=False, compare=False)

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
        #: First flat key of every (table, shard) range, table-major: the
        #: owner of key ``x`` is the shard of the last start ``<= x``.
        self._key_starts = (
            key_offsets(self.rows_per_table)[:, None] + self._bounds[:, :-1]
        ).ravel()

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

    def route_gradient(self, grad: SparseGradient) -> list[SparseGradient]:
        """Split a merged flat-keyed gradient by owner shard.

        One owner lookup of every key against the ``offsets[t] +
        bounds[t, k]`` range starts.  Returns one
        :class:`~repro.nn.embedding.SparseGradient` per shard (empty where
        the shard owns none of the touched rows), keys still sorted within
        each piece and values in the input's dtype; the pieces partition
        the input.
        """
        owner = np.searchsorted(self._key_starts, grad.indices, side="right") - 1
        owner %= self.num_shards
        order = np.argsort(owner, kind="stable")
        cuts = np.searchsorted(owner[order], np.arange(self.num_shards + 1))
        return [
            SparseGradient(grad.indices[order[lo:hi]], grad.values[order[lo:hi]])
            for lo, hi in zip(cuts[:-1], cuts[1:], strict=True)
        ]
