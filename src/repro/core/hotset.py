"""Precomputed hot-set membership bitmaps for O(1) popularity tests.

Classifying a mini-batch into popular and non-popular µ-batches requires,
for every lookup, a membership test against the per-table hot set.  Testing
with ``np.isin`` re-sorts (or re-hashes) the hot set on *every* call, which
is wasteful because the hot sets only change when the learning phase runs
(once per epoch, or at a recalibration point).

:class:`HotSetIndex` trades that repeated work for a single boolean bitmap
per table, built once per learning phase: membership of an arbitrary block
of row ids then becomes one fancy-index (``bitmap[rows]``), and classifying
a whole ``(batch, tables, pooling)`` mini-batch is one fancy-index per
table.  This mirrors how BagPipe precomputes cached-embedding membership
ahead of the training step instead of re-testing membership per batch.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class HotSetIndex:
    """Per-table boolean bitmaps over embedding row ids.

    The bitmap of table ``t`` has ``bitmap[row] == True`` iff ``row`` is in
    the table's hot set.  Rows outside the bitmap's range (possible when the
    index was built without table sizes) are never hot.

    Attributes:
        hot_sets: Per-table sorted arrays of hot row ids (lazily resynced
            after delta updates).
    """

    def __init__(
        self,
        hot_sets: Sequence[np.ndarray],
        rows_per_table: Sequence[int] | None = None,
    ):
        if rows_per_table is not None and len(rows_per_table) != len(hot_sets):
            raise ValueError("rows_per_table must have one entry per hot set")
        self._hot_sets: list[np.ndarray | None] = [
            np.asarray(hot, dtype=np.int64) for hot in hot_sets
        ]
        self._rows_per_table = (
            tuple(int(rows) for rows in rows_per_table) if rows_per_table is not None else None
        )
        self._version = 0
        self._bitmaps: list[np.ndarray] = []
        for table, hot in enumerate(self.hot_sets):
            if hot.size and hot.min() < 0:
                # Negative ids would wrap around the bitmap and silently mark
                # an unrelated row hot.
                raise ValueError(f"hot set of table {table} contains negative row ids")
            if self._rows_per_table is not None:
                size = self._rows_per_table[table]
                if hot.size and hot.max() >= size:
                    raise ValueError(
                        f"hot set of table {table} references out-of-range rows"
                    )
            else:
                size = int(hot.max()) + 1 if hot.size else 0
            bitmap = np.zeros(size, dtype=bool)
            if hot.size:
                bitmap[hot] = True
            self._bitmaps.append(bitmap)

    @classmethod
    def from_hot_sets(cls, hot_sets: Sequence[np.ndarray]) -> HotSetIndex:
        """Build an index sized by the largest row id of each hot set."""
        return cls(hot_sets)

    @property
    def hot_sets(self) -> list[np.ndarray]:
        """Per-table sorted arrays of hot row ids.

        Kept lazily: :meth:`set_rows`/:meth:`clear_rows` only flip bitmap
        bits (O(delta)) and invalidate the affected table's array, which is
        rebuilt from its bitmap here on next access.
        """
        for table, hot in enumerate(self._hot_sets):
            if hot is None:
                self._hot_sets[table] = np.nonzero(self._bitmaps[table])[0]
        return self._hot_sets  # type: ignore[return-value]

    @property
    def num_tables(self) -> int:
        """Number of indexed tables."""
        return len(self._bitmaps)

    @property
    def version(self) -> int:
        """Monotonic mutation counter of the bitmaps.

        Bumped *after* every delta update (:meth:`set_rows`,
        :meth:`clear_rows`, :meth:`replace_table`), so a classification
        result computed ahead of time — e.g. the loader-thread µ-batch
        pre-classification of batch N+1 — can be tagged with the version it
        was computed against and discarded if a recalibration has since
        mutated the bitmaps.  Observing the final version implies every
        bitmap mutation of that recalibration is visible.
        """
        return self._version

    def table_size(self, table: int) -> int:
        """Length of one table's bitmap."""
        return int(self._bitmaps[table].shape[0])

    def bitmap(self, table: int) -> np.ndarray:
        """One table's boolean membership bitmap (treat as read-only).

        Exposed for vectorised callers that combine membership with their
        own per-row arrays in one boolean-mask pass.  Mutate through
        :meth:`set_rows`/:meth:`clear_rows` only, so the lazily-rebuilt
        ``hot_sets`` arrays stay in sync.
        """
        return self._bitmaps[table]

    def contains(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Vectorised membership test: True where ``rows`` is hot.

        Accepts an integer array of any shape (or a scalar) and returns a
        boolean array of the same shape.  Rows outside the table's range are
        reported cold rather than raising, so callers can probe arbitrary
        ids.
        """
        bitmap = self._bitmaps[table]
        rows = np.asarray(rows)
        if bitmap.size == 0:
            return np.zeros(rows.shape, dtype=bool)
        result = np.zeros(rows.shape, dtype=bool)
        in_range = (rows >= 0) & (rows < bitmap.size)
        result[in_range] = bitmap[rows[in_range]]
        return result

    def is_hot(self, table: int, row: int) -> bool:
        """Scalar membership test for one row."""
        row = int(row)
        bitmap = self._bitmaps[table]
        return bool(0 <= row < bitmap.size and bitmap[row])

    def split_rows(self, table: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``rows`` into (hot, cold) subsets, preserving order."""
        mask = self.contains(table, rows)
        return rows[mask], rows[~mask]

    # ------------------------------------------------------------------ #
    # Incremental (delta) updates
    # ------------------------------------------------------------------ #
    # All delta paths stay bitmap-native on purpose: sort-based set ops
    # (np.isin / union1d / setdiff1d) on the hot sets cost more than the
    # fancy-indexed bit flips they would replace.

    def _validated_delta(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Normalise a delta row array and validate it against the table."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size == 0:
            return rows
        if rows.min() < 0:
            raise ValueError(f"delta for table {table} contains negative row ids")
        if self._rows_per_table is not None and rows.max() >= self._rows_per_table[table]:
            raise ValueError(f"delta for table {table} references out-of-range rows")
        return rows

    def _grow_bitmap(self, table: int, needed: int) -> np.ndarray:
        """Extend one table's bitmap to cover ``needed`` rows (dynamic sizing)."""
        bitmap = self._bitmaps[table]
        if needed > bitmap.size:
            grown = np.zeros(needed, dtype=bool)
            grown[: bitmap.size] = bitmap
            self._bitmaps[table] = bitmap = grown
        return bitmap

    def set_rows(self, table: int, rows: np.ndarray) -> None:
        """Mark ``rows`` hot in place (recalibration delta).

        For an index built without fixed table sizes the bitmap grows to
        cover new row ids; with fixed sizes out-of-range rows raise, exactly
        as at construction time.
        """
        rows = self._validated_delta(table, rows)
        if rows.size == 0:
            return
        bitmap = self._grow_bitmap(table, int(rows.max()) + 1)
        bitmap[rows] = True
        self._hot_sets[table] = None  # rebuilt lazily on next hot_sets access
        self._version += 1

    def clear_rows(self, table: int, rows: np.ndarray) -> None:
        """Mark ``rows`` cold in place (recalibration delta).

        Rows beyond the bitmap's range are already cold and are ignored.
        """
        rows = self._validated_delta(table, rows)
        if rows.size == 0:
            return
        bitmap = self._bitmaps[table]
        bitmap[rows[rows < bitmap.size]] = False
        self._hot_sets[table] = None  # rebuilt lazily on next hot_sets access
        self._version += 1

    def replace_table(self, table: int, new_hot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Swap one table's hot set, flipping only the rows that drifted.

        Instead of reallocating and repopulating the table's bitmap (the
        from-scratch path the constructor takes, whose cost grows with the
        *table* size), the drifted rows are computed in O(hot-set) work —
        one bitmap gather for the additions, one binary search for the
        removals — and flipped in place.  That keeps frequent recalibration
        cheap at Criteo-Terabyte table sizes, where the bitmap dwarfs the
        hot set by orders of magnitude.

        Returns:
            ``(added, removed)`` row-id arrays describing the applied delta.
        """
        new_hot = self._validated_delta(table, new_hot)
        if new_hot.size and np.any(np.diff(new_hot) <= 0):
            new_hot = np.unique(new_hot)
        old_hot = self.hot_sets[table]
        bitmap = self._grow_bitmap(table, int(new_hot.max()) + 1 if new_hot.size else 0)
        # Rows currently set are in range by construction, so the bitmap
        # gather needs no bounds mask: additions are the new rows whose bit
        # is still clear.
        added = new_hot[~bitmap[new_hot]] if new_hot.size else new_hot
        # Removals are old rows absent from the (sorted) new hot set.
        if old_hot.size and new_hot.size:
            slot = np.searchsorted(new_hot, old_hot)
            in_bounds = slot < new_hot.size
            gone = ~in_bounds
            gone[in_bounds] = new_hot[slot[in_bounds]] != old_hot[in_bounds]
            removed = old_hot[gone]
        else:
            removed = old_hot
        bitmap[removed] = False
        bitmap[added] = True
        self._hot_sets[table] = new_hot
        self._version += 1
        return added, removed

    def classify(self, sparse: np.ndarray) -> np.ndarray:
        """Popular-input mask for a ``(batch, tables, pooling)`` index block.

        An input is popular only if *every* one of its lookups hits a hot
        row (Section I of the paper); a table with an empty hot set makes
        every input non-popular.
        """
        if sparse.ndim != 3:
            raise ValueError("sparse must be 3-D (batch, num_tables, pooling)")
        batch, num_tables, _pooling = sparse.shape
        if num_tables != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} tables in the index block, got {num_tables}"
            )
        mask = np.ones(batch, dtype=bool)
        for table in range(num_tables):
            if self._bitmaps[table].size == 0:
                return np.zeros(batch, dtype=bool)
            mask &= self.contains(table, sparse[:, table, :]).all(axis=1)
        return mask

    @property
    def hot_rows_total(self) -> int:
        """Total number of hot rows across all tables."""
        return int(sum(hot.size for hot in self.hot_sets))

    @property
    def nbytes(self) -> int:
        """Bookkeeping bytes: bitmaps plus materialised hot-set arrays.

        The bitmaps are O(table) at one byte per row — the deliberate
        trade the index makes for O(1) membership; the window-bounded
        structures built *on top* of it (the lookahead pending store, the
        tiered embedding store) keep their own footprint proportional to
        the cached/resident row set, which this property lets accounting
        code report separately.
        """
        return int(
            sum(bitmap.nbytes for bitmap in self._bitmaps)
            + sum(hot.nbytes for hot in self._hot_sets if hot is not None)
        )


def as_hot_set_index(
    hot_sets: Sequence[np.ndarray] | HotSetIndex,
) -> HotSetIndex:
    """Coerce raw per-table hot-set arrays into a :class:`HotSetIndex`.

    Lets APIs accept either form: callers on the hot path pass a prebuilt
    index (built once per learning phase), while tests and one-shot callers
    can keep passing plain arrays.
    """
    if isinstance(hot_sets, HotSetIndex):
        return hot_sets
    return HotSetIndex.from_hot_sets(hot_sets)
