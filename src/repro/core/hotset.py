"""Precomputed hot-set membership for O(1) popularity tests.

Classifying a mini-batch into popular and non-popular µ-batches tests
every lookup against its table's hot set.  ``np.isin`` would re-sort the
hot set on every call, though the hot sets change only when the learning
phase runs.  :class:`HotSetIndex` builds one boolean bitmap over every
table's rows once per learning phase, in the flat key space of the sparse
gradients, the lookahead and the hot tier: row ``r`` of table ``t`` is bit
``offsets[t] + r`` (:func:`~repro.nn.embedding.key_offsets`).  Classifying
a ``(batch, tables, pooling)`` block is one gather, whatever the table
count, as the lookup engines check all of an input's tables at once
(Section V), and as BagPipe precomputes cache membership ahead of the step.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.embedding import key_offsets


def _sorted_rows(rows, what: str, size: int | None) -> np.ndarray:
    """``rows`` as a sorted unique int64 array, checked against ``[0, size)``.

    Sorted rows (what the EAL produces) skip ``np.unique``, which at
    EAL-capacity hot sets costs more than a Criteo-Terabyte-sized build.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size == 0:
        return rows
    if np.any(rows[1:] <= rows[:-1]):
        rows = np.unique(rows)
    if rows[0] < 0:
        # A negative id would wrap around and mark an unrelated row hot.
        raise ValueError(f"{what} contains negative row ids")
    if size is not None and rows[-1] >= size:
        raise ValueError(f"{what} references out-of-range rows")
    return rows


class HotSetIndex:
    """One boolean bitmap over every table's rows, in flat keys.

    Bit ``offsets[t] + r`` is set iff row ``r`` is in table ``t``'s hot
    set.  Table ``t`` spans ``rows_per_table[t]`` bits, or its hot set's
    largest row + 1 without sizes.  An id outside its table's span is
    never hot: it neither reads a neighbouring table's bit nor raises.
    """

    def __init__(
        self,
        hot_sets: Sequence[np.ndarray],
        rows_per_table: Sequence[int] | None = None,
    ):
        if rows_per_table is not None and len(rows_per_table) != len(hot_sets):
            raise ValueError("rows_per_table must have one entry per hot set")
        sizes = rows_per_table if rows_per_table is not None else [None] * len(hot_sets)
        self._hot_sets = [
            _sorted_rows(hot, f"hot set of table {table}", size)
            for table, (hot, size) in enumerate(zip(hot_sets, sizes, strict=True))
        ]
        if rows_per_table is None:
            rows_per_table = [int(hot[-1]) + 1 if hot.size else 0 for hot in self._hot_sets]
        self._rows = np.asarray(rows_per_table, dtype=np.int64)
        self._offsets = key_offsets(self._rows)
        self._bitmap = np.zeros(int(self._rows.sum()), dtype=bool)
        for offset, hot in zip(self._offsets, self._hot_sets, strict=True):
            self._bitmap[offset + hot] = True
        self._version = 0

    @property
    def hot_sets(self) -> list[np.ndarray]:
        """Per-table sorted arrays of hot row ids."""
        return self._hot_sets

    @property
    def hot_keys(self) -> np.ndarray:
        """Every hot row as a flat key, ``offsets[t] + row``: sorted,
        since the hot sets are and the tables come in key order."""
        keys = [offset + hot for offset, hot in zip(self._offsets, self._hot_sets, strict=True)]
        return np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)

    @property
    def num_tables(self) -> int:
        """Number of indexed tables."""
        return len(self._hot_sets)

    @property
    def version(self) -> int:
        """Monotonic mutation counter of the bitmap.

        Bumped *after* every :meth:`replace_table`, so a mask classified
        ahead of time (the loader thread's batch N+1) can be tagged with it
        and discarded if a recalibration has since flipped bits.
        """
        return self._version

    def bitmap(self, table: int) -> np.ndarray:
        """One table's slice of the bitmap, a view (treat as read-only:
        mutate through :meth:`replace_table`, which keeps ``hot_sets``)."""
        start = self._offsets[table]
        return self._bitmap[start : start + self._rows[table]]

    def contains(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Vectorised membership test: True where ``rows`` is hot.

        Returns a boolean array of ``rows``' shape; rows outside the
        table's range read cold rather than raising.
        """
        bitmap = self.bitmap(table)
        rows = np.asarray(rows)
        if bitmap.size == 0:
            return np.zeros(rows.shape, dtype=bool)
        return np.take(bitmap, rows, mode="clip") & (rows >= 0) & (rows < bitmap.size)

    def is_hot(self, table: int, row: int) -> bool:
        """Scalar membership test for one row."""
        row = int(row)
        return bool(0 <= row < self._rows[table] and self._bitmap[self._offsets[table] + row])

    def replace_table(self, table: int, new_hot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Swap one table's hot set, flipping only the rows that drifted.

        Rebuilding costs O(table); here the drifted rows come from O(hot
        set) work — one bitmap gather for the additions, one binary search
        for the removals — and flip in place in the table's slice, which
        keeps recalibration cheap at Criteo-Terabyte table sizes.  Rows
        outside the table's span raise :class:`ValueError`.

        Returns:
            ``(added, removed)`` row-id arrays describing the applied delta.
        """
        bitmap = self.bitmap(table)
        new_hot = _sorted_rows(new_hot, f"delta for table {table}", bitmap.size)
        old_hot = self._hot_sets[table]
        # The new rows are in range, so the bitmap gather needs no bounds
        # mask: additions are the new rows whose bit is still clear.
        added = new_hot[~bitmap[new_hot]]
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
        row (Section I of the paper); one gather reads every lookup's bit.
        A non-integer block raises :class:`ValueError` naming its dtype, as
        :func:`~repro.nn.embedding.check_ids` does.
        """
        if sparse.dtype.kind not in "iu":
            raise ValueError(f"ids must be integers, not {sparse.dtype}")
        if sparse.ndim != 3:
            raise ValueError("sparse must be 3-D (batch, num_tables, pooling)")
        if sparse.shape[1] != self.num_tables:
            raise ValueError(
                f"expected {self.num_tables} tables in the index block, got {sparse.shape[1]}"
            )
        if self._bitmap.size == 0:
            return np.zeros(sparse.shape[0], dtype=bool)
        # Clip mode never raises; the range mask then clears every id
        # outside its own table, whichever bit it read.
        hot = np.take(self._bitmap, sparse + self._offsets[:, None], mode="clip")
        hot &= (sparse >= 0) & (sparse < self._rows[:, None])
        return hot.all(axis=(1, 2))

    @property
    def hot_rows_total(self) -> int:
        """Total number of hot rows across all tables."""
        return int(sum(hot.size for hot in self._hot_sets))


def as_hot_set_index(
    hot_sets: Sequence[np.ndarray] | HotSetIndex,
) -> HotSetIndex:
    """Coerce raw per-table hot-set arrays into a sizeless
    :class:`HotSetIndex`; a prebuilt index (the hot path's, built once per
    learning phase) passes through."""
    if isinstance(hot_sets, HotSetIndex):
        return hot_sets
    return HotSetIndex(hot_sets)
