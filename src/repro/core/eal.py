"""Embedding Access Logger (EAL) — Section V-B of the paper.

The EAL is a cache-like structure that tracks *which* embedding indices are
frequently accessed, not their contents.  Key design points reproduced here:

* a 4 MB multi-banked SRAM holding ~2 million entries, each entry being a
  valid bit, a 2-bit access counter used as the SRRIP re-reference
  prediction value (RRPV), and a 14-bit identifier tag (Figure 14);
* SRRIP replacement: hits reset the RRPV to 0, misses insert at RRPV 1
  ("insertions at RRPV-1"), and victims are entries at the maximum RRPV —
  a cheap approximation of LFU that captures >99 % of the frequently
  accessed embeddings because their access skew exceeds 100x (Figure 15);
* a Feistel-network randomizer scatters (table, index) keys across banks
  and sets to avoid thrashing (Section V-C);
* a multi-banked organisation with an input queue that allows ~60 parallel
  lookups per iteration at 64 banks x 512-entry queue (Figure 16).

The host model keeps an entry in 5 bytes.  Its key is the tracked row's
key in the model's flat key space (row ``r`` of table ``t`` is
``offsets[t] + r``, see :func:`repro.nn.embedding.key_offsets`), a uint32
while the key space has at most 2**32 rows, as every paper model's does.
Its int8 RRPV stands in for the valid bit too: -1 marks an empty way.  The
default SRAM's ~2 M entries take 10 MiB of host memory.

Those arrays exist only while the EAL learns, and a learning phase that
profiles several EALs in turn learns in one set of arrays, which each EAL
hands to the next (:meth:`EmbeddingAccessLogger.release`, then
:meth:`EmbeddingAccessLogger.reuse`).  A set per EAL would cost resident
memory even though only one is live at a time: once the first freed set
has gone back to the OS, glibc raises its mmap threshold above the set's
size, places the next same-size allocation on its heap, and keeps that
memory when it is freed.

An :class:`OracleLFUTracker` (exact least-frequently-used with unbounded
counters) is provided as the comparison point of Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lookup_engine import FeistelRandomizer
from repro.hwsim.units import MIB
from repro.nn.embedding import check_ids


@dataclass(frozen=True)
class EALConfig:
    """Configuration of the Embedding Access Logger.

    Attributes:
        size_bytes: SRAM capacity (paper default 4 MB).
        bytes_per_entry: Storage per tracked index (valid + RRPV + tag = 17
            bits, rounded to 2 bytes as in the paper's 2M-entry sizing).
        ways: Set associativity used by the model.
        num_banks: Number of SRAM banks for parallel lookups.
        queue_size: Input-queue depth feeding the banks.
        max_rrpv: Maximum RRPV value (2-bit counter -> 3).
        insertion_rrpv: RRPV assigned to newly inserted entries.  Inserting
            with a *distant* re-reference prediction (max_rrpv - 1) lets
            one-off tail accesses churn through without displacing the
            frequently re-referenced hot entries.
    """

    size_bytes: int = 4 * MIB
    bytes_per_entry: int = 2
    ways: int = 16
    num_banks: int = 64
    queue_size: int = 512
    max_rrpv: int = 3
    insertion_rrpv: int = 2

    @property
    def num_entries(self) -> int:
        """Total number of trackable indices."""
        return max(self.ways, self.size_bytes // self.bytes_per_entry)

    @property
    def num_sets(self) -> int:
        """Number of sets in the set-associative organisation."""
        return max(1, self.num_entries // self.ways)


class EmbeddingAccessLogger:
    """SRRIP-based tracker of frequently-accessed embedding indices.

    The EAL tracks rows of one model's tables: ``rows_per_table`` fixes its
    flat key space, and an id outside its table is rejected, since its
    flat key would be a row of the next table.

    The state is two ``(sets, ways)`` arrays: the flat keys (uint32 when
    the key space has at most 2**32 rows, else uint64) and int8 RRPVs,
    where -1 marks an empty way; an empty way's key never affects a
    result.  Each lookup's set is hashed from its ``(table, row)`` pair.
    A block of lookups runs vectorised across sets (:meth:`_access`):
    sets never interact, so each set replays its own accesses in the
    block's order, table-major as the lookup engines feed them, and the
    result equals accessing one lookup at a time (``tests/oracle.py``'s
    ``ReferenceEAL`` is that per-access loop).

    The arrays exist only while the EAL learns, as the SRAM's tracked set
    matters only until it becomes the placement.  They are allocated at
    the first access after construction or :meth:`clear`, unless
    :meth:`reuse` hands the EAL another EAL's released arrays first.
    :meth:`release` drops them, returns them and keeps the hit, miss,
    insertion and eviction counters; :meth:`clear` drops them and zeroes
    the counters.  The trainers release each EAL as soon as its hot sets
    are taken and pass its arrays to the next shard's EAL.  Without arrays
    the EAL tracks nothing: :meth:`contains` is false, :meth:`hot_indices`
    empty and :attr:`occupancy` 0.
    """

    def __init__(self, rows_per_table, config: EALConfig | None = None, seed: int = 0):
        self.config = config or EALConfig()
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self._randomizer = FeistelRandomizer(seed=seed)
        #: Table ``t``'s flat keys are ``[edges[t], edges[t + 1])``.
        self._edges = np.cumsum((0, *self.rows_per_table), dtype=np.int64)
        self._key_dtype = np.dtype(np.uint32 if self._edges[-1] <= 2**32 else np.uint64)
        self._keys: np.ndarray | None = None
        self._rrpv: np.ndarray | None = None
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Key handling
    # ------------------------------------------------------------------ #
    def _locate(self, tables: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Set and flat key of each id of a ``(tables, n)`` row block,
        flattened table-major; ``tables`` names the table of each row.

        The set comes from the ``(table, row)`` pair, folded to 32 bits
        *including* the table before hashing, so the same row id in
        different tables lands in different sets — otherwise the hot rows
        of every table would contend for the same few sets.  The fold
        takes the row's low 32 bits, and its uint32 products wrap modulo
        2**32.
        """
        table_fold = ((tables.astype(np.uint64) + 1) * 0x9E3779B1 & 0xFFFFFFFF).astype(np.uint32)
        folded = rows.astype(np.uint32) * np.uint32(0x85EBCA77) + table_fold[:, None]
        sets = self._randomizer.hash(folded) % self.config.num_sets
        keys = rows + self._edges[tables][:, None]
        return sets.astype(np.intp).reshape(-1), keys.astype(self._key_dtype).reshape(-1)

    def _allocate(self) -> None:
        """Allocate empty ``(sets, ways)`` key and RRPV arrays."""
        shape = (self.config.num_sets, self.config.ways)
        self._keys = np.zeros(shape, dtype=self._key_dtype)
        self._rrpv = np.full(shape, -1, dtype=np.int8)

    # ------------------------------------------------------------------ #
    # Learning-phase access path
    # ------------------------------------------------------------------ #
    def access(self, table: int, index: int) -> bool:
        """Record one access; returns True on a hit (already tracked).

        Raises ``ValueError``, before any state changes, if ``table`` is
        not one of the key space's tables or ``index`` lies outside it.
        """
        num_tables = len(self.rows_per_table)
        if not 0 <= table < num_tables:
            raise ValueError(f"EAL table {table} out of range [0, {num_tables})")
        rows = self.rows_per_table[table]
        if not 0 <= index < rows:
            raise ValueError(f"id out of range [0, {rows}) for table {table}")
        return self._access(*self._locate(np.array([table]), np.array([[index]]))) == 1

    def access_batch(self, sparse: np.ndarray) -> int:
        """Record every lookup of a (batch, tables, pooling) index array.

        The lookups are taken table-major (all of table 0's, then table
        1's, ...).  The block is checked first
        (:func:`~repro.nn.embedding.check_ids`): an id outside its table
        raises ``ValueError`` naming the table, before any state changes.
        Returns the number of hits.
        """
        block = check_ids(sparse, self.rows_per_table)
        batch, num_tables, pooling = block.shape
        rows = block.transpose(1, 0, 2).reshape(num_tables, batch * pooling)
        return self._access(*self._locate(np.arange(num_tables), rows))

    def _access(self, sets: np.ndarray, keys: np.ndarray) -> int:
        """SRRIP over flat ``keys`` in access order, each in its set of
        ``sets``; returns the hits.

        The keys are stably sorted by set, so each set's subsequence keeps
        its order.  A run of one key inside a subsequence collapses to its
        first access: the repeats are hits and leave the entry at RRPV 0.
        Then round ``r`` serves the ``r``-th remaining access of every set
        that has one, all sets at once.
        """
        total = keys.size
        if total and self._rrpv is None:
            self._allocate()
        order = np.argsort(sets, kind="stable")
        sets, keys = sets[order], keys[order]
        new_run = np.ones(total, dtype=bool)
        new_run[1:] = (sets[1:] != sets[:-1]) | (keys[1:] != keys[:-1])
        starts = np.flatnonzero(new_run)
        repeated = np.diff(starts, append=total) > 1
        sets, keys = sets[starts], keys[starts]
        hits = total - starts.size
        self.hits += hits
        rank = np.arange(sets.size) - np.searchsorted(sets, sets)
        by_rank = np.argsort(rank, kind="stable")
        begin = 0
        for end in np.cumsum(np.bincount(rank)):
            take = by_rank[begin:end]
            hits += self._round(sets[take], keys[take], repeated[take])
            begin = end
        return hits

    def _round(self, sets: np.ndarray, keys: np.ndarray, repeated: np.ndarray) -> int:
        """One access to each of the distinct ``sets``; returns the hits.

        A hit resets its RRPV to 0.  A miss fills the set's first empty
        way or, in a full set, ages every entry by ``max_rrpv - max(RRPV)``
        and evicts the first way at ``max_rrpv``; the fill inserts at
        ``insertion_rrpv`` (at 0 when the key repeats right after).
        """
        max_rrpv = self.config.max_rrpv
        rrpv = self._rrpv[sets]
        valid = rrpv >= 0
        match = valid & (self._keys[sets] == keys[:, None])
        hit = match.any(axis=1)
        way = match.argmax(axis=1)
        miss = np.flatnonzero(~hit)
        if miss.size:
            free = ~valid[miss]
            way[miss] = free.argmax(axis=1)
            full = miss[~free.any(axis=1)]
            if full.size:
                aged = rrpv[full]
                aged += np.maximum(max_rrpv - aged.max(axis=1), 0)[:, None]
                self._rrpv[sets[full]] = aged
                way[full] = (aged >= max_rrpv).argmax(axis=1)
                self.evictions += full.size
            self._keys[sets[miss], way[miss]] = keys[miss]
            self.misses += miss.size
            self.insertions += miss.size
        self._rrpv[sets, way] = np.where(hit | repeated, 0, self.config.insertion_rrpv)
        hits = sets.size - miss.size
        self.hits += hits
        return hits

    # ------------------------------------------------------------------ #
    # Acceleration-phase query path
    # ------------------------------------------------------------------ #
    def contains(self, table: int, index: int) -> bool:
        """Whether (table, index) is currently tracked as frequently accessed.

        An id outside its table, or of a table outside the key space, is
        never tracked.
        """
        if (
            self._rrpv is None
            or not 0 <= table < len(self.rows_per_table)
            or not 0 <= index < self.rows_per_table[table]
        ):
            return False
        sets, keys = self._locate(np.array([table]), np.array([[index]]))
        set_idx = sets[0]
        return bool(np.any((self._rrpv[set_idx] >= 0) & (self._keys[set_idx] == keys[0])))

    def hot_indices(self, num_tables: int) -> list[np.ndarray]:
        """Currently tracked indices, grouped per table and sorted."""
        if self._rrpv is None:
            return [np.empty(0, dtype=np.int64) for _ in range(num_tables)]
        keys = np.sort(self._keys[self._rrpv >= 0]).astype(np.int64)
        edges = self._edges[np.minimum(np.arange(num_tables + 1), len(self.rows_per_table))]
        bounds = np.searchsorted(keys, edges)
        return [
            keys[start:stop] - edge
            for edge, start, stop in zip(edges[:-1], bounds[:-1], bounds[1:], strict=True)
        ]

    @property
    def occupancy(self) -> float:
        """Fraction of entries currently valid."""
        return 0.0 if self._rrpv is None else float((self._rrpv >= 0).mean())

    @property
    def hit_rate(self) -> float:
        """Hit rate over all accesses so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_statistics(self) -> None:
        """Zero the hit/miss/insertion counters (keeps the tracked set)."""
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def release(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Drop the tracked set's key and RRPV arrays and return them
        (``None`` if none were held); the counters stay.

        Called once the learning phase has taken the hot sets: the next
        access starts from an empty EAL, and the next EAL to learn may
        :meth:`reuse` the arrays.
        """
        arrays = None if self._rrpv is None else (self._keys, self._rrpv)
        self._keys = self._rrpv = None
        return arrays

    def reuse(self, arrays: tuple[np.ndarray, np.ndarray] | None) -> None:
        """Learn in ``arrays``, another EAL's :meth:`release`, from empty.

        Their RRPVs are reset to -1 in place.  Arrays of another shape or
        key dtype are dropped, and the first access allocates fresh ones.
        An EAL that already holds a tracked set keeps it.
        """
        if self._rrpv is not None or arrays is None:
            return
        keys, rrpv = arrays
        shape = (self.config.num_sets, self.config.ways)
        if keys.shape == rrpv.shape == shape and keys.dtype == self._key_dtype:
            rrpv.fill(-1)
            self._keys, self._rrpv = keys, rrpv

    def clear(self) -> None:
        """Forget everything — used when re-entering the learning phase."""
        self.release()
        self.reset_statistics()


class OracleLFUTracker:
    """Exact least-frequently-used tracker (Figure 15's Oracle baseline).

    Keeps an unbounded per-index counter and reports the top-``capacity``
    indices as frequently accessed.  This is what the EAL approximates; a
    hardware implementation would need 24-bit counters per entry, which the
    paper rejects for area reasons.
    """

    def __init__(self, capacity_entries: int):
        if capacity_entries <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_entries = capacity_entries
        self._counts: dict[tuple[int, int], int] = {}

    def access_batch(self, sparse: np.ndarray) -> None:
        """Record every lookup of a (batch, tables, pooling) index array."""
        batch, num_tables, pooling = sparse.shape
        for table in range(num_tables):
            values, counts = np.unique(sparse[:, table, :].reshape(-1), return_counts=True)
            for value, count in zip(values, counts, strict=True):
                key = (table, int(value))
                self._counts[key] = self._counts.get(key, 0) + int(count)

    def hot_indices(self, num_tables: int) -> list[np.ndarray]:
        """Top-capacity indices by access count, grouped per table."""
        ranked = sorted(self._counts.items(), key=lambda item: item[1], reverse=True)
        top = ranked[: self.capacity_entries]
        result: list[list[int]] = [[] for _ in range(num_tables)]
        for (table, index), _count in top:
            if table < num_tables:
                result[table].append(index)
        return [np.array(sorted(rows), dtype=np.int64) for rows in result]


# ---------------------------------------------------------------------- #
# Bank-parallelism design space (Figure 16)
# ---------------------------------------------------------------------- #
def expected_parallel_requests(queue_size: int, num_banks: int) -> float:
    """Expected requests issued per iteration for a given queue and bank count.

    With a queue of ``queue_size`` pending lookups mapped uniformly onto
    ``num_banks`` banks, at most one request per bank issues per iteration,
    so the expectation is the expected number of distinct banks hit:
    ``n * (1 - (1 - 1/n)^m)``.
    """
    if queue_size <= 0 or num_banks <= 0:
        raise ValueError("queue_size and num_banks must be positive")
    n = float(num_banks)
    m = float(queue_size)
    return n * (1.0 - (1.0 - 1.0 / n) ** m)
