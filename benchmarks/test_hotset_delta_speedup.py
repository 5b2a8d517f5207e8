"""Micro-benchmark: incremental HotSetIndex updates vs full rebuilds.

Recalibration used to rebuild the membership bitmap from scratch, a cost
that grows with the *table* size (allocate + repopulate + re-fault the
whole bitmap).  The delta path
(:meth:`~repro.core.hotset.HotSetIndex.replace_table`) computes the drifted
rows in O(hot-set) work and flips only those bits in the table's slice of
the flat bitmap, so its cost is independent of the table size.  This
benchmark pins the hot-set size and grows the table 10x.

Two tests.  The deterministic one compares work by counts: the rebuild's
traced allocation peak grows with the table, the delta path's stays flat,
and the delta path flips exactly the drifted rows' bits.  The timing one
checks that at Criteo-Terabyte-order tables the delta path wins outright
(medians of interleaved rounds), which is what keeps the paper's
twice-per-epoch recalibration cadence cheap.
"""

import time
import tracemalloc

import numpy as np

from repro.core.hotset import HotSetIndex

#: EAL-capacity-order tracked hot rows (fixed across table sizes).
HOT_ROWS = 50_000

#: Fraction of the hot set that drifts between recalibrations.
DRIFT = 0.05

#: Small / large table sizes (the large one is Criteo-Terabyte order).
SMALL_TABLE = 4_000_000
LARGE_TABLE = 40_000_000

#: Classification probe issued after each update so both paths pay the
#: first-use page-fault cost of the bitmap they produce.
PROBE_LOOKUPS = 50_000

#: Interleaved timing rounds per path; the timing check compares medians.
ROUNDS = 11


def drifted_hot_sets(rows_per_table):
    rng = np.random.default_rng(7)
    old_hot = np.sort(rng.choice(rows_per_table, size=HOT_ROWS, replace=False))
    keep = rng.random(HOT_ROWS) >= DRIFT
    fresh = rng.choice(rows_per_table, size=int(HOT_ROWS * DRIFT), replace=False)
    return old_hot, np.union1d(old_hot[keep], fresh)


def probe_rows(rows_per_table):
    return np.random.default_rng(3).integers(0, rows_per_table, size=PROBE_LOOKUPS)


def rebuild(rows_per_table, new_hot, probe):
    """The from-scratch path: a fresh index over the new hot set."""
    rebuilt = HotSetIndex([new_hot], rows_per_table=(rows_per_table,))
    rebuilt.contains(0, probe)


def warm_index(rows_per_table, old_hot, probe):
    index = HotSetIndex([old_hot], rows_per_table=(rows_per_table,))
    index.contains(0, probe)  # warm, as a live placement's bitmap would be
    return index


def delta(index, new_hot, probe):
    """The delta path on a live index; returns ``(added, removed)``."""
    added, removed = index.replace_table(0, new_hot)
    index.contains(0, probe)
    return added, removed


def traced_peak(fn):
    """Peak traced bytes allocated while ``fn()`` runs, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


def work_counts(rows_per_table):
    """(rebuild peak bytes, delta peak bytes, bits flipped, rows drifted)."""
    old_hot, new_hot = drifted_hot_sets(rows_per_table)
    probe = probe_rows(rows_per_table)
    rebuild_peak, _ = traced_peak(lambda: rebuild(rows_per_table, new_hot, probe))
    index = warm_index(rows_per_table, old_hot, probe)
    before = index.bitmap(0).copy()
    delta_peak, (added, removed) = traced_peak(lambda: delta(index, new_hot, probe))
    flipped = int(np.count_nonzero(before != index.bitmap(0)))
    return rebuild_peak, delta_peak, flipped, added.size + removed.size


def median_times(rows_per_table):
    """Median (rebuild, delta) seconds per recalibration at one table size."""
    old_hot, new_hot = drifted_hot_sets(rows_per_table)
    probe = probe_rows(rows_per_table)
    rebuild_s, delta_s = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        rebuild(rows_per_table, new_hot, probe)
        rebuild_s.append(time.perf_counter() - start)

        index = warm_index(rows_per_table, old_hot, probe)
        start = time.perf_counter()
        delta(index, new_hot, probe)
        delta_s.append(time.perf_counter() - start)
    return float(np.median(rebuild_s)), float(np.median(delta_s))


def test_delta_update_is_table_size_independent():
    small = work_counts(SMALL_TABLE)
    large = work_counts(LARGE_TABLE)
    print()
    for label, (rebuild_peak, delta_peak, flipped, _) in (
        (f"{SMALL_TABLE:,} rows", small),
        (f"{LARGE_TABLE:,} rows", large),
    ):
        print(
            f"  {label}: rebuild peak {rebuild_peak / 1e6:.2f} MB, "
            f"delta peak {delta_peak / 1e6:.2f} MB, {flipped:,} bits flipped"
        )
    # Rebuild work tracks the table size (10x more rows here)...
    assert large[0] / small[0] > 3.0
    # ...while the delta path's O(hot-set) work stays essentially flat...
    assert large[1] / small[1] < 3.0
    # ...flipping exactly the drifted rows' bits at either size.
    for _, _, flipped, drifted in (small, large):
        assert flipped == drifted


def test_delta_update_beats_rebuild_at_criteo_terabyte_scale(benchmark):
    rebuild_large, delta_large = benchmark.pedantic(
        lambda: median_times(LARGE_TABLE), rounds=1, iterations=1
    )
    print(
        f"\n  {LARGE_TABLE:,} rows, median of {ROUNDS}: rebuild {rebuild_large * 1e3:.2f} ms, "
        f"delta {delta_large * 1e3:.2f} ms ({rebuild_large / delta_large:.1f}x)"
    )
    assert rebuild_large / delta_large > 2.0


def test_delta_update_matches_rebuild_state():
    old_hot, new_hot = drifted_hot_sets(SMALL_TABLE)
    index = HotSetIndex([old_hot], rows_per_table=(SMALL_TABLE,))
    added, removed = index.replace_table(0, new_hot)
    rebuilt = HotSetIndex([new_hot], rows_per_table=(SMALL_TABLE,))
    probe = np.random.default_rng(3).integers(0, SMALL_TABLE, size=8192)
    np.testing.assert_array_equal(index.contains(0, probe), rebuilt.contains(0, probe))
    np.testing.assert_array_equal(np.sort(added), np.setdiff1d(new_hot, old_hot))
    np.testing.assert_array_equal(np.sort(removed), np.setdiff1d(old_hot, new_hot))
