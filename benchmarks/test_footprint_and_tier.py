"""Footprint + tier traffic benchmarks for the sparse-path artifact.

Two accounting series for ``BENCH_sparse_path.json``:

* ``pending_store_peak_bytes`` — the window-bound invariant as a CI gate:
  driving the lookahead pipeline against a 10M-row (Criteo-Terabyte-class)
  table, the pending store's peak footprint must stay under the
  window-derived bound (cached rows x per-row slab bytes) — never the
  ~10 GB a table-sized buffer would take.  Recorded as a gated speedup
  (``bound / peak``, gate 1.0) so ``check_bench_gates.py`` audits it.
* ``tiered_store_traffic`` — hit/miss/eviction counts and the hit rate of
  :class:`~repro.nn.embedding.TieredEmbeddingStore` under Zipf-skewed
  lookups with the head pinned, tracking the tier's effectiveness across
  commits (informational: the hit rate follows the skew, not a code
  property worth gating).
"""

import time

import numpy as np

from benchmarks.figutils import record_bench
from repro.core.lookahead import CachedEmbeddingPipeline
from repro.nn.embedding import SparseGradient, TieredEmbeddingStore

TABLE_ROWS = 10_000_000
DIM = 8


def test_pending_store_peak_bytes_window_bound(benchmark):
    """Peak pending bytes <= window bound at 10M-row scale, and the gate
    lands in the artifact with the measured headroom."""
    window, staleness, steps = 4, 2, 24
    rng = np.random.default_rng(17)
    # A hot pool makes rows recur within the window so deferral genuinely
    # accumulates (disjoint batches would flush every row as it retires).
    pool = rng.choice(TABLE_ROWS, size=2_000, replace=False)
    batches = [
        np.unique(
            np.concatenate(
                [
                    rng.choice(pool, size=48, replace=False),
                    rng.choice(TABLE_ROWS, size=16, replace=False),
                ]
            )
        ).astype(np.int64)
        for _ in range(steps + window)
    ]
    grads = [
        SparseGradient(rows, rng.normal(size=(rows.size, DIM))) for rows in batches
    ]

    def drive():
        pipe = CachedEmbeddingPipeline((TABLE_ROWS,), window=window, staleness=staleness)
        pipe.begin_epoch(iter([[rows] for rows in batches]))
        window_rows = 0
        for rows, grad in zip(batches[:steps], grads[:steps], strict=False):
            pipe.observe(rows.reshape(-1, 1, 1))
            window_rows = max(window_rows, pipe.cached_rows_total + rows.size)
            pipe.defer([grad])
        pipe.begin_epoch(None)
        return pipe, window_rows

    start = time.perf_counter()
    pipe, window_rows = drive()
    elapsed = time.perf_counter() - start
    benchmark(drive)

    per_row_bound = 2 * (DIM * 8 + 8) + 16 + 2 * 8
    bound_bytes = window_rows * per_row_bound
    peak = pipe.peak_pending_bytes
    headroom = bound_bytes / peak
    print(
        f"\npending store @ {TABLE_ROWS} rows, window {window}: peak {peak} B, "
        f"window bound {bound_bytes} B (headroom {headroom:.2f}x)"
    )
    record_bench(
        "pending_store_peak_bytes",
        config=f"rows={TABLE_ROWS}, dim={DIM}, window={window}, "
        f"staleness={staleness}, steps={steps}, peak_bytes={peak}, "
        f"bound_bytes={bound_bytes}",
        seconds=elapsed / steps,
        speedup=headroom,
        gate=1.0,
        enforced=True,
    )
    assert headroom >= 1.0  # the gate the artifact claims
    assert peak < 1_000_000  # nowhere near the table-sized ~10 GB buffer


def test_refcount_footprint_window_bound(benchmark):
    """The window refcounts stay O(window rows) at 10M-row scale.

    Before the compact layout, the lookahead window kept one table-sized
    int32 refcount array — 40 MB for a single Criteo-Terabyte-class
    table, the exact O(table) footprint :class:`FlatPendingStore` was
    built to avoid.  The compact sorted-row layout must track only the
    rows the window actually references (12 bytes each: int64 row +
    int32 count).  Recorded as a gated compaction factor
    (``table_sized_bytes / peak_refcount_bytes``, gate 1.0) so
    ``check_bench_gates.py`` audits it.
    """
    window, steps = 4, 24
    rng = np.random.default_rng(17)
    batches = [
        np.unique(rng.choice(TABLE_ROWS, size=64, replace=False)).astype(np.int64)
        for _ in range(steps + window)
    ]
    grads = [
        SparseGradient(rows, rng.normal(size=(rows.size, DIM))) for rows in batches
    ]

    def drive():
        pipe = CachedEmbeddingPipeline((TABLE_ROWS,), window=window)
        pipe.begin_epoch(iter([[rows] for rows in batches]))
        peak_refcount = 0
        for rows, grad in zip(batches[:steps], grads[:steps], strict=False):
            pipe.observe(rows.reshape(-1, 1, 1))
            peak_refcount = max(peak_refcount, pipe.refcount_bytes)
            # The layout is exactly 12 bytes per *currently cached* row.
            assert pipe.refcount_bytes == pipe.cached_rows_total * 12
            pipe.defer([grad])
        return pipe, peak_refcount

    start = time.perf_counter()
    pipe, peak_refcount = drive()
    elapsed = time.perf_counter() - start
    benchmark(drive)

    table_sized_bytes = TABLE_ROWS * 4  # the retired int32-per-row array
    compaction = table_sized_bytes / peak_refcount
    print(
        f"\nwindow refcounts @ {TABLE_ROWS} rows, window {window}: peak "
        f"{peak_refcount} B vs table-sized {table_sized_bytes} B "
        f"({compaction:.0f}x smaller)"
    )
    record_bench(
        "refcount_footprint_bytes",
        config=f"rows={TABLE_ROWS}, window={window}, steps={steps}, "
        f"peak_refcount_bytes={peak_refcount}, "
        f"table_sized_bytes={table_sized_bytes}",
        seconds=elapsed / steps,
        speedup=compaction,
        gate=1.0,
        enforced=True,
    )
    assert compaction >= 1.0  # the gate the artifact claims
    # O(window): a handful of 64-row batches, nowhere near 40 MB.
    assert peak_refcount < 100_000


def test_tiered_store_traffic(benchmark):
    """Zipf lookups against a tier whose capacity holds the head: most
    traffic hits, the tail churns the LFU pool; counts land in the
    artifact."""
    steps, lookups = 32, 4_096
    rng = np.random.default_rng(29)
    batches = [
        (rng.zipf(1.5, size=lookups) - 1) % TABLE_ROWS for _ in range(steps)
    ]

    def drive():
        tier = TieredEmbeddingStore(
            (TABLE_ROWS,), DIM, hot_bytes=1_024 * DIM * 4
        )
        tier.pin_rows(0, np.arange(256))  # the placement's hot head
        for rows in batches:
            tier.touch(0, rows)
        return tier

    start = time.perf_counter()
    tier = drive()
    elapsed = time.perf_counter() - start
    benchmark(drive)

    print(
        f"\ntiered store @ {TABLE_ROWS} rows: hits {tier.hits}, "
        f"misses {tier.misses}, evictions {tier.evictions}, "
        f"hit rate {tier.hit_rate:.3f}"
    )
    record_bench(
        "tiered_store_traffic",
        config=f"rows={TABLE_ROWS}, dim={DIM}, capacity_rows={tier.capacity_rows}, "
        f"zipf=1.5, steps={steps}, lookups={lookups}, hits={tier.hits}, "
        f"misses={tier.misses}, evictions={tier.evictions}, "
        f"hit_rate={tier.hit_rate:.3f}",
        seconds=elapsed / steps,
    )
    assert tier.hits > tier.misses  # the pinned head absorbs the skew
    assert tier.evictions > 0  # the tail actually churned
    assert tier.resident_rows <= tier.capacity_rows + 256