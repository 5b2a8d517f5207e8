"""Footprint + tier traffic benchmarks for the sparse-path artifact.

Two accounting series for ``BENCH_sparse_path.json``:

* ``pending_store_peak_bytes`` — the window-bound invariant as a CI gate:
  driving the lookahead pipeline over RM2's 26 table shapes scaled so the
  largest holds 10M rows (Criteo-Terabyte class), the pending store's
  peak footprint — three arrays over every table's flat keys, one key,
  one value row and one birth step per pending row — must stay under the
  window-derived bound (cached rows x per-row bytes), never the ~10 GB a
  table-sized buffer would take.  Recorded as a gated speedup
  (``bound / peak``, gate 1.0) so ``check_bench_gates.py`` audits it.
* ``tiered_store_traffic`` — hit/miss/eviction counts and the hit rate of
  :class:`~repro.nn.embedding.TieredEmbeddingStore` under Zipf-skewed
  lookups with the head pinned, tracking the tier's effectiveness across
  commits (informational: the hit rate follows the skew, not a code
  property worth gating).
* ``k4_bind_peak_bytes``, ``evaluate_retained_bytes`` and
  ``predict_peak_bytes`` — the host footprint of a K=4 trainer at the step
  benchmark's RM2 scale, traced with :mod:`tracemalloc` (deterministic):
  constructing and binding it peaks under 24 MiB (the learning phase
  allocates one 10 MiB set of EAL arrays, which every shard's EAL learns
  in turn), and evaluating a 4,096-sample
  held-out batch retains under 64 KiB (the inference forward stores
  nothing on the model) and peaks under 6 MiB (it scores the batch in
  128-row blocks, so one block's Gram and pooled rows are live at a time,
  beside the ``(4096, 256)`` penultimate activations its logit layer
  reads).
* ``k4_stale2_steady_bytes`` — what a K=4 ``stale-2`` trainer with an
  8-batch lookahead and a 25% hot tier (the step benchmark's
  ``k4-stale2-w8-tier``) holds after its 16th step, click log excluded:
  under 14 MiB, with exactly two flat dense gradients in flight and no
  input-gradient workspace beside an activation that is dead when the
  gradient is written.
* ``click_log_bytes`` — what the step benchmark's click log (RM2 at
  1,200-row tables, 32,768 + 4,096 samples) holds: under 7 MiB, with its
  ids in four bytes (``ID_DTYPE``); int64 ids take it to 9.3 MiB.

All five are recorded as gated headroom (``bound / measured``, gate 1.0).
"""

import time
import tracemalloc

import numpy as np

from benchmarks.figutils import record_bench
from repro.core import HotlineScheduler
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EmbeddingAccessLogger
from repro.core.engine import evaluate
from repro.core.lookahead import CachedEmbeddingPipeline
from repro.data import MiniBatchLoader, SyntheticClickLog, generate_click_log
from repro.hwsim import single_node
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.nn.embedding import SparseGradient, TieredEmbeddingStore, key_offsets
from repro.perf import TrainingCostModel

TABLE_ROWS = 10_000_000
DIM = 8
#: RM2's 26 table shapes, scaled so the largest table holds TABLE_ROWS.
RM2_ROWS = RM2.scaled(TABLE_ROWS).dataset.rows_per_table


def test_pending_store_peak_bytes_window_bound(benchmark):
    """Peak pending bytes <= window bound over 26 tables of up to 10M rows,
    and the gate lands in the artifact with the measured headroom."""
    window, staleness, steps, batch = 4, 2, 24, 64
    rng = np.random.default_rng(17)
    # Per table, a hot pool makes rows recur within the window so deferral
    # genuinely accumulates (disjoint batches would flush every row as it
    # retires); a quarter of the lookups go anywhere in the table.
    pools = [rng.choice(rows, size=min(rows, 80), replace=False) for rows in RM2_ROWS]
    blocks = [
        np.stack(
            [
                np.where(
                    rng.random(batch) < 0.75,
                    rng.choice(pool, size=batch),
                    rng.integers(0, rows, size=batch),
                )
                for pool, rows in zip(pools, RM2_ROWS, strict=True)
            ],
            axis=1,
        )[:, :, None]
        for _ in range(steps + window)
    ]
    offsets = key_offsets(RM2_ROWS)[:, None]
    batches = [np.unique(block + offsets) for block in blocks]
    grads = [
        SparseGradient(keys, rng.normal(size=(keys.size, DIM))) for keys in batches
    ]

    def drive():
        pipe = CachedEmbeddingPipeline(RM2_ROWS, window=window, staleness=staleness)
        pipe.begin_epoch(iter(batches))
        window_rows = 0
        for block, keys, grad in zip(blocks[:steps], batches, grads, strict=False):
            pipe.observe(block)
            window_rows = max(window_rows, pipe.cached_rows_total + keys.size)
            pipe.defer(grad)
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
        f"\npending store @ RM2 tables up to {TABLE_ROWS} rows, window {window}: "
        f"peak {peak} B, window bound {bound_bytes} B (headroom {headroom:.2f}x)"
    )
    record_bench(
        "pending_store_peak_bytes",
        config=f"RM2 tables={len(RM2_ROWS)}, max_rows={TABLE_ROWS}, dim={DIM}, "
        f"batch={batch}, window={window}, staleness={staleness}, steps={steps}, "
        f"peak_bytes={peak}, bound_bytes={bound_bytes}",
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
        pipe.begin_epoch(iter(batches))
        peak_refcount = 0
        for rows, grad in zip(batches[:steps], grads[:steps], strict=False):
            pipe.observe(rows.reshape(-1, 1, 1))
            peak_refcount = max(peak_refcount, pipe.refcount_bytes)
            # The layout is exactly 12 bytes per *currently cached* row.
            assert pipe.refcount_bytes == pipe.cached_rows_total * 12
            pipe.defer(grad)
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
        tier.repin(np.arange(256))  # the placement's hot head
        for rows in batches:
            tier.touch(rows)
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


def test_k4_trainer_footprint_at_benchmark_scale():
    """A K=4 trainer over RM2 scaled to 1,200-row tables (the step
    benchmark's ``k4-sync`` set-up, default 4 MB EAL): constructing and
    binding it peaks under 24 MiB, beside one EAL's 10 MiB of arrays (a
    flat uint32 key and an int8 RRPV per entry), and evaluating a
    4,096-sample batch retains under 64 KiB and peaks under 6 MiB."""
    config = RM2.scaled(1200)
    train, held = 32768, 4096
    full = generate_click_log(config.dataset, train + held, 0)
    log = SyntheticClickLog(
        config.dataset, full.dense[:train], full.sparse[:train], full.labels[:train]
    )
    loader = MiniBatchLoader(log, batch_size=256, shuffle=True, seed=1)
    held_out = full.batch(train, held)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        base = tracemalloc.get_traced_memory()[0]
        trainer = ShardedHotlineTrainer(
            DLRM(config, seed=1), 4, lr=0.3, sample_fraction=0.25,
            perf_model=HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(4))),
        )
        trainer.bind(loader)
        bind_peak = tracemalloc.get_traced_memory()[1] - base
        bind_s = time.perf_counter() - start
        start = time.perf_counter()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        evaluate(trainer.model, held_out)
        retained, eval_peak = (
            traced - before for traced in tracemalloc.get_traced_memory()
        )
        eval_s = time.perf_counter() - start
    finally:
        tracemalloc.stop()

    eal = trainer.shards[0].accelerator.eal
    twin = EmbeddingAccessLogger(eal.rows_per_table, eal.config)
    twin.access(0, 0)
    eal_bytes = sum(array.nbytes for array in twin.release())
    bind_bound = 24 * 2**20
    retained_bound = 64 * 1024
    peak_bound = 6 * 2**20
    print(
        f"\nK=4 RM2 @ 1200 rows: construct + bind peak {bind_peak} B "
        f"(bound {bind_bound} B; one EAL {eal_bytes} B), evaluate({held}) retained "
        f"{retained} B (bound {retained_bound} B), peaked at {eval_peak} B "
        f"(bound {peak_bound} B)"
    )
    record_bench(
        "k4_bind_peak_bytes",
        config=f"RM2 max_rows=1200, K=4, sample_fraction=0.25, one EAL array set "
        f"eal_bytes={eal_bytes}, peak_bytes={bind_peak}, bound_bytes={bind_bound} (24 MiB)",
        seconds=bind_s,
        speedup=bind_bound / bind_peak,
        gate=1.0,
        enforced=True,
    )
    record_bench(
        "evaluate_retained_bytes",
        config=f"RM2 max_rows=1200, K=4, held_out={held}, retained_bytes={retained}, "
        f"bound_bytes={retained_bound}",
        seconds=eval_s,
        speedup=retained_bound / max(retained, 1),
        gate=1.0,
        enforced=True,
    )
    record_bench(
        "predict_peak_bytes",
        config=f"RM2 max_rows=1200, K=4, held_out={held}, peak_bytes={eval_peak}, "
        f"bound_bytes={peak_bound}",
        seconds=eval_s,
        speedup=peak_bound / eval_peak,
        gate=1.0,
        enforced=True,
    )
    assert bind_peak < bind_bound
    assert retained < retained_bound
    assert eval_peak < peak_bound


def test_k4_stale2_trainer_steady_footprint():
    """The step benchmark's ``k4-stale2-w8-tier`` trainer (RM2 at 1,200-row
    tables, K=4, ``stale-2``, an 8-batch lookahead, a hot tier of 25% of
    the table bytes) holds under 14 MiB after its 16th step, click log
    excluded: the model, the tier, the lookahead window, the workspaces
    and two flat dense gradients in flight.  A third in-flight buffer
    (1.8 MiB) or the dead input-gradient workspaces (1.3 MiB) break it."""
    config = RM2.scaled(1200)
    log = generate_click_log(config.dataset, 32768, 0)
    loader = MiniBatchLoader(log, batch_size=256, shuffle=True, seed=1, prefetch=0)
    steps = 16
    tracemalloc.start()
    try:
        start = time.perf_counter()
        base = tracemalloc.get_traced_memory()[0]
        trainer = ShardedHotlineTrainer(
            DLRM(config, seed=1), 4, lr=0.3, sample_fraction=0.25, mode="stale-2",
            lookahead_window=8, tiered_hot_bytes=0.25 * config.embedding_bytes,
            perf_model=HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(4))),
        )
        trainer.bind(loader)
        for _step, batch in zip(range(steps), loader.epoch(), strict=False):
            trainer.train_step(batch)
        held = tracemalloc.get_traced_memory()[0] - base
        elapsed = time.perf_counter() - start
    finally:
        tracemalloc.stop()

    bound = 14 * 2**20
    in_flight = [flat for flat in trainer._pending_dense if flat is not None]
    print(
        f"\nK=4 stale-2 w8 tier @ RM2 1200 rows: holds {held} B after step {steps} "
        f"(bound {bound} B), {len(in_flight)} dense gradients in flight"
    )
    record_bench(
        "k4_stale2_steady_bytes",
        config=f"RM2 max_rows=1200, K=4, stale-2, lookahead_window=8, tier 25%, "
        f"batch=256, steps={steps}, held_bytes={held}, bound_bytes={bound} (14 MiB)",
        seconds=elapsed / steps,
        speedup=bound / held,
        gate=1.0,
        enforced=True,
    )
    assert len(in_flight) == 2
    assert held < bound


def test_click_log_footprint():
    """The step benchmark's click log (RM2 at 1,200-row tables, 32,768
    training plus 4,096 held-out samples) holds under 7 MiB: float32 dense
    features and labels, and ``ID_DTYPE`` ids and rank -> row maps.  Its
    26 int64 id columns alone would hold 7.3 MiB."""
    spec = RM2.scaled(1200).dataset
    samples = 32768 + 4096
    # The first call's retained bytes include numpy's lazy imports (~1.8 MB).
    generate_click_log(spec, samples, 0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        base = tracemalloc.get_traced_memory()[0]
        log = generate_click_log(spec, samples, 0)
        held = tracemalloc.get_traced_memory()[0] - base
        elapsed = time.perf_counter() - start
    finally:
        tracemalloc.stop()

    arrays = [log.dense, log.sparse, log.labels, *log.rank_to_row]
    array_bytes = sum(array.nbytes for array in arrays)
    bound = 7 * 2**20
    print(
        f"\nclick log @ RM2 1200 rows, {samples} samples: holds {held} B "
        f"(arrays {array_bytes} B, ids {log.sparse.nbytes} B; bound {bound} B)"
    )
    record_bench(
        "click_log_bytes",
        config=f"RM2 max_rows=1200, samples={samples}, id dtype={log.sparse.dtype}, "
        f"held_bytes={held}, array_bytes={array_bytes}, bound_bytes={bound} (7 MiB)",
        seconds=elapsed,
        speedup=bound / held,
        gate=1.0,
        enforced=True,
    )
    assert held < bound
