"""Pending-store microbenchmark: flat arrays vs the dict reference.

The lookahead cache's deferred write-back store moved from
``dict[int, np.ndarray]`` churn (O(nnz) Python per step) to
:class:`~repro.core.lookahead.FlatPendingStore` — a sorted key array with
aligned gradient-row and birth-step arrays over every table's flat keys,
driven by one binary search, one insert, one scatter and boolean masks.
This benchmark drives both stores through the same defer → age-flush →
take cycle the
:class:`~repro.core.lookahead.CachedEmbeddingPipeline` performs each
training step (one flat-keyed gradient per step), at RM1-scale nnz (a
2048-sample Taobao batch touches tens of thousands of unique rows per
step across the 21-lookup history table), and asserts the multiple-x
speedup that justifies the flat layout.
Bit-parity first: a fast-but-wrong store must not pass.

The gate is 3.5×, below the 5-8× the store measures: the window-bounded
layout (arrays sized to the pending rows, not table-sized dense scatter
buffers, which were ~10 GB per Criteo-Terabyte table) pays an insert and
a compaction over the pending rows on every step, and the measured
speedup moves with host load.  The artifact still records the
exact measured value, so drift toward the gate is visible even while the
assertion holds.
"""

import time

import numpy as np

from benchmarks.figutils import record_bench
from repro.core.lookahead import FlatPendingStore
from repro.models import RM1
from repro.nn.embedding import SparseGradient, key_offsets
from tests.oracle import ReferencePendingStore

#: Minimum speedup of the flat store over the dict reference (see the
#: module docstring for why this sits below the typical measurement).
MIN_SPEEDUP = 3.5

#: Tables scaled like the hot-path benchmarks (full RM1 weights are not
#: materialised anyway — only the flat store's accumulation buffers — but
#: the 1M-row item table keeps the buffers at a realistic, cache-hostile
#: size while staying CI-friendly).
CONFIG = RM1.scaled(max_rows_per_table=1_000_000)

#: Unique deferred rows per table per step — RM1-scale nnz: batch 2048 ×
#: the 21-lookup history reaches ~16-40k unique rows on the item table.
NNZ_PER_STEP = 16_384

STEPS = 24
STALENESS = 2


def flat_gradient(rows_per_table, draw) -> SparseGradient:
    """One flat-keyed gradient from ``draw(rows) -> (sorted unique rows,
    values)`` called table by table: table ``t``'s rows become keys
    ``offsets[t] + row``."""
    keys, values = [], []
    for offset, rows in zip(key_offsets(rows_per_table), rows_per_table, strict=True):
        unique, rows_values = draw(rows)
        keys.append(unique.astype(np.int64) + offset)
        values.append(rows_values)
    return SparseGradient(np.concatenate(keys), np.concatenate(values))


def make_steps(rows_per_table, dim, seed=5):
    """One flat-keyed gradient per step, drawn table by table."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        nnz = min(NNZ_PER_STEP, rows // 2)
        unique = np.sort(rng.choice(rows, size=nnz, replace=False))
        return unique, rng.normal(size=(nnz, dim))

    return [flat_gradient(rows_per_table, draw) for _ in range(STEPS)]


def drive(store, steps):
    """One pipeline-shaped cycle: defer, age-scan, flush, final drain."""
    flushed = []
    for step, grad in enumerate(steps):
        store.defer(grad, step)
        flushed.append(store.take(store.aged_rows(step, STALENESS)))
    flushed.append(store.take_all())
    return flushed


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_pending_store_speedup(benchmark):
    rows_per_table = CONFIG.dataset.rows_per_table
    steps = make_steps(rows_per_table, CONFIG.embedding_dim)

    flat = FlatPendingStore()
    reference = ReferencePendingStore()

    # Parity first: every flushed gradient must match bit for bit.
    for flat_grad, ref_grad in zip(drive(flat, steps), drive(reference, steps), strict=True):
        np.testing.assert_array_equal(flat_grad.indices, ref_grad.indices)
        np.testing.assert_array_equal(flat_grad.values, ref_grad.values)

    # Steady state: the warm-up above also faulted in the flat store's
    # accumulation buffers (a one-time cost in real training, where one
    # store lives for the whole run).
    flat_time = best_of(lambda: drive(flat, steps))
    ref_time = best_of(lambda: drive(reference, steps))
    benchmark(lambda: drive(flat, steps))
    speedup = ref_time / flat_time
    per_step = flat_time / STEPS
    print(
        f"\npending store @ {NNZ_PER_STEP} nnz x {len(rows_per_table)} tables: "
        f"dict {ref_time * 1e3:.1f} ms, flat {flat_time * 1e3:.1f} ms "
        f"({per_step * 1e6:.0f} us/step), speedup {speedup:.1f}x"
    )
    record_bench(
        "pending_store_flat_vs_dict",
        config=f"RM1-scale nnz={NNZ_PER_STEP}, tables={rows_per_table}, "
        f"dim={CONFIG.embedding_dim}, staleness={STALENESS}, steps={STEPS}",
        seconds=per_step,
        speedup=speedup,
        gate=MIN_SPEEDUP,
        enforced=True,
    )
    assert speedup >= MIN_SPEEDUP


def test_pending_store_speedup_skewed_traffic(benchmark):
    """Zipf-skewed deferrals (the pipeline's real traffic): fewer unique
    rows per step, so the dict's per-row cost shrinks — the flat store
    must still win clearly."""
    rows_per_table = CONFIG.dataset.rows_per_table
    rng = np.random.default_rng(11)

    def draw(rows):
        unique = np.unique(rng.zipf(1.3, size=2048 * 21) % rows)
        return unique, rng.normal(size=(unique.size, CONFIG.embedding_dim))

    steps = [flat_gradient(rows_per_table, draw) for _ in range(STEPS)]

    flat = FlatPendingStore()
    reference = ReferencePendingStore()
    drive(flat, steps)  # warm (buffer allocation + page faults)
    drive(reference, steps)
    flat_time = best_of(lambda: drive(flat, steps))
    ref_time = best_of(lambda: drive(reference, steps))
    benchmark(lambda: drive(flat, steps))
    speedup = ref_time / flat_time
    print(
        f"\npending store, zipf traffic: dict {ref_time * 1e3:.1f} ms, "
        f"flat {flat_time * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    record_bench(
        "pending_store_flat_vs_dict_zipf",
        config=f"zipf(1.3) 2048x21 lookups, tables={rows_per_table}",
        seconds=flat_time / STEPS,
        speedup=speedup,
    )
    assert speedup >= 2.0
