"""Hot-path microbenchmarks: vectorised embedding + classification speedups.

The vectorised :class:`~repro.nn.embedding.EmbeddingBag` (single gather +
segment-sum scatter) and the bitmap-based
:func:`~repro.core.classifier.split_minibatch` replaced per-sample Python
loops and per-step ``np.isin`` scans.  These benchmarks measure both paths
against the test oracle's loop references on an RM1-sized (Taobao Alibaba)
mini-batch of 2048 inputs and assert the speedup that justifies the
refactor, recording the vectorised throughput for the bench trajectory.
"""

import time

import numpy as np

from benchmarks.figutils import record_bench
from repro.core.classifier import split_minibatch
from repro.core.hotset import HotSetIndex
from repro.data import MiniBatch, generate_click_log
from repro.models import RM1
from repro.nn.embedding import EmbeddingBag
from tests.oracle import reference_backward, reference_forward, split_minibatch_reference

#: Paper-scale mini-batch for the functional trainer benchmarks.
BATCH_SIZE = 2048

#: Minimum speedup of the vectorised path over the per-sample loop path.
MIN_SPEEDUP = 5.0

#: Scaled tables for the embedding benchmark (full-size RM1 weights would
#: need ~0.5 GB); the speedup comes from removing the per-sample loop, not
#: from the table size.
CONFIG = RM1.scaled(max_rows_per_table=20_000)

#: The classification benchmark runs at *full* RM1 scale (4.1M-row item
#: table): only indices and bitmaps are materialised, and the whole point of
#: HotSetIndex is that ``np.isin``'s per-step cost grows with the hot-set
#: size while the bitmap lookup does not.
FULL_CONFIG = RM1


def best_of(fn, repeats=3):
    """Smallest wall-clock of ``repeats`` runs (noise-robust timing)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def make_workload(seed=23):
    log = generate_click_log(CONFIG.dataset, BATCH_SIZE, seed=seed)
    batch = MiniBatch(dense=log.dense, sparse=log.sparse, labels=log.labels)
    rng = np.random.default_rng(seed)
    bag = EmbeddingBag(
        CONFIG.dataset.rows_per_table[:1], CONFIG.embedding_dim, np.random.default_rng(0)
    )
    indices = batch.sparse[:, :1, :]
    grad_output = rng.normal(size=(BATCH_SIZE, 1, CONFIG.embedding_dim))
    hot_sets = [
        np.sort(rng.choice(rows, size=max(1, rows // 2), replace=False))
        for rows in CONFIG.dataset.rows_per_table
    ]
    return batch, bag, indices, grad_output, hot_sets


def test_embedding_forward_backward_speedup(benchmark):
    _batch, bag, indices, grad_output, _hot_sets = make_workload()

    def vectorized():
        bag.forward(indices)
        return bag.backward(grad_output)

    def looped():
        reference_forward(bag.table(0), indices[:, 0])
        return reference_backward(indices[:, 0], grad_output[:, 0], bag.dim)

    # Parity first: a fast-but-wrong kernel must not pass the benchmark.
    np.testing.assert_array_equal(vectorized().values, looped().values)

    loop_time = best_of(looped)
    fast_time = best_of(vectorized)
    benchmark(vectorized)
    speedup = loop_time / fast_time
    print(
        f"\nembedding fwd+bwd @ batch {BATCH_SIZE}: loop {loop_time * 1e3:.2f} ms, "
        f"vectorized {fast_time * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    record_bench(
        "embedding_forward_backward",
        config=f"RM1.scaled(20k) batch={BATCH_SIZE}, dim={CONFIG.embedding_dim}",
        seconds=fast_time,
        speedup=speedup,
    )
    assert speedup >= MIN_SPEEDUP


def test_split_minibatch_speedup(benchmark):
    log = generate_click_log(FULL_CONFIG.dataset, BATCH_SIZE, seed=23)
    batch = MiniBatch(dense=log.dense, sparse=log.sparse, labels=log.labels)
    rng = np.random.default_rng(23)
    # Hot sets sized like a learning phase's output: an eighth of each table
    # (the paper's 512 MB HBM replica holds millions of rows).
    hot_sets = [
        np.sort(rng.choice(rows, size=max(1, rows // 8), replace=False))
        for rows in FULL_CONFIG.dataset.rows_per_table
    ]
    index = HotSetIndex(hot_sets, rows_per_table=FULL_CONFIG.dataset.rows_per_table)

    def vectorized():
        return split_minibatch(batch, index)

    def looped():
        return split_minibatch_reference(batch, hot_sets)

    np.testing.assert_array_equal(vectorized().popular_mask, looped().popular_mask)

    loop_time = best_of(looped)
    fast_time = best_of(vectorized)
    benchmark(vectorized)
    speedup = loop_time / fast_time
    print(
        f"\nsplit_minibatch @ batch {BATCH_SIZE}, full RM1 tables: "
        f"np.isin {loop_time * 1e3:.2f} ms, bitmap {fast_time * 1e3:.2f} ms, "
        f"speedup {speedup:.0f}x"
    )
    record_bench(
        "split_minibatch_classification",
        config=f"full RM1 tables, batch={BATCH_SIZE}, hot=1/8 of each table",
        seconds=fast_time,
        speedup=speedup,
    )
    assert speedup >= MIN_SPEEDUP
