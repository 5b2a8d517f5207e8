"""Unit + acceptance tests of the BagPipe-style cached lookahead pipeline.

The window mechanics are pinned on a hand-computed stream (fills, hits,
evictions per step), bounded staleness is asserted as an invariant (no
deferred row ever ages past k, nothing is lost), hit-rate is proven
monotone in the window size, and the ``fig30s`` sweep's acceptance claims
(exposed time shrinking, final loss degrading monotonically with k) run as
a slow end-to-end check.
"""

import numpy as np
import pytest

from repro.core.lookahead import CachedEmbeddingPipeline, epoch_row_stream
from repro.data.loader import MiniBatchLoader
from repro.data.synthetic import generate_click_log
from repro.hwsim.cluster import single_node
from repro.nn.embedding import SparseGradient, key_offsets
from tests.conftest import TINY_DATASET


def block(*rows):
    """A (batch, 1, 1) index block looking up ``rows`` of a 1-table model."""
    return np.asarray(rows, dtype=np.int64).reshape(-1, 1, 1)


def grad(*rows, dim=2, value=1.0):
    """A unit sparse gradient touching ``rows`` (sorted unique)."""
    rows = np.asarray(sorted(rows), dtype=np.int64)
    return SparseGradient(rows, np.full((rows.size, dim), value))


def stream(*batches):
    """A lookahead stream of single-table batches (key == row)."""
    return iter([np.asarray(batch, dtype=np.int64) for batch in batches])


def test_pipeline_validates_configuration():
    with pytest.raises(ValueError):
        CachedEmbeddingPipeline((10,), window=-1)
    with pytest.raises(ValueError):
        CachedEmbeddingPipeline((10,), window=1, staleness=-1)
    with pytest.raises(ValueError):
        CachedEmbeddingPipeline((10,), window=1, row_bytes=0)
    pipe = CachedEmbeddingPipeline((10,), window=1)
    with pytest.raises(ValueError):
        pipe.observe(np.zeros((2, 2), dtype=np.int64))  # not 3-D
    with pytest.raises(ValueError):
        pipe.defer(grad(10))  # key outside the 10-row key space


def test_window_mechanics_hand_computed():
    """Fills, hits, and evictions of a known stream, step by step."""
    pipe = CachedEmbeddingPipeline((10,), window=1)
    pipe.begin_epoch(stream([0, 1], [1, 2], [3], [0, 3]))

    # Step 0: entries b0+b1 enter (rows 0,1 then the uncached 2) — 3 fills;
    # every lookup of b0 was freshly filled by its own entry.
    stats = pipe.observe(block(0, 1))
    assert (stats.fill_rows, stats.cache_hits, stats.cache_misses) == (3, 0, 2)
    assert pipe.cached_rows_total == 3
    pipe.defer(grad(0, 1))
    assert pipe.last_stats.evicted_rows == 1  # row 0: only b0 used it

    # Step 1: b2 enters (row 3 fresh); row 1 was cached before b1 entered.
    stats = pipe.observe(block(1, 2))
    assert (stats.fill_rows, stats.cache_hits, stats.cache_misses) == (1, 1, 1)
    pipe.defer(grad(1, 2))
    assert pipe.last_stats.evicted_rows == 2  # rows 1 and 2 leave the window

    # Step 2: b3 enters (row 0 refilled, row 3 already cached by b2).
    stats = pipe.observe(block(3))
    assert (stats.fill_rows, stats.cache_hits, stats.cache_misses) == (1, 0, 1)
    pipe.defer(grad(3))
    assert pipe.last_stats.evicted_rows == 0  # b3 still needs row 3

    # Step 3: stream dry; row 3 is a hit (cached since b2), row 0 a miss.
    stats = pipe.observe(block(0, 3))
    assert (stats.fill_rows, stats.cache_hits, stats.cache_misses) == (0, 1, 1)
    pipe.defer(grad(0, 3))
    assert pipe.last_stats.evicted_rows == 2
    assert pipe.cached_rows_total == 0


def test_staleness_zero_defer_is_identity():
    """k = 0: defer returns the very gradient it was given — the parity
    fast path that keeps cached runs bit-identical."""
    pipe = CachedEmbeddingPipeline((10,), window=2)
    pipe.begin_epoch(stream([0, 1], [1]))
    pipe.observe(block(0, 1))
    merged = grad(0, 1)
    applied = pipe.defer(merged)
    assert applied is merged
    assert pipe.pending_rows_total == 0


def test_bounded_staleness_invariant_and_conservation():
    """No deferred row ever ages past k, and every deferred unit of
    gradient is eventually applied exactly once (flush or epoch carry)."""
    rng = np.random.default_rng(0)
    batches = [sorted(rng.choice(12, size=3, replace=False).tolist()) for _ in range(8)]
    staleness = 2
    pipe = CachedEmbeddingPipeline((12,), window=3, staleness=staleness)
    pipe.begin_epoch(stream(*batches))
    total_in = np.zeros(12)
    total_out = np.zeros(12)
    for step, rows in enumerate(batches):
        pipe.observe(block(*rows))
        merged = grad(*rows, dim=1)
        total_in[merged.indices] += merged.values[:, 0]
        flushed = pipe.defer(merged)
        if flushed.nnz:
            total_out[flushed.indices] += flushed.values[:, 0]
        # The staleness bound: every still-pending contribution was born
        # within the last k defers.
        births = pipe.pending.birth_steps()
        assert all(step - birth < staleness for birth in births.values())
    carry = pipe.begin_epoch(None)
    if carry is not None:
        total_out[carry.indices] += carry.values[:, 0]
    np.testing.assert_allclose(total_out, total_in)


def test_hit_rate_is_monotone_in_window_size():
    """A wider window keeps rows cached across more upcoming batches, so
    the hit-rate can only grow with W (the fig30s sweep's cache claim)."""
    rng = np.random.default_rng(3)
    batches = [rng.integers(0, 40, size=(16, 1, 1)) for _ in range(12)]
    rates = []
    for window in (0, 1, 2, 4, 8):
        pipe = CachedEmbeddingPipeline((40,), window=window)
        pipe.begin_epoch(stream(*[np.unique(batch) for batch in batches]))
        hits = misses = 0
        for batch in batches:
            stats = pipe.observe(batch)
            hits += stats.cache_hits
            misses += stats.cache_misses
            pipe.defer(grad(*np.unique(batch).tolist()))
        rates.append(hits / (hits + misses))
    assert all(later >= earlier for earlier, later in zip(rates, rates[1:], strict=False))
    assert rates[-1] > rates[0]


def test_begin_epoch_carries_pending_and_resets_cache():
    pipe = CachedEmbeddingPipeline((10,), window=2, staleness=5)
    # Rows 0 and 1 stay referenced by upcoming batches, so with a loose
    # staleness bound their deferred gradient is still pending when the
    # epoch ends — begin_epoch must hand it back, never drop it.
    pipe.begin_epoch(stream([0, 1], [0, 1], [0, 1]))
    pipe.observe(block(0, 1))
    pipe.defer(grad(0, 1, value=2.5))
    assert pipe.pending_rows_total == 2
    carry = pipe.begin_epoch(stream([5]))
    assert carry is not None
    np.testing.assert_array_equal(carry.indices, [0, 1])
    np.testing.assert_allclose(carry.values, 2.5)
    assert pipe.pending_rows_total == 0
    assert pipe.cached_rows_total == 0


def test_prefetch_priced_only_with_a_link():
    cluster = single_node(4)
    priced = CachedEmbeddingPipeline(
        (64,), window=1, row_bytes=32, num_replicas=4, link=cluster.node.gpu_link
    )
    priced.begin_epoch(stream(list(range(32))))
    stats = priced.observe(block(*range(32)))
    assert stats.prefetch_time_s > 0.0
    assert priced.dma.bytes_read == 32 * 32
    free = CachedEmbeddingPipeline((64,), window=1, row_bytes=32, num_replicas=4)
    free.begin_epoch(stream(list(range(32))))
    assert free.observe(block(*range(32))).prefetch_time_s == 0.0


def test_self_feed_without_stream_still_accounts():
    """With no epoch stream the pipeline degenerates to a current-batch
    cache: the guarantees (and counters) survive, just with no lookahead."""
    pipe = CachedEmbeddingPipeline((10,), window=4, staleness=1)
    pipe.begin_epoch(None)
    stats = pipe.observe(block(1, 2))
    assert stats.cache_misses == 2
    flushed = pipe.defer(grad(1, 2))
    # Retiring the only window batch evicts both rows — flushed right away.
    np.testing.assert_array_equal(flushed.indices, [1, 2])


def table_keys(batch):
    """The sorted unique flat keys of a batch, built one table at a time."""
    offsets = key_offsets(TINY_DATASET.rows_per_table)
    return np.concatenate(
        [np.unique(batch.sparse[:, t, :]) + offsets[t] for t in range(batch.num_tables)]
    )


def test_epoch_row_stream_mirrors_loader_epochs():
    """Each batch's keys are its per-table unique rows, shifted by the
    table offsets and laid out table-major — in the loader's own key space
    and in a wider one over the same drawn order."""
    log = generate_click_log(TINY_DATASET, 512, seed=1)
    wider = tuple(2 * rows for rows in TINY_DATASET.rows_per_table)
    for shuffle in (False, True):
        loader = MiniBatchLoader(log, batch_size=128, shuffle=shuffle, seed=4)
        batches = list(loader.epoch())  # draws (and records) the order
        attributes = set(vars(loader))
        mirrored = list(epoch_row_stream(loader, TINY_DATASET.rows_per_table))
        assert len(mirrored) == len(batches)
        for batch, keys in zip(batches, mirrored, strict=True):
            np.testing.assert_array_equal(keys, table_keys(batch))
        offsets = key_offsets(wider)[:, None]
        for batch, keys in zip(batches, epoch_row_stream(loader, wider), strict=True):
            np.testing.assert_array_equal(keys, np.unique(batch.sparse + offsets))
        assert set(vars(loader)) == attributes  # the stream stores nothing


def test_epoch_row_stream_cache_invalidated_by_new_order():
    """A shuffled loader draws a fresh order each epoch, and each walk
    mirrors its own epoch exactly, never a previous epoch's rows."""
    log = generate_click_log(TINY_DATASET, 512, seed=3)
    loader = MiniBatchLoader(log, batch_size=128, shuffle=True, seed=9)
    for _ in range(2):
        batches = list(loader.epoch())
        mirrored = list(epoch_row_stream(loader, TINY_DATASET.rows_per_table))
        for batch, keys in zip(batches, mirrored, strict=True):
            np.testing.assert_array_equal(keys, table_keys(batch))


@pytest.mark.parametrize("bad_id, table", [(4, 0), (-1, 0), (5, 1)])
def test_out_of_range_ids_raise_before_the_window_moves(bad_id, table):
    """An id outside its table must not form another table's key: in
    ``(4, 4)`` tables, table 0's id 4 would be table 1's row 0, and -1 a
    negative key.  ``observe`` raises naming the table, with no window
    state changed, and so does the epoch stream as the batch enters."""
    pipe = CachedEmbeddingPipeline((4, 4), window=1)
    good = np.zeros((1, 2, 1), dtype=np.int64)
    bad = good.copy()
    bad[0, table, 0] = bad_id
    with pytest.raises(ValueError, match=f"for table {table}$"):
        pipe.observe(bad)
    assert pipe.cached_rows_total == 0
    pipe.observe(good)  # the window still works
    assert pipe.cached_rows_total == 2

    log = generate_click_log(TINY_DATASET, 256, seed=6)
    log.sparse[130, table, 0] = -1 if bad_id < 0 else TINY_DATASET.rows_per_table[table]
    loader = MiniBatchLoader(log, batch_size=128)
    list(loader.epoch())
    walk = epoch_row_stream(loader, TINY_DATASET.rows_per_table)
    next(walk)  # the first batch is in range
    with pytest.raises(ValueError, match=f"for table {table}$"):
        next(walk)


@pytest.mark.slow
def test_fig30s_convergence_vs_exposure_acceptance():
    """Acceptance: exposed time shrinks and final loss degrades
    monotonically as k grows, at every window size; hit-rate grows with W."""
    from repro.experiments import run_experiment

    data = run_experiment("fig30s")
    for window in (2, 8):
        column = [data[f"k={k} / W={window}"] for k in (0, 1, 2, 4)]
        losses = [entry["final_loss"] for entry in column]
        exposed = [entry["exposed_communication_s"] for entry in column]
        pairs = zip(losses, losses[1:], strict=False)
        assert all(later > earlier for earlier, later in pairs), losses
        pairs = zip(exposed, exposed[1:], strict=False)
        assert all(later < earlier for earlier, later in pairs), exposed
        assert column[0]["stale_rows"] == 0  # k=0 defers nothing
        assert all(entry["stale_rows"] > 0 for entry in column[1:])
    for k in (0, 1, 2, 4):
        narrow = data[f"k={k} / W=2"]
        wide = data[f"k={k} / W=8"]
        assert wide["cache_hit_rate"] >= narrow["cache_hit_rate"]
        assert narrow["cache_hit_rate"] > 0.5  # the cache genuinely serves lookups
