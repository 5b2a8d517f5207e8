"""Bit-parity suite: flat-array pending store vs the dict reference.

The :class:`~repro.core.lookahead.FlatPendingStore` replaces the original
dict-of-rows deferred write-back store with dense buffers, bitmaps, and a
birth-step array.  Everything observable must be **bit-identical** to the
test oracle's ``ReferencePendingStore`` (``tests/oracle.py``): flushed
gradients (row order and accumulated values), birth steps, pending counts,
eviction/age flush order through a full :class:`CachedEmbeddingPipeline`,
epoch carries, and conservation of every deferred unit of gradient.  The
reset paths are pinned too: clearing the store must reset the gradient
buffer, bitmap, and birth array atomically so a reused trainer starts from
a state indistinguishable from a fresh one (the PR 5 counterpart of the
PR 4 ``bind()`` fix).
"""

import numpy as np
import pytest

from repro.core.lookahead import CachedEmbeddingPipeline, FlatPendingStore
from repro.nn.embedding import SparseGradient
from tests.oracle import ReferencePendingStore

ROWS_PER_TABLE = (48, 17)


def random_grad(rng, rows, dim=3, nnz_max=12):
    nnz = int(rng.integers(1, nnz_max))
    indices = np.sort(rng.choice(rows, size=min(nnz, rows), replace=False))
    values = rng.normal(size=(indices.size, dim))
    return SparseGradient(indices.astype(np.int64), values)


def assert_same_gradient(flat: SparseGradient, ref: SparseGradient):
    np.testing.assert_array_equal(flat.indices, ref.indices)
    np.testing.assert_array_equal(flat.values, ref.values)


def test_stores_agree_on_a_random_defer_take_schedule():
    """Fuzz both stores through an identical schedule of defers, age scans,
    and partial takes; every observable must match bit for bit."""
    rng = np.random.default_rng(11)
    flat = FlatPendingStore(ROWS_PER_TABLE)
    ref = ReferencePendingStore(ROWS_PER_TABLE)
    for step in range(40):
        for table, rows in enumerate(ROWS_PER_TABLE):
            grad = random_grad(rng, rows)
            flat.defer(table, grad, step)
            ref.defer(table, grad, step)
            assert flat.pending_count(table) == ref.pending_count(table)
            assert flat.birth_steps(table) == ref.birth_steps(table)
            staleness = int(rng.integers(1, 4))
            aged_flat = flat.aged_rows(table, step, staleness)
            aged_ref = ref.aged_rows(table, step, staleness)
            np.testing.assert_array_equal(aged_flat, aged_ref)
            # Take a random sorted subset (some rows pending, some not).
            probe = np.sort(rng.choice(rows, size=min(8, rows), replace=False))
            np.testing.assert_array_equal(
                flat.pending_mask(table, probe), ref.pending_mask(table, probe)
            )
            assert_same_gradient(flat.take(table, probe), ref.take(table, probe))
        assert flat.total_pending == ref.total_pending
    # Drain everything left; both must produce the identical gradient.
    for table in range(len(ROWS_PER_TABLE)):
        assert_same_gradient(flat.take_all(table), ref.take_all(table))
    assert flat.total_pending == ref.total_pending == 0


def test_take_of_nothing_matches_reference_shape():
    flat = FlatPendingStore(ROWS_PER_TABLE)
    ref = ReferencePendingStore(ROWS_PER_TABLE)
    empty_rows = np.empty(0, dtype=np.int64)
    assert_same_gradient(flat.take(0, empty_rows), ref.take(0, empty_rows))
    assert flat.take(0, np.asarray([3, 5])).nnz == 0
    assert flat.take_all(1).nnz == 0


def test_accumulation_order_matches_dict_reference():
    """A row deferred several times accumulates its contributions in
    arrival order in both stores — bit-identical float sums."""
    flat = FlatPendingStore((4,))
    ref = ReferencePendingStore((4,))
    rng = np.random.default_rng(3)
    for step in range(7):
        values = rng.normal(size=(2, 5)) * 10.0 ** rng.integers(-3, 3)
        grad = SparseGradient(np.asarray([1, 3], dtype=np.int64), values)
        flat.defer(0, grad, step)
        ref.defer(0, grad, step)
        assert flat.birth_steps(0) == {1: 0, 3: 0}
    assert_same_gradient(flat.take_all(0), ref.take_all(0))


def test_duplicate_indices_accumulate_like_the_reference():
    """Merged gradients carry unique indices by contract, but a directly
    built gradient with a repeated row must still accumulate both
    contributions (the flat store falls back to the duplicate-safe
    scatter instead of silently keeping only the last write)."""
    flat = FlatPendingStore((8,))
    ref = ReferencePendingStore((8,))
    dup = SparseGradient(np.asarray([5, 5, 2], dtype=np.int64), np.full((3, 2), 1.5))
    flat.defer(0, dup, 0)
    ref.defer(0, dup, 0)
    assert flat.pending_count(0) == ref.pending_count(0) == 2
    taken_flat, taken_ref = flat.take_all(0), ref.take_all(0)
    np.testing.assert_array_equal(taken_flat.indices, taken_ref.indices)
    np.testing.assert_array_equal(taken_flat.values, taken_ref.values)
    np.testing.assert_array_equal(taken_flat.values[1], [3.0, 3.0])  # both hits


def test_buffers_allocate_lazily_and_window_bounded():
    """A store that never defers allocates nothing, and one that defers
    allocates proportionally to the *deferred* row set — never a
    table-sized float buffer or birth array (the window-bound invariant
    the Criteo-Terabyte deferral path depends on)."""
    store = FlatPendingStore((1 << 20, 64))
    assert store._values == [None, None]
    assert store._births == [None, None]
    assert store.pending_bytes == 0
    store.defer(1, SparseGradient(np.asarray([3], dtype=np.int64), np.ones((1, 2))), 0)
    assert store._values[0] is None and store._births[0] is None
    # The value slab tracks the single deferred row, not the 64-row table.
    assert store._values[1].shape == (1, 2)
    store.clear()  # must tolerate the un-allocated table
    assert store.total_pending == 0
    # clear() frees (not zeroes): no capacity survives the reset.
    assert store.pending_bytes == 0
    assert store.peak_pending_bytes == 0


def test_footprint_is_window_bounded_at_terabyte_scale():
    """Memory-footprint regression: a 10M-row table with a small window
    never allocates table-sized deferral structures — peak pending-store
    bytes stay proportional to the cached row set.  Runs the full
    pipeline (window + staleness flushes + epoch carry) so the bound
    covers every path a training run exercises."""
    rows_per_table = (10_000_000,)
    dim, window, staleness = 8, 4, 2
    pipe = CachedEmbeddingPipeline(rows_per_table, window=window, staleness=staleness)
    rng = np.random.default_rng(17)
    # Rows recur across nearby batches (a hot pool) so deferral genuinely
    # accumulates instead of every row flushing as its batch retires.
    pool = rng.choice(10_000_000, size=2_000, replace=False)
    batches = [
        np.unique(
            np.concatenate(
                [
                    rng.choice(pool, size=48, replace=False),
                    rng.choice(10_000_000, size=16, replace=False),
                ]
            )
        )
        for _ in range(28)
    ]
    pipe.begin_epoch(iter([[rows.astype(np.int64)] for rows in batches]))
    window_rows = 0
    # Stop four batches short of the stream so the window is still full at
    # the epoch boundary and the carry path has real pending rows to flush.
    for rows in batches[:24]:
        pipe.observe(rows.astype(np.int64).reshape(-1, 1, 1))
        # Pending rows are a subset of the cached set plus (transiently)
        # the retiring batch's rows — the window bound of the invariant.
        window_rows = max(window_rows, pipe.cached_rows_total + rows.size)
        grad = SparseGradient(rows.astype(np.int64), rng.normal(size=(rows.size, dim)))
        pipe.defer([grad])
    carry = pipe.begin_epoch(None)
    assert carry is not None  # the deferral path genuinely ran
    # Bytes per pending row: (dim + 1) slab float64/int64 on <2x-capacity
    # slabs, plus row id + slot + recycled free-slot entries.
    per_row_bound = 2 * (dim * 8 + 8) + 16 + 2 * 8
    assert pipe.peak_pending_bytes <= window_rows * per_row_bound
    # And nowhere near the ~10 GB table-sized buffer this regression pins.
    assert pipe.peak_pending_bytes < 1_000_000
    # The epoch carry freed the slabs entirely (satellite of the same fix).
    assert pipe.pending_bytes == 0


def test_fuzz_duplicate_and_unsorted_indices_match_reference():
    """Boundary-contract fuzz: gradients violating the SparseGradient
    sorted-unique contract (duplicates, shuffled order, repeats of rows
    already pending) must accumulate bit-identically to the dict
    reference through defers, age scans, and takes."""
    rng = np.random.default_rng(23)
    flat = FlatPendingStore(ROWS_PER_TABLE)
    ref = ReferencePendingStore(ROWS_PER_TABLE)
    for step in range(30):
        for table, rows in enumerate(ROWS_PER_TABLE):
            nnz = int(rng.integers(2, 10))
            # Sampling with replacement yields duplicates; the shuffle
            # breaks sortedness.
            indices = rng.choice(rows, size=nnz, replace=True)
            rng.shuffle(indices)
            grad = SparseGradient(
                indices.astype(np.int64), rng.normal(size=(nnz, 3))
            )
            flat.defer(table, grad, step)
            ref.defer(table, grad, step)
            assert flat.pending_count(table) == ref.pending_count(table)
            assert flat.birth_steps(table) == ref.birth_steps(table)
            aged_flat = flat.aged_rows(table, step, 2)
            aged_ref = ref.aged_rows(table, step, 2)
            np.testing.assert_array_equal(aged_flat, aged_ref)
            assert_same_gradient(flat.take(table, aged_flat), ref.take(table, aged_ref))
    for table in range(len(ROWS_PER_TABLE)):
        assert_same_gradient(flat.take_all(table), ref.take_all(table))


def run_pipeline(pending_store, batches, grads, *, window, staleness):
    """Drive one pipeline over a fixed stream; collect every flush.

    ``pending_store`` is ``"flat"`` (the pipeline's own store) or
    ``"reference"`` (the oracle's dict store swapped in)."""
    pipe = CachedEmbeddingPipeline((64,), window=window, staleness=staleness)
    if pending_store == "reference":
        pipe.pending = ReferencePendingStore(pipe.rows_per_table)
    pipe.begin_epoch(iter([[np.asarray(rows, dtype=np.int64)] for rows in batches]))
    flushes, stats = [], []
    for rows, grad in zip(batches, grads, strict=True):
        pipe.observe(np.asarray(rows, dtype=np.int64).reshape(-1, 1, 1))
        flushes.append(pipe.defer([grad]))
        stats.append(
            (pipe.last_stats.stale_rows, pipe.last_stats.evicted_rows,
             pipe.pending_rows_total)
        )
    carry = pipe.begin_epoch(None)
    return pipe, flushes, stats, carry


def make_stream(seed, steps=24, universe=64):
    rng = np.random.default_rng(seed)
    batches, grads = [], []
    for _ in range(steps):
        rows = np.sort(rng.choice(universe, size=4, replace=False))
        batches.append(rows.tolist())
        grads.append(SparseGradient(rows.astype(np.int64), rng.normal(size=(4, 2))))
    return batches, grads


@pytest.mark.parametrize("staleness", [1, 2, 4])
@pytest.mark.parametrize("window", [0, 2])
def test_pipeline_parity_flat_vs_reference(window, staleness):
    """Eviction flushes, age flushes, their order, the per-step stats, and
    the epoch carry are bit-identical between the two stores."""
    batches, grads = make_stream(seed=staleness * 10 + window)
    _, flushes_f, stats_f, carry_f = run_pipeline(
        "flat", batches, grads, window=window, staleness=staleness
    )
    _, flushes_r, stats_r, carry_r = run_pipeline(
        "reference", batches, grads, window=window, staleness=staleness
    )
    assert stats_f == stats_r
    for step_f, step_r in zip(flushes_f, flushes_r, strict=True):
        for grad_f, grad_r in zip(step_f, step_r, strict=True):
            assert_same_gradient(grad_f, grad_r)
    assert (carry_f is None) == (carry_r is None)
    if carry_f is not None:
        for grad_f, grad_r in zip(carry_f, carry_r, strict=True):
            assert_same_gradient(grad_f, grad_r)


@pytest.mark.parametrize("pending_store", ["flat", "reference"])
def test_conservation_under_both_stores(pending_store):
    """Every deferred unit of gradient is applied exactly once."""
    batches, grads = make_stream(seed=9, steps=16)
    total_in = np.zeros((64, 2))
    for grad in grads:
        total_in[grad.indices] += grad.values
    _, flushes, _, carry = run_pipeline(
        pending_store, batches, grads, window=3, staleness=2
    )
    total_out = np.zeros((64, 2))
    for step in flushes:
        for grad in step:
            if grad.nnz:
                total_out[grad.indices] += grad.values
    if carry is not None:
        total_out[carry[0].indices] += carry[0].values
    np.testing.assert_allclose(total_out, total_in)


def test_clear_resets_buffer_bitmap_and_births_atomically():
    """Regression (PR 5): after ``clear()`` the flat store must be
    indistinguishable from a fresh one — a surviving birth step or a
    non-zeroed buffer row would poison the next run's flush timing or
    values."""
    store = FlatPendingStore((16,))
    rng = np.random.default_rng(5)
    for step in range(4):
        store.defer(0, random_grad(rng, 16, dim=2), step)
    assert store.total_pending > 0
    store.clear()
    assert store.total_pending == 0
    assert store.birth_steps(0) == {}
    assert store.aged_rows(0, step=100, staleness=0).size == 0
    # The buffer rows really are zero: a fresh defer must flush exactly its
    # own value, with the fresh birth step.
    grad = SparseGradient(np.asarray([3], dtype=np.int64), np.full((1, 2), 7.5))
    store.defer(0, grad, 0)
    assert store.birth_steps(0) == {3: 0}
    assert_same_gradient(store.take_all(0), grad)


def test_pipeline_reset_is_equivalent_to_a_fresh_pipeline():
    """Reuse-the-trainer regression, pipeline level: a reset pipeline must
    replay a stream bit-identically to a never-used pipeline (gradient
    buffers, birth arrays, and bitmaps all restart together)."""
    batches, grads = make_stream(seed=21, steps=12)
    used = CachedEmbeddingPipeline((64,), window=2, staleness=2)
    used.begin_epoch(iter([[np.asarray(rows, dtype=np.int64)] for rows in batches]))
    for rows, grad in zip(batches[:7], grads[:7], strict=False):
        used.observe(np.asarray(rows, dtype=np.int64).reshape(-1, 1, 1))
        used.defer([grad])
    assert used.pending_rows_total > 0  # there is state to leak
    used.reset()

    fresh = CachedEmbeddingPipeline((64,), window=2, staleness=2)
    replay_f, replay_u = [], []
    for pipe, sink in ((used, replay_u), (fresh, replay_f)):
        pipe.begin_epoch(iter([[np.asarray(rows, dtype=np.int64)] for rows in batches]))
        for rows, grad in zip(batches, grads, strict=True):
            pipe.observe(np.asarray(rows, dtype=np.int64).reshape(-1, 1, 1))
            sink.append(pipe.defer([grad]))
    for step_u, step_f in zip(replay_u, replay_f, strict=True):
        for grad_u, grad_f in zip(step_u, step_f, strict=True):
            assert_same_gradient(grad_u, grad_f)
    assert used.pending_rows_total == fresh.pending_rows_total
