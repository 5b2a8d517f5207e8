"""Unit tests for the mini-batch loader."""

import numpy as np
import pytest

from repro.data.loader import MiniBatchLoader
from repro.data.synthetic import generate_click_log
from tests.conftest import TINY_DATASET


@pytest.fixture(scope="module")
def log():
    return generate_click_log(TINY_DATASET, 1000, seed=0)


def test_len_with_drop_last(log):
    loader = MiniBatchLoader(log, batch_size=256, drop_last=True)
    assert len(loader) == 3


def test_len_without_drop_last(log):
    loader = MiniBatchLoader(log, batch_size=256, drop_last=False)
    assert len(loader) == 4


def test_iteration_yields_full_batches(log):
    loader = MiniBatchLoader(log, batch_size=128)
    batches = list(loader)
    assert len(batches) == len(loader)
    assert all(batch.size == 128 for batch in batches)


def test_no_shuffle_is_sequential(log):
    loader = MiniBatchLoader(log, batch_size=100, shuffle=False)
    first = next(iter(loader))
    np.testing.assert_allclose(first.dense, log.dense[:100])


def test_shuffle_changes_order_but_not_content(log):
    loader = MiniBatchLoader(log, batch_size=500, shuffle=True, drop_last=True, seed=3)
    first = next(iter(loader))
    assert not np.allclose(first.dense, log.dense[:500])


def test_sample_batches_fraction(log):
    loader = MiniBatchLoader(log, batch_size=100)
    sampled = loader.sample_batches(0.5, seed=1)
    assert len(sampled) == max(1, round(len(loader) * 0.5))


def test_sample_batches_minimum_one(log):
    loader = MiniBatchLoader(log, batch_size=100)
    assert len(loader.sample_batches(0.01)) == 1


def test_sample_batches_invalid_fraction(log):
    loader = MiniBatchLoader(log, batch_size=100)
    with pytest.raises(ValueError):
        loader.sample_batches(0.0)


def test_invalid_batch_size(log):
    with pytest.raises(ValueError):
        MiniBatchLoader(log, batch_size=0)


def test_invalid_prefetch_depth(log):
    with pytest.raises(ValueError):
        MiniBatchLoader(log, batch_size=10, prefetch=-1)


# ---------------------------------------------------------------------- #
# Prefetching
# ---------------------------------------------------------------------- #
def assert_same_batches(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.sparse, b.sparse)
        np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.parametrize("shuffle", [False, True])
def test_prefetch_yields_identical_batches(log, shuffle):
    """Background assembly must not change what an epoch yields."""
    sync = MiniBatchLoader(log, batch_size=128, shuffle=shuffle, seed=5)
    prefetched = MiniBatchLoader(log, batch_size=128, shuffle=shuffle, seed=5, prefetch=2)
    for _epoch in range(2):  # shuffled orders advance identically too
        assert_same_batches(list(sync), list(prefetched))


def test_epoch_prefetch_override(log):
    loader = MiniBatchLoader(log, batch_size=128)
    assert_same_batches(list(loader.epoch(prefetch=3)), list(loader.epoch(prefetch=0)))


def test_epoch_transform_applied_to_every_batch(log):
    """The transform hook sees each batch exactly once, in epoch order,
    and its return value is what the epoch yields."""
    loader = MiniBatchLoader(log, batch_size=128)
    seen = []

    def tag(batch):
        seen.append(batch)
        batch._tag = len(seen)
        return batch

    batches = list(loader.epoch(transform=tag))
    assert [batch._tag for batch in batches] == list(range(1, len(batches) + 1))
    assert all(a is b for a, b in zip(batches, seen, strict=True))
    assert_same_batches(batches, list(loader.epoch()))


def test_epoch_transform_runs_on_prefetch_worker_thread(log):
    """With prefetching enabled the transform executes on the loader's
    worker thread — that is what lets µ-batch pre-classification overlap
    the training step instead of extending it."""
    import threading

    loader = MiniBatchLoader(log, batch_size=128)
    thread_names = set()

    def spy(batch):
        thread_names.add(threading.current_thread().name)
        return batch

    synchronous = list(loader.epoch(prefetch=0, transform=spy))
    assert thread_names == {threading.current_thread().name}
    thread_names.clear()
    prefetched = list(loader.epoch(prefetch=2, transform=spy))
    assert thread_names == {"minibatch-prefetch"}
    assert_same_batches(synchronous, prefetched)


def test_prefetch_early_break_does_not_hang(log):
    loader = MiniBatchLoader(log, batch_size=64, prefetch=1)
    for i, _batch in enumerate(loader):
        if i == 1:
            break
    # A fresh epoch still yields everything after an abandoned iterator.
    assert len(list(loader)) == len(loader)


def _prefetch_threads():
    import threading

    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("minibatch-prefetch")
    ]


def test_abandoned_prefetch_iterator_leaks_no_worker_thread(log):
    """Regression: the worker used to stay blocked on the full queue when
    the consumer abandoned the iterator mid-epoch; close() must drain the
    queue and *join* the thread."""
    assert _prefetch_threads() == []
    iterator = MiniBatchLoader(log, batch_size=64, prefetch=2).epoch(prefetch=2)
    next(iterator)  # abandon after one batch, worker ahead on a full queue
    iterator.close()
    assert _prefetch_threads() == []


def test_prefetch_break_joins_worker_thread(log):
    """The early-break path (GeneratorExit via refcount) joins the worker too."""
    loader = MiniBatchLoader(log, batch_size=64, prefetch=3)
    for i, _batch in enumerate(loader):
        if i == 0:
            break
    # CPython closes the abandoned generator as the loop's reference dies;
    # the finally block must have drained and joined before returning.
    assert _prefetch_threads() == []


def test_exhausted_prefetch_epoch_joins_worker_thread(log):
    loader = MiniBatchLoader(log, batch_size=256, prefetch=2)
    assert len(list(loader)) == len(loader)
    assert _prefetch_threads() == []


def test_prefetch_propagates_producer_errors():
    class ExplodingLog:
        num_samples = 256

        def __getattr__(self, name):
            raise RuntimeError("boom")

    loader = MiniBatchLoader.__new__(MiniBatchLoader)  # bypass validation
    loader.log = ExplodingLog()
    loader.batch_size = 64
    loader.shuffle = False
    loader.drop_last = True
    loader.seed = 0
    loader.prefetch = 1
    loader._rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="boom"):
        list(loader)


# ---------------------------------------------------------------------- #
# Epoch-order exposure (lookahead consumers)
# ---------------------------------------------------------------------- #
def test_last_epoch_order_mirrors_the_served_epoch(log):
    """epoch() records the eagerly-drawn order so lookahead consumers can
    walk the in-flight epoch's batches without touching the RNG."""
    loader = MiniBatchLoader(log, batch_size=100, shuffle=True, seed=6)
    assert loader.last_epoch_order is None
    first = list(loader)
    order = loader.last_epoch_order
    assert order is not None
    np.testing.assert_array_equal(first[0].labels, log.labels[order[:100]])
    # A sequential loader records None (identity order).
    sequential = MiniBatchLoader(log, batch_size=100)
    list(sequential)
    assert sequential.last_epoch_order is None


# ---------------------------------------------------------------------- #
# Sampling side-effect freedom
# ---------------------------------------------------------------------- #
def test_sample_batches_does_not_perturb_epoch_order(log):
    """Regression: sampling used to consume the epoch-shuffling RNG."""
    undisturbed = MiniBatchLoader(log, batch_size=100, shuffle=True, seed=9)
    sampled_from = MiniBatchLoader(log, batch_size=100, shuffle=True, seed=9)
    first = list(undisturbed)
    sampled_from.sample_batches(0.5, seed=1)  # must not advance the epoch RNG
    assert_same_batches(first, list(sampled_from))
    # And the *next* epochs stay aligned as well.
    assert_same_batches(list(undisturbed), list(sampled_from))


def test_sample_batches_deterministic_on_shuffled_loader(log):
    loader = MiniBatchLoader(log, batch_size=100, shuffle=True, seed=9)
    first = loader.sample_batches(0.5, seed=1)
    second = loader.sample_batches(0.5, seed=1)
    assert_same_batches(first, second)


def test_sample_batches_mirrors_first_epoch_content(log):
    """Sampled batches are actual batches of the loader's first epoch."""
    loader = MiniBatchLoader(log, batch_size=100, shuffle=True, seed=4)
    epoch = list(MiniBatchLoader(log, batch_size=100, shuffle=True, seed=4))
    for batch in loader.sample_batches(0.3, seed=2):
        assert any(np.array_equal(batch.labels, other.labels) for other in epoch)


# ---------------------------------------------------------------------- #
# Each loader batch dealt into shards (MiniBatch.shards) — edge cases
# ---------------------------------------------------------------------- #

def test_sharded_loader_batch_not_divisible_by_shards(log):
    """Batch 100 over K=3: shard sizes differ by at most one, order kept."""
    loader = MiniBatchLoader(log, batch_size=100)
    for batch in loader:
        shards = batch.shards(3)
        sizes = [shard.size for shard in shards]
        assert sum(sizes) == batch.size == 100
        assert max(sizes) - min(sizes) <= 1
        # Pin the exact deal order: the balanced-split bounds formula puts
        # the larger shards last (PartitionedEmbeddingPlacement relies on
        # the same arithmetic).
        assert sizes == [33, 33, 34]
        np.testing.assert_array_equal(
            np.concatenate([shard.labels for shard in shards]), batch.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([shard.sparse for shard in shards]), batch.sparse
        )


def test_sharded_loader_more_shards_than_samples(log):
    """K > batch: every batch still deals K shards, the extras empty."""
    loader = MiniBatchLoader(log, batch_size=5)
    shards = next(iter(loader)).shards(8)
    assert len(shards) == 8
    sizes = [shard.size for shard in shards]
    assert sum(sizes) == 5
    assert sizes.count(0) == 3
    # Empty shards are structurally valid MiniBatches (0, tables, pooling).
    for shard in shards:
        assert shard.sparse.shape[1:] == shards[0].sparse.shape[1:]
        assert shard.dense.shape[0] == shard.labels.shape[0] == shard.size


def test_sharded_loader_empty_shards_are_skippable_views(log):
    """Empty shards carry no data but keep the dtype/shape contract."""
    loader = MiniBatchLoader(log, batch_size=2)
    batch = next(iter(loader))
    shards = batch.shards(4)
    empty = [shard for shard in shards if shard.size == 0]
    assert len(empty) == 2
    for shard in empty:
        assert shard.labels.size == 0
        assert shard.sparse.dtype == batch.sparse.dtype
    # Concatenation round-trips even through the empties.
    np.testing.assert_array_equal(
        np.concatenate([shard.dense for shard in shards]), batch.dense
    )


def test_sharded_loader_single_shard_is_identity(log):
    loader = MiniBatchLoader(log, batch_size=128)
    for batch in loader:
        shards = batch.shards(1)
        assert len(shards) == 1
        assert shards[0].size == batch.size
        np.testing.assert_array_equal(shards[0].labels, batch.labels)
        break


def test_sharded_trainer_handles_empty_shards(tiny_model_config, tiny_click_log):
    """A K=8 trainer on a 5-sample batch trains only the populated shards."""
    from repro.core.distributed import ShardedHotlineTrainer
    from repro.models.dlrm import DLRM

    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=1), 8, lr=0.05, sample_fraction=0.25
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.learning_phase(loader)
    loss, popular_fraction = trainer.train_step(tiny_click_log.batch(0, 5))
    assert np.isfinite(loss)
    assert 0.0 <= popular_fraction <= 1.0
