"""Fused-vs-sequential µ-batch parity: one gather/scatter, same bits.

The fused execution path gathers each table's **whole mini-batch block
once**, trains the µ-batches on selections of the pooled output, and
produces every µ-batch's sparse gradient with **one**
:func:`~repro.nn.embedding.segmented_scatter` (each lookup keyed into its
segment's private id space, so per-row contributions accumulate in the
exact per-segment order).  This suite proves the path is bit-transparent
at every layer — the raw kernels, the model-level
``fused_loss_and_gradients`` on DLRM and TBSM, the single-replica
:class:`HotlineTrainer`, and the multi-replica
:class:`ShardedHotlineTrainer` in sync, stale-k, lookahead and tier runs.
The trainer-level references are the production trainers running the test
oracle's sequential models (``tests/oracle.py``).
"""

import numpy as np
import pytest

from repro.core.classifier import split_minibatch
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.pipeline import HotlineTrainer
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import EmbeddingBag, segment_ids_for, segmented_scatter
from tests.oracle import SequentialDLRM, SequentialTBSM


def assert_bit_identical(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


def partition(batch_size, rng, parts=2):
    """A random ascending partition of ``range(batch_size)``."""
    assignment = rng.integers(0, parts, size=batch_size)
    assignment[: parts] = np.arange(parts)  # every part non-empty
    return [np.nonzero(assignment == s)[0] for s in range(parts)]


# --------------------------------------------------------------------- #
# Kernel level
# --------------------------------------------------------------------- #
def test_backward_segments_matches_per_segment_backward(rng):
    bag = EmbeddingBag(40, 4, np.random.default_rng(1))
    block = rng.integers(0, 40, size=(9, 2))
    segments = partition(9, rng)
    grads = [rng.normal(size=(len(idx), 4)) for idx in segments]
    bag.forward(block)
    fused = bag.backward_segments(grads, segments)
    for idx, grad_out, grad_fused in zip(segments, grads, fused, strict=True):
        bag.forward(block[idx])
        reference = bag.backward(grad_out)
        np.testing.assert_array_equal(grad_fused.indices, reference.indices)
        np.testing.assert_array_equal(grad_fused.values, reference.values)


def test_segmented_scatter_overlapping_rows(rng):
    """Rows shared across segments stay separated: each segment's gradient
    only accumulates its own contributions, in its own order."""
    flat_indices = np.asarray([1, 2, 1, 1, 2, 1])
    flat_segments = np.asarray([0, 1, 0, 1, 0, 1])
    flat_grads = rng.normal(size=(6, 2))
    seg_a, seg_b = segmented_scatter(flat_indices, flat_grads, flat_segments, 2, 8, 2)
    np.testing.assert_array_equal(seg_a.indices, [1, 2])
    np.testing.assert_array_equal(seg_a.values[0], flat_grads[0] + flat_grads[2])
    np.testing.assert_array_equal(seg_a.values[1], flat_grads[4])
    np.testing.assert_array_equal(seg_b.indices, [1, 2])
    np.testing.assert_array_equal(seg_b.values[0], flat_grads[3] + flat_grads[5])


def test_segmented_scatter_empty():
    out = segmented_scatter(
        np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty(0, dtype=np.int64),
        2, 10, 3,
    )
    assert [grad.nnz for grad in out] == [0, 0]
    assert all(grad.values.shape == (0, 3) for grad in out)


def test_segment_ids_and_backward_guards():
    bag = EmbeddingBag(10, 2, np.random.default_rng(2))
    with pytest.raises(RuntimeError):
        bag.backward_segments([np.zeros((1, 2))], [np.arange(1)])
    bag.forward(np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(ValueError):  # one gradient block per segment
        bag.backward_segments([np.zeros((3, 2))], [np.arange(2), np.arange(2, 3)])
    with pytest.raises(ValueError):  # gradient block / segment size mismatch
        bag.backward_segments(
            [np.zeros((1, 2)), np.zeros((1, 2))], [np.arange(2), np.arange(2, 3)]
        )
    with pytest.raises(ValueError):  # not a partition: a sample is missing
        segment_ids_for([np.arange(2)], 3)
    with pytest.raises(ValueError):  # not a partition: overlap
        segment_ids_for([np.arange(2), np.arange(1, 3)], 3)
    np.testing.assert_array_equal(
        segment_ids_for([np.asarray([0, 2]), np.asarray([1])], 3), [0, 1, 0]
    )


# --------------------------------------------------------------------- #
# Model level
# --------------------------------------------------------------------- #
def model_level_parity(model_cls, config, log, seed):
    sequential = model_cls(config, seed=seed)
    fused = model_cls(config, seed=seed)
    batch = log.batch(0, 64)
    rng = np.random.default_rng(seed)
    segments = partition(batch.size, rng)

    sequential.zero_grad()
    seq_losses, seq_grads = [], []
    for idx in segments:
        loss, grads = sequential.loss_and_gradients(
            batch.select(idx), normalizer=batch.size
        )
        seq_losses.append(float(loss))
        seq_grads.append(grads)

    fused.zero_grad()
    fused_losses, fused_grads = fused.fused_loss_and_gradients(
        batch, segments, normalizer=batch.size
    )

    assert fused_losses == seq_losses
    for table in range(len(sequential.tables)):
        for segment in range(2):
            reference = seq_grads[segment][table]
            candidate = fused_grads[table][segment]
            np.testing.assert_array_equal(candidate.indices, reference.indices)
            np.testing.assert_array_equal(candidate.values, reference.values)
    for (_, grad_seq), (_, grad_fused) in zip(
        sequential.dense_parameters(), fused.dense_parameters(), strict=True
    ):
        np.testing.assert_array_equal(grad_fused, grad_seq)


def test_fused_loss_and_gradients_parity_dlrm(tiny_model_config, tiny_click_log):
    model_level_parity(DLRM, tiny_model_config, tiny_click_log, seed=5)


def test_fused_loss_and_gradients_parity_tbsm(tiny_ts_model_config, tiny_ts_click_log):
    model_level_parity(TBSM, tiny_ts_model_config, tiny_ts_click_log, seed=5)


def test_fused_after_segment_hook_sees_per_segment_state(
    tiny_model_config, tiny_click_log
):
    """The hook fires after each segment's backward with that segment's
    loss — the point the sharded trainer snapshots per-µ-batch partials."""
    model = DLRM(tiny_model_config, seed=0)
    batch = tiny_click_log.batch(0, 32)
    segments = [np.arange(16), np.arange(16, 32)]
    seen = []
    model.zero_grad()
    losses, _ = model.fused_loss_and_gradients(
        batch, segments, normalizer=batch.size,
        after_segment=lambda s, loss: seen.append((s, loss)),
    )
    assert seen == [(0, losses[0]), (1, losses[1])]


def test_fused_rejects_bad_segments(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=0)
    batch = tiny_click_log.batch(0, 8)
    with pytest.raises(ValueError):  # empty segment
        model.fused_loss_and_gradients(batch, [np.arange(8), np.empty(0, np.int64)])
    with pytest.raises(ValueError):  # not a partition
        model.fused_loss_and_gradients(batch, [np.arange(4)])
    assert model.fused_loss_and_gradients(batch, []) == (
        [], [[]] * len(model.tables)
    )


# --------------------------------------------------------------------- #
# Trainer level
# --------------------------------------------------------------------- #
def hotline_run(model_cls, config, log):
    trainer = HotlineTrainer(model_cls(config, seed=31), lr=0.1, sample_fraction=0.25)
    result = trainer.train(
        MiniBatchLoader(log, batch_size=128), epochs=2, eval_batch=log.batch(0, 256)
    )
    return trainer, result


#: Production model -> (its sequential oracle, config fixture, log fixture).
MODELS = {
    DLRM: (SequentialDLRM, "tiny_model_config", "tiny_click_log"),
    TBSM: (SequentialTBSM, "tiny_ts_model_config", "tiny_ts_click_log"),
}


@pytest.mark.parametrize(
    "model_cls, config_fixture, log_fixture",
    [
        (DLRM, "tiny_model_config", "tiny_click_log"),
        (TBSM, "tiny_ts_model_config", "tiny_ts_click_log"),
    ],
)
def test_hotline_trainer_fused_bit_parity(
    model_cls, config_fixture, log_fixture, request
):
    config = request.getfixturevalue(config_fixture)
    log = request.getfixturevalue(log_fixture)
    trainer_f, result_f = hotline_run(model_cls, config, log)
    trainer_s, result_s = hotline_run(MODELS[model_cls][0], config, log)
    assert result_f.losses == result_s.losses
    assert result_f.final_metrics == result_s.final_metrics
    assert_bit_identical(
        trainer_f.model.state_snapshot(), trainer_s.model.state_snapshot()
    )


def test_hotline_fused_handles_single_segment_steps(tiny_model_config, tiny_click_log):
    """An empty popular (or non-popular) µ-batch degenerates to one fused
    segment; the split invariant O ∪ X = M still holds."""
    trainer = HotlineTrainer(DLRM(tiny_model_config, seed=3), sample_fraction=0.25)
    loader = MiniBatchLoader(tiny_click_log, batch_size=64)
    trainer.bind(loader)
    batch = next(iter(loader))
    # Force the degenerate split: no hot rows at all -> everything is
    # non-popular -> exactly one fused segment.
    for table in range(trainer.placement.index.num_tables):
        trainer.placement.index.replace_table(table, np.empty(0, dtype=np.int64))
    micro = split_minibatch(batch, trainer.placement.index)
    assert micro.popular.size == 0
    loss, micro_out = trainer.train_step(batch)
    assert micro_out.non_popular.size == batch.size
    assert np.isfinite(loss)


def sharded_run(model_cls, config, log, *, num_shards=2, tier_share=None, **knobs):
    if tier_share is not None:
        knobs["tiered_hot_bytes"] = tier_share * config.embedding_bytes
    trainer = ShardedHotlineTrainer(
        model_cls(config, seed=17), num_shards, lr=0.05, sample_fraction=0.25, **knobs
    )
    result = trainer.train(
        MiniBatchLoader(log, batch_size=128), epochs=1, eval_batch=log.batch(0, 256)
    )
    return trainer, result


@pytest.mark.parametrize(
    "knobs",
    [
        {},
        {"mode": "overlap"},
        {"partition_embeddings": True},
        # The stale-0 + lookahead fast path: the cached pipeline defers
        # nothing, so the fused path must stay bit-identical through it.
        {"lookahead_window": 3},
        # And a genuinely deferring pipeline: fused and sequential must
        # agree on every flush too (same merged gradients in, same out).
        {"lookahead_window": 3, "mode": "stale-2"},
        # Shard-count extremes (K=1 degenerate, K=4 wide) through the new
        # single-pass interaction + fused-epilogue kernels.
        {"num_shards": 1},
        {"num_shards": 4},
        # Stale-k runs take the one stacked pass too: TBSM with a
        # deferring lookahead, and the step benchmark's K=4 stale-2 shape
        # (W=8 lookahead, a hot tier of 25% of the table bytes).
        {"model": TBSM, "mode": "stale-2", "lookahead_window": 3},
        {
            "num_shards": 4, "mode": "stale-2", "lookahead_window": 8,
            "tier_share": 0.25,
        },
    ],
)
def test_sharded_trainer_fused_bit_parity(knobs, request):
    knobs = dict(knobs)
    model_cls = knobs.pop("model", DLRM)
    oracle_cls, config_fixture, log_fixture = MODELS[model_cls]
    config = request.getfixturevalue(config_fixture)
    log = request.getfixturevalue(log_fixture)
    trainer_f, result_f = sharded_run(model_cls, config, log, **knobs)
    trainer_s, result_s = sharded_run(oracle_cls, config, log, **knobs)
    assert result_f.losses == result_s.losses
    assert result_f.final_metrics == result_s.final_metrics
    assert result_f.cache_hits == result_s.cache_hits
    assert result_f.stale_rows == result_s.stale_rows
    for replica_f, replica_s in zip(trainer_f.replicas, trainer_s.replicas, strict=True):
        assert_bit_identical(
            replica_f.model.state_snapshot(), replica_s.model.state_snapshot()
        )
    assert trainer_f.replica_drift() == 0.0
