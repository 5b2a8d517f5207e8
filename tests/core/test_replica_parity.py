"""The K-shard bit-parity harness: one fused pass == the merged oracle.

The headline guarantee of the K-shard trainer: in ``sync`` mode, training
K shards through one fused pass, with the dense ring sum accumulated in
the model's layers, priced by the bucketed
:class:`~repro.core.reducer.GradientBucketReducer`, and the deterministic
sparse exchange, is **bit-identical** — losses and every parameter — to
the test oracle's merged-gradient trainer (``tests/oracle.py``:
``MergedGradientTrainer``), which runs every shard's µ-batches one
``loss_and_gradients`` call at a time.  Verified for K ∈ {1, 2, 4} on DLRM
and TBSM, with and without row-partitioned embedding tables.

``overlap`` mode only reschedules communication, so it shares the
guarantee, as do ``stale-0`` (the sync alias of the generalised ``stale-k``
family) and a ``stale-0`` run with the BagPipe-style cached lookahead
attached (zero staleness flushes every deferred sparse update immediately).
``stale-k`` with k > 0 applies the reduced dense gradient k steps late and
is asserted to diverge from the reference while staying deterministic for
k ∈ {1, 2, 4}.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.accelerator import HotlineAccelerator
from repro.core.distributed import ShardedHotlineTrainer
from repro.data.loader import MiniBatchLoader
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from tests.helpers import CROSS_ORDER_ATOL, CROSS_ORDER_RTOL
from tests.oracle import MergedGradientTrainer


def merged_run(model_cls, config, log, num_shards, *, lr=0.05, epochs=1):
    model = model_cls(config, seed=42)
    trainer = MergedGradientTrainer(model, num_shards, lr=lr, sample_fraction=0.25)
    result = trainer.train(
        MiniBatchLoader(log, batch_size=128), epochs=epochs, eval_batch=log.batch(0, 256)
    )
    return model, result


def replicated_run(model_cls, config, log, num_shards, *, lr=0.05, epochs=1, **knobs):
    model = model_cls(config, seed=42)
    trainer = ShardedHotlineTrainer(
        model, num_shards, lr=lr, sample_fraction=0.25, **knobs
    )
    result = trainer.train(
        MiniBatchLoader(log, batch_size=128), epochs=epochs, eval_batch=log.batch(0, 256)
    )
    return model, result, trainer


def assert_bit_identical(state_a, state_b):
    assert state_a.keys() == state_b.keys()
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_sync_replicas_bit_identical_to_merged_dlrm(
    tiny_model_config, tiny_click_log, num_shards
):
    """Sync-mode K-replica DLRM training is bit-identical to the merged oracle."""
    merged_model, merged_result = merged_run(
        DLRM, tiny_model_config, tiny_click_log, num_shards
    )
    replica_model, replica_result, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, num_shards
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    assert replica_result.final_metrics == merged_result.final_metrics


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_sync_replicas_bit_identical_to_merged_tbsm(
    tiny_ts_model_config, tiny_ts_click_log, num_shards
):
    """Sync-mode K-replica TBSM training is bit-identical to the merged oracle."""
    merged_model, merged_result = merged_run(
        TBSM, tiny_ts_model_config, tiny_ts_click_log, num_shards
    )
    replica_model, replica_result, _ = replicated_run(
        TBSM, tiny_ts_model_config, tiny_ts_click_log, num_shards
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())


def test_parity_survives_bucket_size(tiny_model_config, tiny_click_log):
    """Bucketing is pure communication structure: any size, same bits."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    for bucket_bytes in (64, 4096, 4 * 1024 * 1024):
        replica_model, replica_result, _ = replicated_run(
            DLRM, tiny_model_config, tiny_click_log, 2, bucket_bytes=bucket_bytes
        )
        assert replica_result.losses == merged_result.losses, bucket_bytes
        assert_bit_identical(
            merged_model.state_snapshot(), replica_model.state_snapshot()
        )


def test_parity_with_partitioned_embeddings(tiny_model_config, tiny_click_log):
    """Row-partitioning tables changes accounting, never the numerics."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    replica_model, replica_result, trainer = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, partition_embeddings=True
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    # ...but the partitioned run accounts the model-parallel traffic.
    assert trainer.last_remote_lookups > 0
    assert replica_result.communication_time_s > 0.0


def test_overlap_mode_shares_the_parity_guarantee(tiny_model_config, tiny_click_log):
    """Overlap reschedules buckets behind backward; the numbers don't move."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    replica_model, replica_result, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="overlap"
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())


def test_stale_zero_is_bit_identical_sync_alias(tiny_model_config, tiny_click_log):
    """stale-0 collapses to sync: the k-deep deque holds nothing, so the
    parity guarantee extends to the staleness family's boundary."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    replica_model, replica_result, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="stale-0"
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())


def test_stale_zero_with_lookahead_is_bit_identical(tiny_model_config, tiny_click_log):
    """The cached lookahead pipeline at staleness 0 is pure accounting:
    every deferred write-back flushes immediately, so training with the
    cache attached stays bit-identical to the merged reference."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    replica_model, replica_result, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="stale-0", lookahead_window=4
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    # ...and the cache observed real traffic while staying invisible.
    assert replica_result.cache_hits > 0
    assert replica_result.cache_fill_rows > 0
    assert replica_result.stale_rows == 0


@pytest.mark.parametrize("staleness", [1, 2, 4])
def test_stale_k_diverges_deterministically(
    tiny_model_config, tiny_click_log, staleness
):
    """Every stale-k > 0 changes the trajectory but is repeatable."""
    _, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    model_a, result_a, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode=f"stale-{staleness}"
    )
    model_b, result_b, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode=f"stale-{staleness}"
    )
    # Step 0's loss is computed before any update lands, so it still
    # matches the reference; afterwards the paths diverge.
    assert result_a.losses[0] == merged_result.losses[0]
    assert result_a.losses != merged_result.losses
    assert result_a.losses == result_b.losses
    assert_bit_identical(model_a.state_snapshot(), model_b.state_snapshot())


def test_deeper_staleness_defers_more_updates(tiny_model_config, tiny_click_log):
    """The k-deep deque really holds k reduces in flight: deeper staleness
    leaves more gradient unapplied at any point, so the trajectories of
    k = 1, 2, 4 are pairwise distinct.  At the end of the run the engine's
    ``finalize()`` hook drains the deque (the PR 5 end-of-run flush), so
    no reduce is left dying with the run."""
    losses = {}
    for staleness in (1, 2, 4):
        _, result, trainer = replicated_run(
            DLRM, tiny_model_config, tiny_click_log, 2, mode=f"stale-{staleness}"
        )
        losses[staleness] = result.losses
        assert len(trainer._pending_dense) == 0  # drained by finalize()
    assert losses[1] != losses[2]
    assert losses[2] != losses[4]


def test_stale_mode_diverges_after_first_step(tiny_model_config, tiny_click_log):
    """stale-1 applies the dense reduce one step late: step 0 matches, then not."""
    _, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    _, stale_result, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="stale-1"
    )
    # Step 0's loss is computed before any update, so it is still identical.
    assert stale_result.losses[0] == merged_result.losses[0]
    # Staleness changes the trajectory.
    assert stale_result.losses[1:] != merged_result.losses[1:]


#: Allowance per shard for its ``Shard`` record beside the accelerator.
SHARD_RECORD_BYTES = 4096


def retained_bytes(factory):
    """Traced bytes still held after ``factory()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = factory()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, result


def test_k_shards_hold_one_model():
    """K shards train the caller's model: the constructor copies no model,
    and what a K=4 trainer holds beyond a K=1 trainer is the three extra
    shards' accelerators (which hold no EAL arrays until they learn) and
    records."""
    config = RM2.scaled(200)
    model = DLRM(config, seed=0)
    gc.collect()  # no unreachable model may be collected mid-count
    models_before = sum(isinstance(obj, DLRM) for obj in gc.get_objects())
    trainer = ShardedHotlineTrainer(model, 4)
    assert sum(isinstance(obj, DLRM) for obj in gc.get_objects()) == models_before
    assert trainer.model is model
    assert len(trainer.shards) == 4
    assert len({id(shard.accelerator) for shard in trainer.shards}) == 4
    del trainer

    row_bytes = config.embedding_dim * config.dtype_bytes
    accelerator, _ = retained_bytes(
        lambda: HotlineAccelerator(config.dataset.rows_per_table, row_bytes=row_bytes)
    )
    one_shard, _ = retained_bytes(lambda: ShardedHotlineTrainer(model, 1))
    four_shards, _ = retained_bytes(lambda: ShardedHotlineTrainer(model, 4))
    # A Shard record and its list slot cost far less than SHARD_RECORD_BYTES;
    # one more model copy would cost ~5.8 MB.
    assert four_shards - one_shard <= 3 * (accelerator + SHARD_RECORD_BYTES), (
        f"K=4 holds {(four_shards - one_shard) / 1e6:.1f} MB more than K=1; "
        f"three accelerators are {3 * accelerator / 1e6:.1f} MB"
    )


def test_fig30r_runs_end_to_end_with_per_bucket_times():
    """Acceptance: the fig30r sweep reports per-bucket communication time."""
    from repro.experiments import run_experiment

    data = run_experiment("fig30r")
    sync = data["1 node(s) / sync"]
    overlap = data["1 node(s) / overlap"]
    stale = data["1 node(s) / stale-1"]
    # 64 KiB buckets split the dense gradient into several buckets, and the
    # per-bucket wire times are reported through TrainingResult.
    assert sync["num_buckets"] > 1
    assert len(sync["per_bucket_comm_s"]) == sync["num_buckets"]
    assert all(t > 0.0 for t in sync["per_bucket_comm_s"])
    # Overlap hides most of the wire time but computes the same numbers.
    assert overlap["final_loss"] == sync["final_loss"]
    assert overlap["exposed_communication_s"] < sync["exposed_communication_s"]
    # Staleness hides even more and changes the trajectory.
    assert stale["exposed_communication_s"] <= overlap["exposed_communication_s"]
    assert stale["final_loss"] != sync["final_loss"]
    # Sync losses are scale-invariant (Eq. 5 across shards; K=4 and K=8
    # sum in different orders).
    assert data["2 node(s) / sync"]["final_loss"] == pytest.approx(
        sync["final_loss"], rel=CROSS_ORDER_RTOL, abs=CROSS_ORDER_ATOL
    )


def test_wrong_length_reduced_gradient_rejected_before_mutation(tiny_model_config):
    """A mis-sized reduced gradient must fail fast, not half-apply.

    The apply scales the reduced buffer in place and updates the model's
    parameters, so the length check must come before both: no parameter
    and no element of the buffer may change.
    """
    model = DLRM(tiny_model_config, seed=0)
    trainer = ShardedHotlineTrainer(model, 2, sample_fraction=0.25)
    before = model.state_snapshot()
    for bad_size in (7, model.num_dense_parameters + 1):
        flat = np.full(bad_size, 3.0)
        with pytest.raises(ValueError, match="elements"):
            trainer._apply_dense_gradient(flat)
        np.testing.assert_array_equal(flat, np.full(bad_size, 3.0))
    assert trainer._dense_spare == []
    assert_bit_identical(model.state_snapshot(), before)
