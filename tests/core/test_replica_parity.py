"""The replica bit-parity harness: K true replicas == one merged model.

The headline guarantee of the multi-replica trainer: in ``sync`` mode,
training K genuinely separate model replicas synchronised through the
bucketed :class:`~repro.core.reducer.GradientBucketReducer` and the
deterministic sparse exchange is **bit-identical** — losses and every
parameter — to the test oracle's merged-gradient trainer
(``tests/oracle.py``: ``MergedGradientTrainer``), which accumulates all
shards' gradients in one shared model.  Verified for
K ∈ {1, 2, 4} on DLRM and TBSM, with and without row-partitioned embedding
tables, and the replicas themselves are asserted to never drift.

``overlap`` mode only reschedules communication, so it shares the
guarantee, as do ``stale-0`` (the sync alias of the generalised ``stale-k``
family) and a ``stale-0`` run with the BagPipe-style cached lookahead
attached (zero staleness flushes every deferred sparse update immediately).
``stale-k`` with k > 0 applies the reduced dense gradient k steps late and
is asserted to diverge from the reference while staying deterministic and
drift-free for k ∈ {1, 2, 4}.
"""

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import SparseGradient
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


@pytest.mark.parametrize("num_shards", [1, 2, pytest.param(4, marks=pytest.mark.slow)])
def test_sync_replicas_bit_identical_to_merged_dlrm(
    tiny_model_config, tiny_click_log, num_shards
):
    """Sync-mode K-replica DLRM training is bit-identical to the merged oracle."""
    merged_model, merged_result = merged_run(
        DLRM, tiny_model_config, tiny_click_log, num_shards
    )
    replica_model, replica_result, trainer = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, num_shards
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    assert replica_result.final_metrics == merged_result.final_metrics
    assert trainer.replica_drift() == 0.0


@pytest.mark.parametrize("num_shards", [1, 2, pytest.param(4, marks=pytest.mark.slow)])
def test_sync_replicas_bit_identical_to_merged_tbsm(
    tiny_ts_model_config, tiny_ts_click_log, num_shards
):
    """Sync-mode K-replica TBSM training is bit-identical to the merged oracle."""
    merged_model, merged_result = merged_run(
        TBSM, tiny_ts_model_config, tiny_ts_click_log, num_shards
    )
    replica_model, replica_result, trainer = replicated_run(
        TBSM, tiny_ts_model_config, tiny_ts_click_log, num_shards
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    assert trainer.replica_drift() == 0.0


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
    assert trainer.last_routed_rows > 0
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
    replica_model, replica_result, trainer = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="stale-0"
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    assert trainer.replica_drift() == 0.0


def test_stale_zero_with_lookahead_is_bit_identical(tiny_model_config, tiny_click_log):
    """The cached lookahead pipeline at staleness 0 is pure accounting:
    every deferred write-back flushes immediately, so training with the
    cache attached stays bit-identical to the merged reference."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    replica_model, replica_result, trainer = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="stale-0", lookahead_window=4
    )
    assert replica_result.losses == merged_result.losses
    assert_bit_identical(merged_model.state_snapshot(), replica_model.state_snapshot())
    # ...and the cache observed real traffic while staying invisible.
    assert replica_result.cache_hits > 0
    assert replica_result.cache_fill_rows > 0
    assert replica_result.stale_rows == 0
    assert trainer.replica_drift() == 0.0


@pytest.mark.parametrize("staleness", [1, 2, 4])
def test_stale_k_diverges_deterministically(
    tiny_model_config, tiny_click_log, staleness
):
    """Every stale-k > 0 changes the trajectory but is repeatable and
    drift-free — staleness is uniform across replicas."""
    _, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    model_a, result_a, trainer_a = replicated_run(
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
    assert trainer_a.replica_drift() == 0.0


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
        assert trainer.replica_drift() == 0.0  # the drain is uniform too
    assert losses[1] != losses[2]
    assert losses[2] != losses[4]


def test_stale_mode_diverges_after_first_step(tiny_model_config, tiny_click_log):
    """stale-1 applies the dense reduce one step late: step 0 matches, then not."""
    _, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 2)
    _, stale_result, trainer = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 2, mode="stale-1"
    )
    # Step 0's loss is computed before any update, so it is still identical.
    assert stale_result.losses[0] == merged_result.losses[0]
    # Staleness changes the trajectory...
    assert stale_result.losses[1:] != merged_result.losses[1:]
    # ...but the staleness is uniform, so replicas still do not drift.
    assert trainer.replica_drift() == 0.0


def test_tree_algorithm_is_deterministic_and_close(tiny_model_config, tiny_click_log):
    """Tree reduce re-associates the sum: not bit-parity, but deterministic
    and within the cross-order tolerance of the merged reference."""
    merged_model, merged_result = merged_run(DLRM, tiny_model_config, tiny_click_log, 4)
    model_a, result_a, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 4, algorithm="tree"
    )
    model_b, result_b, _ = replicated_run(
        DLRM, tiny_model_config, tiny_click_log, 4, algorithm="tree"
    )
    assert result_a.losses == result_b.losses  # deterministic across runs
    assert_bit_identical(model_a.state_snapshot(), model_b.state_snapshot())
    np.testing.assert_allclose(
        result_a.losses, merged_result.losses, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
    )
    for key, value in merged_model.state_snapshot().items():
        np.testing.assert_allclose(
            model_a.state_snapshot()[key], value, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


def test_replicas_own_distinct_parameter_storage(tiny_model_config, tiny_click_log):
    """Each replica holds its own arrays — no aliasing back to replica 0."""
    model = DLRM(tiny_model_config, seed=0)
    trainer = ShardedHotlineTrainer(model, 2, sample_fraction=0.25)
    assert trainer.replicas[0].model is model
    other = trainer.replicas[1].model
    assert other is not model
    for (param_a, _), (param_b, _) in zip(
        model.dense_parameters(), other.dense_parameters(), strict=True
    ):
        assert not np.shares_memory(param_a, param_b)
        np.testing.assert_array_equal(param_a, param_b)
    for table_a, table_b in zip(model.tables, other.tables, strict=True):
        assert not np.shares_memory(table_a.weight, table_b.weight)


def test_mutating_one_replica_never_aliases_another(tiny_model_config):
    """An in-place sparse update on one replica's table leaves every other
    replica's weights untouched — ``replica_drift() == 0.0`` alone would
    also hold if the replicas shared their arrays."""
    model = DLRM(tiny_model_config, seed=3)
    trainer = ShardedHotlineTrainer(model, 2, sample_fraction=0.25)
    replica_a, replica_b = (replica.model for replica in trainer.replicas)
    before_b = [table.weight.copy() for table in replica_b.tables]
    grad = SparseGradient(np.array([0, 1]), np.full((2, model.config.embedding_dim), 3.0))
    replica_a.tables[0].apply_sparse_update(grad, lr=1.0)
    assert not np.allclose(replica_a.tables[0].weight[:2], before_b[0][:2])
    for table, before in zip(replica_b.tables, before_b, strict=True):
        np.testing.assert_array_equal(table.weight, before)


@pytest.mark.slow
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
    # Sync losses are scale-invariant (Eq. 5 across replicas; K=4 and K=8
    # sum in different orders) and replicas never drift.
    assert data["2 node(s) / sync"]["final_loss"] == pytest.approx(
        sync["final_loss"], rel=CROSS_ORDER_RTOL, abs=CROSS_ORDER_ATOL
    )
    assert all(entry["replica_drift"] == 0.0 for entry in data.values())


def test_wrong_length_reduced_gradient_rejected_before_mutation(tiny_model_config):
    """A mis-sized reduced gradient must fail fast, not half-apply.

    The apply scales the reduced buffer in place and updates every replica,
    so the length check must come before both: no replica parameter and
    no element of the buffer may change.
    """
    model = DLRM(tiny_model_config, seed=0)
    trainer = ShardedHotlineTrainer(model, 2, sample_fraction=0.25)
    before = [replica.model.state_snapshot() for replica in trainer.replicas]
    for bad_size in (7, model.num_dense_parameters + 1):
        flat = np.full(bad_size, 3.0)
        with pytest.raises(ValueError, match="elements"):
            trainer._apply_dense_gradient(flat)
        np.testing.assert_array_equal(flat, np.full(bad_size, 3.0))
    assert trainer._dense_spare == []
    for replica, snapshot in zip(trainer.replicas, before, strict=True):
        for key, value in replica.model.state_snapshot().items():
            np.testing.assert_array_equal(value, snapshot[key])
