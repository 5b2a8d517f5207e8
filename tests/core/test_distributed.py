"""K-shard data-parallel Hotline: numerical equivalence and simulated comm.

Extends the Eq. 5 equivalence proof to K > 1: splitting every mini-batch
into K contiguous shards, classifying each shard against its own EAL-derived
placement, and accumulating the per-µ-batch gradients (dense all-reduce +
per-table sparse merge) produces the same update as the single-replica
trainer — within the cross-order tolerance of ``tests/helpers.py`` (the
shards sum in a different order), and bit-for-bit for K = 1.
"""

import numpy as np
import pytest

from repro.core.accelerator import HotlineAccelerator
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer
from repro.data.loader import MiniBatchLoader, ShardedLoader
from repro.hwsim.cluster import multi_node, single_node
from repro.hwsim.collectives import allreduce_time, hierarchical_allreduce_time
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from tests.helpers import CROSS_ORDER_ATOL, CROSS_ORDER_RTOL


def make_accelerator(dim=8, seed=0):
    return HotlineAccelerator(
        row_bytes=dim * 4, eal_config=EALConfig(size_bytes=1 << 16, ways=8), seed=seed
    )


def single_replica_run(model_cls, config, log, *, lr=0.05, epochs=1):
    model = model_cls(config, seed=42)
    loader = MiniBatchLoader(log, batch_size=128)
    trainer = HotlineTrainer(model, make_accelerator(), lr=lr, sample_fraction=0.25)
    result = trainer.train(loader, epochs=epochs, eval_batch=log.batch(0, 256))
    return model, result


def sharded_run(model_cls, config, log, num_shards, *, lr=0.05, epochs=1):
    model = model_cls(config, seed=42)
    loader = MiniBatchLoader(log, batch_size=128)
    trainer = ShardedHotlineTrainer(
        model, num_shards, lr=lr, sample_fraction=0.25
    )
    result = trainer.train(loader, epochs=epochs, eval_batch=log.batch(0, 256))
    return model, result, trainer


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_sharded_matches_single_replica_dlrm(
    tiny_model_config, tiny_click_log, num_shards
):
    """Figure 18 config: K-shard losses and final parameters match K=1."""
    single_model, single_result = single_replica_run(
        DLRM, tiny_model_config, tiny_click_log
    )
    sharded_model, sharded_result, _ = sharded_run(
        DLRM, tiny_model_config, tiny_click_log, num_shards
    )
    np.testing.assert_allclose(
        sharded_result.losses, single_result.losses, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
    )
    single_state = single_model.state_snapshot()
    sharded_state = sharded_model.state_snapshot()
    for key in single_state:
        np.testing.assert_allclose(
            sharded_state[key], single_state[key], rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )
    assert sharded_result.final_metrics["auc"] == pytest.approx(
        single_result.final_metrics["auc"], abs=CROSS_ORDER_ATOL
    )


def test_one_shard_is_bit_identical_to_single_replica(tiny_model_config, tiny_click_log):
    """K=1 runs the identical computation, so equality is exact."""
    single_model, single_result = single_replica_run(
        DLRM, tiny_model_config, tiny_click_log
    )
    sharded_model, sharded_result, _ = sharded_run(
        DLRM, tiny_model_config, tiny_click_log, 1
    )
    assert sharded_result.losses == single_result.losses
    single_state = single_model.state_snapshot()
    sharded_state = sharded_model.state_snapshot()
    for key in single_state:
        np.testing.assert_array_equal(sharded_state[key], single_state[key])


@pytest.mark.parametrize("num_shards", [2, 4])
def test_sharded_matches_single_replica_tbsm(
    tiny_ts_model_config, tiny_ts_click_log, num_shards
):
    single_model, single_result = single_replica_run(
        TBSM, tiny_ts_model_config, tiny_ts_click_log
    )
    sharded_model, sharded_result, _ = sharded_run(
        TBSM, tiny_ts_model_config, tiny_ts_click_log, num_shards
    )
    np.testing.assert_allclose(
        sharded_result.losses, single_result.losses, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
    )
    single_state = single_model.state_snapshot()
    sharded_state = sharded_model.state_snapshot()
    for key in single_state:
        np.testing.assert_allclose(
            sharded_state[key], single_state[key], rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


def test_sharded_matches_full_batch_baseline(tiny_model_config, tiny_click_log):
    """The chain closes: K-shard Hotline == single-replica == baseline."""
    baseline = DLRM(tiny_model_config, seed=42)
    sharded_model, _, trainer = sharded_run(DLRM, tiny_model_config, tiny_click_log, 4)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    for batch in loader:
        baseline.train_step(batch, lr=0.05)
    baseline_state = baseline.state_snapshot()
    sharded_state = sharded_model.state_snapshot()
    for key in baseline_state:
        np.testing.assert_allclose(
            sharded_state[key], baseline_state[key], rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


def test_four_shards_match_single_replica_on_figure18_config():
    """Acceptance check on the Figure 18 setup (scaled Criteo Kaggle)."""
    from repro.data.synthetic import generate_click_log
    from repro.models import RM2

    config = RM2.scaled(max_rows_per_table=1200, samples_per_epoch=3072)
    log = generate_click_log(config.dataset, 3072, seed=41)
    loader = MiniBatchLoader(log, batch_size=256)
    eval_batch = log.batch(2048, 1024)

    single = HotlineTrainer(
        DLRM(config, seed=13), make_accelerator(config.embedding_dim), lr=0.3,
        sample_fraction=0.25,
    )
    single_result = single.train(loader, epochs=1, eval_batch=eval_batch)

    sharded = ShardedHotlineTrainer(
        DLRM(config, seed=13), 4, lr=0.3, sample_fraction=0.25
    )
    sharded_result = sharded.train(loader, epochs=1, eval_batch=eval_batch)

    np.testing.assert_allclose(
        sharded_result.losses, single_result.losses, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
    )
    single_state = single.model.state_snapshot()
    sharded_state = sharded.model.state_snapshot()
    for key in single_state:
        np.testing.assert_allclose(
            sharded_state[key], single_state[key], rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )
    # The reported simulated time carries the hwsim all-reduce term.
    expected_comm = allreduce_time(
        sharded.model.num_dense_parameters * 4.0, 4, sharded.cluster.node.gpu_link
    )
    assert sharded_result.communication_time_s == pytest.approx(
        expected_comm * sharded_result.iterations
    )


def test_train_before_learning_phase_raises(tiny_model_config, tiny_click_log):
    trainer = ShardedHotlineTrainer(DLRM(tiny_model_config, seed=0), 2)
    with pytest.raises(RuntimeError):
        trainer.train_step(tiny_click_log.batch(0, 32))


def test_invalid_shard_counts_rejected(tiny_model_config):
    with pytest.raises(ValueError):
        ShardedHotlineTrainer(DLRM(tiny_model_config, seed=0), 0)
    with pytest.raises(ValueError):
        # 2 shards cannot map one-per-GPU onto a 4-GPU node.
        ShardedHotlineTrainer(DLRM(tiny_model_config, seed=0), 2, cluster=single_node(4))


def test_batch_smaller_than_shard_count(tiny_model_config, tiny_click_log):
    """Empty trailing shards are skipped, and the update still matches."""
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=1), 8, lr=0.05, sample_fraction=0.25
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.learning_phase(loader)
    batch = tiny_click_log.batch(0, 5)
    baseline = DLRM(tiny_model_config, seed=1)
    loss, popular_fraction = trainer.train_step(batch)
    baseline.train_step(batch, lr=0.05)
    assert 0.0 <= popular_fraction <= 1.0
    for key, value in baseline.state_snapshot().items():
        np.testing.assert_allclose(
            trainer.model.state_snapshot()[key], value, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


def test_single_node_allreduce_term(tiny_model_config, tiny_click_log):
    """Simulated comm time is exactly hwsim's ring all-reduce term."""
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=0), 4, sample_fraction=0.25
    )
    expected = allreduce_time(
        trainer.model.num_dense_parameters * 4.0,
        4,
        trainer.cluster.node.gpu_link,
    )
    assert trainer.dense_sync_time() == pytest.approx(expected)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    result = trainer.train(loader, epochs=1)
    assert result.communication_time_s == pytest.approx(expected * result.iterations)
    assert result.simulated_time_s == pytest.approx(
        result.compute_time_s + result.communication_time_s
    )


def test_multi_node_uses_hierarchical_allreduce(tiny_model_config):
    cluster = multi_node(2, 4)
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=0), 8, cluster=cluster
    )
    expected = hierarchical_allreduce_time(
        trainer.model.num_dense_parameters * 4.0,
        4,
        2,
        cluster.node.gpu_link,
        cluster.inter_link,
    )
    assert trainer.dense_sync_time() == pytest.approx(expected)
    # The flat single-node ring uses the plain all-reduce formula instead.
    single = ShardedHotlineTrainer(DLRM(tiny_model_config, seed=0), 8)
    assert single.dense_sync_time() == pytest.approx(
        allreduce_time(
            single.model.num_dense_parameters * 4.0, 8, single.cluster.node.gpu_link
        )
    )


def test_recalibration_updates_every_shard(tiny_model_config, tiny_click_log):
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=3), 2, sample_fraction=0.25
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    result = trainer.train(loader, epochs=1, recalibrations_per_epoch=2)
    assert result.iterations == len(loader)
    placements = [replica.placement for replica in trainer.replicas]
    assert all(placement is not None for placement in placements)
    # Recalibration delta-updates the placements in place.
    assert all(replica.accelerator.eal.insertions > 0 for replica in trainer.replicas)


def test_sharded_loader_deals_contiguous_views(tiny_click_log):
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    sharded = ShardedLoader(loader, 4)
    assert len(sharded) == len(loader)
    for shards, batch in zip(sharded, loader, strict=True):
        assert len(shards) == 4
        assert sum(shard.size for shard in shards) == batch.size
        np.testing.assert_array_equal(
            np.concatenate([shard.labels for shard in shards]), batch.labels
        )
        # Sequential epochs deal basic-slice views straight into the log.
        assert all(
            shard.size == 0 or np.shares_memory(shard.dense, tiny_click_log.dense)
            for shard in shards
        )
        break


def test_sharded_loader_rejects_bad_shard_count(tiny_click_log):
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    with pytest.raises(ValueError):
        ShardedLoader(loader, 0)


# --------------------------------------------------------------------------- #
# Wire-time cache invalidation (reducer reconfigured mid-run)
# --------------------------------------------------------------------------- #
def test_bucket_time_cache_invalidates_on_reducer_reconfiguration(tiny_model_config):
    """Regression: the cached per-bucket schedule used to survive a mid-run
    reducer reconfiguration, reporting stale wire time forever."""
    from repro.core.reducer import GradientBucketReducer

    trainer = ShardedHotlineTrainer(DLRM(tiny_model_config, seed=0), 4)
    single_bucket = trainer.dense_sync_time()
    assert len(trainer._step_bucket_times()) == 1
    # Shrinking the bucket size must re-price into a multi-bucket schedule.
    trainer.reducer.bucket_bytes = 1024
    rebucketed = trainer._step_bucket_times()
    assert len(rebucketed) > 1
    assert trainer.dense_sync_time() == pytest.approx(sum(rebucketed))
    # A mode flip re-keys too (mode feeds exposure, but the key is total).
    trainer.reducer.mode = "stale-2"
    assert trainer._step_bucket_times() == rebucketed
    # Swapping the whole reducer (different replica count) re-prices again.
    trainer.reducer = GradientBucketReducer(2, cluster=trainer.cluster)
    assert trainer.dense_sync_time() != pytest.approx(single_bucket)
    assert trainer.dense_sync_time() == pytest.approx(
        sum(trainer.reducer.bucket_times(trainer.model.num_dense_parameters))
    )
    # Swapping the *trainer's* cluster re-prices too: the trainer is the
    # pricing authority, so the reducer follows it onto the new topology.
    flat_time = trainer.dense_sync_time()
    trainer.cluster = multi_node(2, 2)
    assert trainer.reducer.cluster is not trainer.cluster  # not yet synced
    hierarchical_time = trainer.dense_sync_time()
    assert trainer.reducer.cluster is trainer.cluster
    assert hierarchical_time != pytest.approx(flat_time)


def test_lowering_staleness_mid_run_drains_the_dense_backlog(
    tiny_model_config, tiny_click_log
):
    """Regression: flipping a stale-k reducer back to sync mid-run used to
    strand the in-flight reduces in the deque (dropping their gradient);
    the pipeline must drain the backlog instead, and the lookahead's
    sparse staleness bound must follow the reducer's live value."""
    from repro.models.dlrm import DLRM

    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=2), 2, sample_fraction=0.25,
        mode="stale-3", lookahead_window=3,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    batches = list(loader)
    for batch in batches[:4]:
        trainer.train_step(batch)
    assert len(trainer._pending_dense) == 3
    assert trainer.lookahead.staleness == 3
    trainer.reducer.mode = "sync"  # mid-run reconfiguration
    trainer.train_step(batches[4])
    # The whole backlog (3 queued reduces + this step's) applied at once...
    assert len(trainer._pending_dense) == 0
    # ...and the sparse pipeline followed the live bound, flushing its own
    # backlog rather than deferring forever.
    assert trainer.lookahead.staleness == 0
    assert trainer.lookahead.pending_rows_total == 0
    assert trainer.replica_drift() == 0.0


def test_rebinding_a_trainer_drops_the_previous_runs_inflight_state(
    tiny_model_config, tiny_click_log
):
    """Regression: a reused trainer's stale-k deque (and the lookahead's
    deferred write-backs) used to survive into the next train() call, so
    run B's first steps applied run A's gradients.  bind() must start from
    a clean synchronisation state."""
    from repro.models.dlrm import DLRM

    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=4), 2, sample_fraction=0.25,
        mode="stale-4", lookahead_window=3,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    # An abandoned raw-step run (no engine, so no finalize() drain) leaves
    # its last k reduces and deferred write-backs in flight.
    trainer.bind(loader)
    batches = list(loader)
    for batch in batches[:6]:
        trainer.train_step(batch)
    assert len(trainer._pending_dense) == 4  # in-flight reduces of run A
    # Re-binding (what a second train() does first) drops them...
    trainer.bind(loader)
    assert len(trainer._pending_dense) == 0
    assert trainer.lookahead.pending_rows_total == 0
    assert trainer.lookahead.cached_rows_total == 0
    # ...and a full run after the re-bind works, never sees run A's
    # backlog, and ends drained (the engine's finalize() hook).
    result = trainer.train(loader, epochs=1)
    assert len(result.losses) == len(batches)
    assert len(trainer._pending_dense) == 0  # drained by finalize()
    assert trainer.lookahead.pending_rows_total == 0
    assert trainer.replica_drift() == 0.0


def test_lookahead_replaces_partitioned_lookup_alltoall(
    tiny_model_config, tiny_click_log
):
    """With the window cache attached, remotely-owned lookups are served
    from the cache whose fills already paid the owner round-trip — the
    per-lookup all-to-all must not be charged again (BagPipe's trade)."""
    from repro.models.dlrm import DLRM

    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=0), 2, sample_fraction=0.25,
        partition_embeddings=True, lookahead_window=4,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    batch = next(iter(loader))
    outcome = trainer.run_step(batch)
    # The avoided per-lookup volume is still observable...
    assert trainer.last_remote_lookups > 0
    assert trainer.alltoall_time(trainer.last_remote_lookups) > 0.0
    # ...but the step charges only the dense schedule plus the prefetch
    # tail — not the per-lookup exchange on top of the fills.
    exposed_dense = trainer.reducer.exposed_time(
        trainer._step_bucket_times(), outcome.compute_time_s
    )
    expected = exposed_dense + max(
        0.0, outcome.prefetch_time_s - outcome.compute_time_s
    )
    assert outcome.communication_time_s == pytest.approx(expected)
    assert outcome.prefetch_time_s > 0.0


# --------------------------------------------------------------------- #
# finalize(): the end-of-run staleness drain (PR 5)
# --------------------------------------------------------------------- #
def finalize_run(config, log, *, mode, steps, lookahead_window=0):
    from dataclasses import replace

    trainer = ShardedHotlineTrainer(
        DLRM(config, seed=23), 2, sample_fraction=0.25,
        mode=mode, lookahead_window=lookahead_window,
    )
    # A log view of exactly `steps` batches, so runs shorter than the
    # staleness bound are expressible.
    size = steps * 128
    short = replace(
        log, dense=log.dense[:size], sparse=log.sparse[:size], labels=log.labels[:size]
    )
    result = trainer.train(MiniBatchLoader(short, batch_size=128), epochs=1)
    return trainer, result


def test_finalize_drains_short_runs_to_sync_equivalence(
    tiny_model_config, tiny_click_log
):
    """Regression: a 1-step stale-4 run used to apply *no* dense update at
    all (the reduce died in the deque), so k-sweeps compared models trained
    on different gradient counts.  With finalize() the drained 1-step run
    is bit-identical to the 1-step sync run — like with like."""
    trainer_sync, _ = finalize_run(tiny_model_config, tiny_click_log, mode="sync", steps=1)
    for k in (1, 2, 4):
        trainer_stale, _ = finalize_run(
            tiny_model_config, tiny_click_log, mode=f"stale-{k}", steps=1
        )
        assert len(trainer_stale._pending_dense) == 0
        for key, value in trainer_sync.model.state_snapshot().items():
            np.testing.assert_array_equal(
                trainer_stale.model.state_snapshot()[key], value, err_msg=key
            )


def test_finalize_drains_lookahead_backlog_and_reports_it(
    tiny_model_config, tiny_click_log
):
    """A run abandoned mid-epoch leaves rows deferred in the window (a
    completed epoch evicts everything, so this is the raw-step case);
    finalize() must flush and apply them, reporting the write-back."""
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=23), 2, sample_fraction=0.25,
        mode="stale-4", lookahead_window=8,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    for batch in list(loader)[:3]:  # 3 of the epoch's batches: window still full
        trainer.train_step(batch)
    assert trainer.lookahead.pending_rows_total > 0
    assert len(trainer._pending_dense) == 3  # all 3 reduces still in flight
    outcome = trainer.finalize()
    assert outcome is not None
    assert outcome.stale_rows > 0
    assert outcome.prefetch_time_s >= 0.0
    assert trainer.lookahead.pending_rows_total == 0
    assert len(trainer._pending_dense) == 0
    assert trainer.replica_drift() == 0.0
    # Nothing left in flight: a second finalize is a no-op.
    assert trainer.finalize() is None


def test_engine_run_ends_with_nothing_deferred(tiny_model_config, tiny_click_log):
    """Through the engine, a stale-k + lookahead run ends fully applied:
    epoch-end evictions flush the sparse side and finalize() drains the
    dense deque, so the final evaluation sees every computed gradient."""
    trainer, _ = finalize_run(
        tiny_model_config, tiny_click_log, mode="stale-4", steps=4, lookahead_window=4
    )
    assert len(trainer._pending_dense) == 0
    assert trainer.lookahead.pending_rows_total == 0
    assert trainer.replica_drift() == 0.0


def test_finalize_is_noop_for_sync_runs(tiny_model_config, tiny_click_log):
    trainer, _ = finalize_run(tiny_model_config, tiny_click_log, mode="sync", steps=3)
    assert trainer.finalize() is None
