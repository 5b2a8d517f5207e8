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
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data.loader import MiniBatchLoader
from repro.hwsim.cluster import multi_node, single_node
from repro.hwsim.collectives import allreduce_time, hierarchical_allreduce_time
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from tests.helpers import CROSS_ORDER_ATOL, CROSS_ORDER_RTOL


def make_accelerator(config, seed=0):
    return HotlineAccelerator(
        config.dataset.rows_per_table,
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 16, ways=8),
        seed=seed,
    )


def single_replica_run(model_cls, config, log, *, lr=0.05, epochs=1):
    model = model_cls(config, seed=42)
    loader = MiniBatchLoader(log, batch_size=128)
    trainer = HotlineTrainer(model, make_accelerator(config), lr=lr, sample_fraction=0.25)
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
        DLRM(config, seed=13), make_accelerator(config), lr=0.3,
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
    placements = [shard.placement for shard in trainer.shards]
    assert all(placement is not None for placement in placements)
    # Recalibration delta-updates the placements in place.
    assert all(shard.accelerator.eal.insertions > 0 for shard in trainer.shards)


def test_sharded_loader_deals_contiguous_views(tiny_click_log):
    """Each loader batch deals into K=4 shards that are views into the log."""
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    for batch in loader:
        shards = batch.shards(4)
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
    batch = next(iter(MiniBatchLoader(tiny_click_log, batch_size=128)))
    with pytest.raises(ValueError):
        batch.shards(0)


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
    exposed_dense = trainer.reducer.comm_schedule(
        trainer.reducer.bucket_times(trainer.model.num_dense_parameters)
    ).exposed_time(outcome.compute_time_s)
    expected = exposed_dense + max(
        0.0, outcome.prefetch_time_s - outcome.compute_time_s
    )
    assert outcome.communication_time_s == pytest.approx(expected)
    assert outcome.prefetch_time_s > 0.0


# --------------------------------------------------------------------- #
# The per-lane split of exposed communication
# --------------------------------------------------------------------- #
BASE_LANES = {"dense-allreduce", "lookup-alltoall", "prefetch"}
TIER_LANES = {"tier-fetch", "tier-writeback"}


def lane_perf_model():
    from repro.core.scheduler import HotlineScheduler
    from repro.models import RM2
    from repro.perf import TrainingCostModel

    return HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(2)))


def recorded_run(trainer, loader):
    """Train one epoch; return every step's outcome (the end-of-run drain
    too, when there is one) and the result."""
    outcomes = []

    def record(outcome):
        if outcome is not None:
            outcomes.append(outcome)
        return outcome

    run_step, finalize = trainer.run_step, trainer.finalize
    trainer.run_step = lambda batch: record(run_step(batch))
    trainer.finalize = lambda: record(finalize())
    result = trainer.train(loader)
    assert len(outcomes) >= result.iterations
    return outcomes, result


@pytest.mark.parametrize(
    "knobs, lanes",
    [
        ({"mode": "sync"}, BASE_LANES),
        ({"mode": "overlap"}, BASE_LANES),
        ({"mode": "stale-2"}, BASE_LANES),
        ({"lookahead_window": 4}, BASE_LANES),
        ({"partition_embeddings": True}, BASE_LANES),
        ({"tiered_hot_bytes": 96 * 8 * 4}, BASE_LANES | TIER_LANES),
    ],
    ids=["sync", "overlap", "stale-2", "lookahead-4", "partitioned", "tiered"],
)
def test_comm_lanes_sum_to_the_exposed_communication(
    tiny_model_config, tiny_click_log, knobs, lanes
):
    """Each step's ``comm_lanes_s`` sums left to right to its
    ``communication_time_s``, bit for bit (the end-of-run drain too), and
    the run's ``comm_lane_s`` is the per-label split of its total."""
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=4), 2, sample_fraction=0.25,
        perf_model=lane_perf_model(), **knobs,
    )
    outcomes, result = recorded_run(trainer, MiniBatchLoader(tiny_click_log, batch_size=128))
    for outcome in outcomes:
        exposed = 0.0
        for _label, lane_s in outcome.comm_lanes_s:
            exposed += lane_s
        assert exposed == outcome.communication_time_s
    assert set(result.comm_lane_s) == lanes
    assert sum(result.comm_lane_s.values()) == pytest.approx(result.communication_time_s)


@pytest.mark.parametrize(
    "make_trainer",
    [
        lambda model, perf: HotlineTrainer(model, sample_fraction=0.25, perf_model=perf),
        lambda model, perf: ReferenceTrainer(model, perf_model=perf),
    ],
    ids=["hotline", "reference"],
)
def test_single_replica_steps_report_their_collective_as_a_lane(
    tiny_model_config, tiny_click_log, make_trainer
):
    """A single-replica step priced by ``StepExecutor.timed_outcome``
    reports its exposed collective as one ``dense-allreduce`` lane, the
    label of the sharded reducer's lane, so the run's ``comm_lane_s``
    accounts for all of its ``communication_time_s``."""
    perf = lane_perf_model()
    trainer = make_trainer(DLRM(tiny_model_config, seed=4), perf)
    outcomes, result = recorded_run(trainer, MiniBatchLoader(tiny_click_log, batch_size=128))
    for outcome in outcomes:
        assert outcome.communication_time_s == perf.collective_time() > 0.0
        assert outcome.comm_lanes_s == (("dense-allreduce", outcome.communication_time_s),)
    assert result.comm_lane_s == {"dense-allreduce": result.communication_time_s}


def test_single_replica_dense_sync_time_is_the_lane_its_steps_charge(
    tiny_model_config, tiny_click_log
):
    """``HotlineTrainer.dense_sync_time()`` reports the collective its steps
    charge as their ``dense-allreduce`` lane, not the one-shard reducer's
    zero; without a perf model both are zero."""
    perf = lane_perf_model()
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer = HotlineTrainer(DLRM(tiny_model_config, seed=4), sample_fraction=0.25, perf_model=perf)
    trainer.bind(loader)
    outcome = trainer.run_step(tiny_click_log.batch(0, 128))
    assert trainer.dense_sync_time() == dict(outcome.comm_lanes_s)["dense-allreduce"] > 0.0
    unpriced = HotlineTrainer(DLRM(tiny_model_config, seed=4), sample_fraction=0.25)
    unpriced.bind(loader)
    assert unpriced.dense_sync_time() == 0.0
    assert unpriced.run_step(tiny_click_log.batch(0, 128)).communication_time_s == 0.0


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


def test_finalize_is_noop_for_sync_runs(tiny_model_config, tiny_click_log):
    trainer, _ = finalize_run(tiny_model_config, tiny_click_log, mode="sync", steps=3)
    assert trainer.finalize() is None
