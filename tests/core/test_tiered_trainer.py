"""Trainer integration for the window-bound / tiering PR.

Two accounting-only features ride on the sharded trainer and must never
touch numerics:

* ``tiered_hot_bytes`` — a hot/cold embedding tier fronting the model's
  tables, pinning the placement's hot rows;
* the ``pending_bytes`` / tier-counter plumbing through
  :class:`~repro.core.engine.StepOutcome` into
  :class:`~repro.core.engine.TrainingResult`.

Each test pairs a run with the feature on against the identical run with it
off and asserts bit-identical losses and parameters, then checks that the
feature's *accounting* actually moved.  The rebind test pins the DMA/tier
counter-lifetime contract (see ``DMAEngine``'s docstring).
"""

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.engine import evaluate
from repro.data import generate_click_log
from repro.data.batch import MiniBatch
from repro.data.loader import MiniBatchLoader
from repro.hwsim import DMAEngine
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM


def run_trainer(config, log, **kwargs):
    kwargs.setdefault("sample_fraction", 0.25)
    trainer = ShardedHotlineTrainer(DLRM(config, seed=42), 2, **kwargs)
    loader = MiniBatchLoader(log, batch_size=128)
    result = trainer.train(loader, epochs=1)
    return trainer, result


def assert_states_equal(model_a, model_b):
    state_a = model_a.state_snapshot()
    state_b = model_b.state_snapshot()
    assert state_a.keys() == state_b.keys()
    for key, value in state_a.items():
        np.testing.assert_array_equal(state_b[key], value, err_msg=key)


# --------------------------------------------------------------------- #
# Tiered embedding storage through the trainer
# --------------------------------------------------------------------- #
def test_tiered_run_is_bit_identical_and_counts_traffic(
    tiny_model_config, tiny_click_log
):
    """The tier is a pricing/counting front — weights never move — so a
    tiered run trains the identical model while the hit/miss/eviction
    counters and the priced DMA seconds surface through the result."""
    base_trainer, base_result = run_trainer(tiny_model_config, tiny_click_log)
    # 96 rows of capacity against 736 total rows: the Zipf head pins hot,
    # the tail misses and churns the LFU victim pool.
    hot_bytes = 96 * tiny_model_config.embedding_dim * 4
    tier_trainer, tier_result = run_trainer(
        tiny_model_config, tiny_click_log, tiered_hot_bytes=hot_bytes
    )
    assert tier_result.losses == base_result.losses
    assert_states_equal(base_trainer.model, tier_trainer.model)
    assert tier_result.tier_hits > 0
    assert tier_result.tier_misses > 0
    assert tier_result.tier_evictions > 0
    assert base_result.tier_hits == 0  # untired runs report nothing
    tier = tier_trainer.tier
    assert tier is not None
    assert tier.hits + tier.misses == tier_result.tier_hits + tier_result.tier_misses
    assert tier.resident_bytes <= hot_bytes + tier.pinned_rows * tier.row_bytes
    # The steps' lanes carry what the tier priced after bind: the one
    # contiguous preload of the pinned rows at bind is set-up.  With no
    # perf model there is no compute window, so the staged write-back lane
    # is exposed in full.
    preload = DMAEngine().read_time(tier.pinned_rows * tier.row_bytes, scattered=False)
    assert preload > 0.0
    lanes = tier_result.comm_lane_s
    assert lanes["tier-fetch"] > 0.0 and lanes["tier-writeback"] > 0.0
    assert lanes["tier-fetch"] == pytest.approx(tier.fetch_time_s - preload)
    assert lanes["tier-writeback"] == pytest.approx(tier.writeback_time_s)
    assert not {"tier-fetch", "tier-writeback"} & base_result.comm_lane_s.keys()


def test_tier_pins_the_placements_hot_rows(tiny_model_config, tiny_click_log):
    """bind() builds the tier from the learning-phase placement: every hot
    row is pinned resident on every table and never evicts."""
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=3), 2, sample_fraction=0.25,
        tiered_hot_bytes=16 * tiny_model_config.embedding_dim * 4,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    placement = trainer.shards[0].placement
    assert placement is not None and placement.hot_rows_total > 0
    hot = placement.index.hot_keys
    assert np.all(trainer.tier.is_resident(hot))
    # A full epoch of churn (capacity far below the hot-set size) cannot
    # evict a pinned row.
    for batch in loader:
        trainer.train_step(batch)
    assert np.all(trainer.tier.is_resident(hot))
    # The model's bag resolves through the tier.
    assert trainer.model.embedding._tier is trainer.tier


def test_recalibrate_repins_the_tier(tiny_model_config, tiny_click_log):
    """A recalibration moves the tier's pinned set to shard 0's new hot
    set, and a tiered run that recalibrates still trains the untiered
    run's model."""
    hot_bytes = 96 * tiny_model_config.embedding_dim * 4
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=3), 2, sample_fraction=0.25,
        tiered_hot_bytes=hot_bytes,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    bound = trainer.tier._pinned.copy()
    assert bound.tolist() == trainer.shards[0].placement.index.hot_keys.tolist()
    trainer.recalibrate(loader, seed=5)
    hot = trainer.shards[0].placement.index.hot_keys
    assert np.setxor1d(bound, hot).size > 0  # the hot set drifted
    assert trainer.tier._pinned.tolist() == hot.tolist()

    def train(**kwargs):
        run = ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=42), 2, sample_fraction=0.25, **kwargs
        )
        result = run.train(
            MiniBatchLoader(tiny_click_log, batch_size=128), recalibrations_per_epoch=2
        )
        return run, result

    base, base_result = train()
    tiered, tiered_result = train(tiered_hot_bytes=hot_bytes)
    assert tiered_result.losses == base_result.losses
    assert_states_equal(base.model, tiered.model)
    pinned = tiered.shards[0].placement.index.hot_keys
    assert tiered.tier._pinned.tolist() == pinned.tolist()


def assert_one_touch_per_unique_row(model, log, mode):
    """One step touches the tier exactly once per unique row of every table.

    Every mode runs one pass over the whole batch, so a row shared by
    several shards or µ-batches is looked up once per step.
    """
    trainer = ShardedHotlineTrainer(
        model, 2, sample_fraction=0.25, mode=mode,
        tiered_hot_bytes=16 * model.config.embedding_dim * 4,
    )
    trainer.bind(MiniBatchLoader(log, batch_size=128))
    batch = log.batch(0, 128)
    trainer.train_step(batch)
    unique_rows = sum(
        np.unique(batch.sparse[:, table, :]).size for table in range(batch.num_tables)
    )
    assert trainer.tier.hits + trainer.tier.misses == unique_rows, mode


def test_tbsm_history_lookups_reach_the_tier(
    tiny_ts_model_config, tiny_ts_click_log
):
    """TBSM reads its history table (table 0) unpooled; that lookup must
    resolve through the tier like every pooled table's, in sync and stale
    modes alike."""
    for mode in ("sync", "stale-2"):
        assert_one_touch_per_unique_row(
            TBSM(tiny_ts_model_config, seed=3), tiny_ts_click_log, mode
        )


def test_dlrm_lookups_reach_the_tier_once_per_step(tiny_model_config, tiny_click_log):
    for mode in ("sync", "stale-2"):
        assert_one_touch_per_unique_row(
            DLRM(tiny_model_config, seed=3), tiny_click_log, mode
        )


def test_evaluation_is_not_counted_as_tier_traffic(tiny_model_config, tiny_click_log):
    """``predict`` reads the weights without touching the tier, so the
    step after an ``evaluate`` reports the tier counters of the same run
    without it, per step and summed into the engine's result."""
    held_out = tiny_click_log.batch(1536, 512)

    def run(evaluate_after=None, eval_every=0):
        trainer = ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=5), 4, sample_fraction=0.25,
            tiered_hot_bytes=48 * tiny_model_config.embedding_dim * 4,
        )
        loader = MiniBatchLoader(tiny_click_log, batch_size=128)
        trainer.bind(loader)
        counters = []
        for step, batch in enumerate(list(loader)[:4]):
            outcome = trainer.run_step(batch)
            counters.append((outcome.tier_hits, outcome.tier_misses, outcome.tier_evictions))
            if step == evaluate_after:
                evaluate(trainer.model, held_out)
        result = trainer.train(loader, eval_batch=held_out, eval_every=eval_every)
        return counters, (result.tier_hits, result.tier_misses, result.tier_evictions)

    counters, totals = run()
    assert all(misses > 0 for _hits, misses, _evictions in counters)
    assert run(evaluate_after=1, eval_every=3) == (counters, totals)


@pytest.mark.parametrize("fault", ["id", "dense"])
def test_a_rejected_batch_leaves_no_tier_traffic(fault):
    """An id out of range in table 3, or a dense block one column short,
    raises before the bag touches the tier: the tier's counters and
    residency stay as they were, and the next step reports the tier
    traffic of a run that never saw the batch."""
    config = RM2.scaled(200)
    log = generate_click_log(config.dataset, 192, seed=7)

    def trainer_after_one_step():
        trainer = ShardedHotlineTrainer(
            DLRM(config, seed=2), 2, sample_fraction=0.25,
            tiered_hot_bytes=0.05 * config.embedding_bytes,
        )
        trainer.bind(MiniBatchLoader(log, batch_size=64))
        trainer.run_step(log.batch(0, 64))
        return trainer

    clean, rejected = trainer_after_one_step(), trainer_after_one_step()
    good = log.batch(64, 64)
    dense, sparse = good.dense, good.sparse.copy()
    if fault == "id":
        sparse[40, 3, 0] = config.dataset.rows_per_table[3]
        match = "for table 3$"
    else:
        dense = dense[:, :-1]
        match = "has 12 features, the model takes 13$"
    tier = rejected.tier
    state = ("hits", "misses", "evictions", "fetch_time_s", "writeback_time_s", "resident_rows")
    before = [getattr(tier, name) for name in state]
    with pytest.raises(ValueError) as raised:
        rejected.run_step(MiniBatch(dense, sparse, good.labels))
    assert [getattr(tier, name) for name in state] == before
    raised.match(match)

    outcomes = [trainer.run_step(good) for trainer in (clean, rejected)]
    counters = ("loss", "tier_hits", "tier_misses", "tier_evictions")
    assert [getattr(outcomes[1], name) for name in counters] == [
        getattr(outcomes[0], name) for name in counters
    ]
    assert outcomes[1].tier_hits + outcomes[1].tier_misses > 0


def test_tiered_hot_bytes_rejects_negative(tiny_model_config):
    with pytest.raises(ValueError, match="tiered_hot_bytes"):
        ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=0), 2, tiered_hot_bytes=-1.0
        )


# --------------------------------------------------------------------- #
# Counter lifetime across bind() (satellite: DMA audit regression)
# --------------------------------------------------------------------- #
def test_rebind_starts_with_fresh_dma_and_tier_counters(
    tiny_model_config, tiny_click_log
):
    """Regression: a reused trainer must not report run A's DMA traffic or
    tier counters as run B's.  bind() resets the lookahead pipeline's
    engine and rebuilds the tier from scratch."""
    hot_bytes = 48 * tiny_model_config.embedding_dim * 4
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=5), 2, sample_fraction=0.25,
        mode="stale-2", lookahead_window=4, tiered_hot_bytes=hot_bytes,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    for batch in list(loader)[:4]:
        trainer.train_step(batch)
    assert trainer.lookahead.dma.bytes_read > 0  # fills priced
    assert trainer.lookahead.dma.bytes_written > 0  # write-backs priced
    assert trainer.tier.hits + trainer.tier.misses > 0
    run_a_tier = trainer.tier
    # Re-binding (what a second train() does first) starts clean...
    trainer.bind(loader)
    assert trainer.lookahead.dma.bytes_read == 0
    assert trainer.lookahead.dma.bytes_written == 0
    assert trainer.lookahead.dma.requests == 0
    # ...with a rebuilt tier: fresh counters, fresh residency, re-attached.
    assert trainer.tier is not run_a_tier
    assert trainer.tier.hits == 0 and trainer.tier.misses == 0
    assert trainer.tier.evictions == 0
    # The next step's deltas start from the fresh tier: zero counters, and
    # priced seconds that already hold the bind-time preload of the pins.
    assert trainer.tier.fetch_time_s > 0.0
    assert trainer._tier_seen == (0, 0, 0, trainer.tier.fetch_time_s, 0.0)
    assert trainer.model.embedding._tier is trainer.tier


# --------------------------------------------------------------------- #
# Footprint plumbing into TrainingResult (satellite: peak bytes)
# --------------------------------------------------------------------- #
def test_pending_peak_bytes_surfaces_and_stays_window_bounded(
    tiny_model_config, tiny_click_log
):
    """The run's peak pending-store footprint reaches TrainingResult, for
    the flat and the tiered store alike, and stays proportional to the
    cached row set rather than the table sizes."""
    dim = tiny_model_config.embedding_dim
    # Per pending row: a value row, a birth step and a key (dim * 8 + 16
    # bytes), inside the bound test_pending_store derives.
    per_row_bound = 2 * (dim * 8 + 8) + 16 + 2 * 8
    for tiered in (None, 96 * dim * 4):
        trainer, result = run_trainer(
            tiny_model_config, tiny_click_log,
            mode="stale-2", lookahead_window=4, tiered_hot_bytes=tiered,
        )
        assert result.pending_peak_bytes > 0
        # At most window batches are cached at once, each contributing at
        # most batch x tables x pooling rows — a bound derived from the
        # window, never from the table sizes.
        spec = tiny_model_config.dataset
        window_rows = 4 * 128 * len(spec.rows_per_table) * spec.pooling
        assert result.pending_peak_bytes <= window_rows * per_row_bound
        # Run over: everything drained, but the high-water mark persists.
        assert trainer.lookahead.pending_rows_total == 0
        assert result.pending_peak_bytes == trainer.lookahead.peak_pending_bytes


def test_windowless_runs_report_zero_pending_bytes(
    tiny_model_config, tiny_click_log
):
    _, result = run_trainer(tiny_model_config, tiny_click_log)
    assert result.pending_peak_bytes == 0
