"""Trainer integration for the window-bound / tiering PR.

Three accounting-only features ride on the sharded trainer and must never
touch numerics:

* ``per_shard_lookahead`` — K per-shard fill-accounting pipelines next to
  the global deferral pipeline (which stops pricing fills itself);
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
from repro.data.loader import MiniBatchLoader
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
# Per-shard lookahead accounting
# --------------------------------------------------------------------- #
def test_per_shard_lookahead_is_bit_identical_to_global(
    tiny_model_config, tiny_click_log
):
    """The per-shard pipelines are accounting-only (staleness 0, never
    defer) and the global pipeline keeps the deferral numerics, so the
    trained model must be bit-identical with the knob on or off."""
    base_trainer, base_result = run_trainer(
        tiny_model_config, tiny_click_log, lookahead_window=4
    )
    shard_trainer, shard_result = run_trainer(
        tiny_model_config, tiny_click_log,
        lookahead_window=4, per_shard_lookahead=True,
    )
    assert shard_result.losses == base_result.losses
    assert_states_equal(base_trainer.model, shard_trainer.model)
    # ...but the accounting differentiates: each shard windowed its own
    # slice and priced its own fills, while the global pipeline stopped
    # pricing fills (its DMA now carries write-back traffic only).
    assert len(shard_trainer.shard_lookaheads) == 2
    assert not shard_trainer.lookahead.price_fills
    for pipe in shard_trainer.shard_lookaheads:
        assert pipe.cached_rows_total > 0
        assert pipe.dma.bytes_read > 0
        assert pipe.pending_rows_total == 0  # accounting-only: never defers


def test_per_shard_lookahead_charges_slowest_shard(
    tiny_model_config, tiny_click_log
):
    """One raw step: the step's prefetch is the global write-back plus the
    *max* over the shard fills (shards fill in parallel), and every shard
    pipeline advanced its window."""
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=7), 2, sample_fraction=0.25,
        lookahead_window=4, per_shard_lookahead=True,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    outcome = trainer.run_step(next(iter(loader)))
    shard_fill = max(
        pipe.last_stats.prefetch_time_s for pipe in trainer.shard_lookaheads
    )
    assert shard_fill > 0.0
    assert outcome.prefetch_time_s >= shard_fill
    # The global pipeline observed the full batch, shards their slices.
    full = trainer.lookahead.cached_rows_total
    assert all(
        0 < pipe.cached_rows_total <= full for pipe in trainer.shard_lookaheads
    )


def test_per_shard_lookahead_requires_a_window(tiny_model_config):
    with pytest.raises(ValueError, match="per_shard_lookahead"):
        ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=0), 2, per_shard_lookahead=True
        )


# --------------------------------------------------------------------- #
# Tiered embedding storage through the trainer
# --------------------------------------------------------------------- #
def test_tiered_run_is_bit_identical_and_counts_traffic(
    tiny_model_config, tiny_click_log
):
    """The tier is a pricing/counting front — weights never move — so a
    tiered run trains the identical model while the hit/miss/eviction
    counters surface through the result."""
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
    for table, hot in enumerate(placement.hot_sets):
        assert np.all(trainer.tier.is_resident(table, hot))
    # A full epoch of churn (capacity far below the hot-set size) cannot
    # evict a pinned row.
    for batch in loader:
        trainer.train_step(batch)
    for table, hot in enumerate(placement.hot_sets):
        assert np.all(trainer.tier.is_resident(table, hot))
    # The model's bags resolve through the tier.
    for bag in trainer.model.tables:
        assert bag._tier is trainer.tier


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
    tier counters as run B's.  bind() resets the lookahead pipelines'
    engines and rebuilds the tier from scratch."""
    hot_bytes = 48 * tiny_model_config.embedding_dim * 4
    trainer = ShardedHotlineTrainer(
        DLRM(tiny_model_config, seed=5), 2, sample_fraction=0.25,
        mode="stale-2", lookahead_window=4, per_shard_lookahead=True,
        tiered_hot_bytes=hot_bytes,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer.bind(loader)
    for batch in list(loader)[:4]:
        trainer.train_step(batch)
    assert trainer.lookahead.dma.bytes_written > 0  # write-backs priced
    assert all(p.dma.bytes_read > 0 for p in trainer.shard_lookaheads)
    assert trainer.tier.hits + trainer.tier.misses > 0
    run_a_tier = trainer.tier
    # Re-binding (what a second train() does first) starts clean...
    trainer.bind(loader)
    assert trainer.lookahead.dma.bytes_read == 0
    assert trainer.lookahead.dma.bytes_written == 0
    assert trainer.lookahead.dma.requests == 0
    for pipe in trainer.shard_lookaheads:
        assert pipe.dma.bytes_read == 0 and pipe.dma.requests == 0
    # ...with a rebuilt tier: fresh counters, fresh residency, re-attached.
    assert trainer.tier is not run_a_tier
    assert trainer.tier.hits == 0 and trainer.tier.misses == 0
    assert trainer.tier.evictions == 0
    assert trainer._tier_seen == (0, 0, 0)
    for bag in trainer.model.tables:
        assert bag._tier is trainer.tier


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
    # Per pending row: values + births slabs (< 2x peak each), row id +
    # slot + free-list entry — the bound test_pending_store derives.
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
