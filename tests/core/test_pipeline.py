"""Tests for the end-to-end Hotline trainer, including the paper's central
claim: training with µ-batch fragmentation is numerically equivalent to the
baseline (Eq. 5, Figure 18, Table V)."""

import numpy as np
import pytest

from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer, evaluate
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from tests.helpers import CROSS_ORDER_ATOL, CROSS_ORDER_RTOL


def make_accelerator(model):
    config = model.config
    return HotlineAccelerator(
        config.dataset.rows_per_table,
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 16, ways=8),
        seed=0,
    )


def test_learning_phase_builds_placement(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=0)
    trainer = HotlineTrainer(model, make_accelerator(model), sample_fraction=0.25)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    placement = trainer.learning_phase(loader)
    assert placement.hot_rows_total > 0
    assert len(placement.hot_sets) == tiny_model_config.num_sparse_features


def test_accelerator_of_another_key_space_is_rejected(tiny_model_config):
    """An injected accelerator's EAL must track the model's tables: one
    sized for other tables would reject the model's ids, or accept ids
    past their table's end."""
    model = DLRM(tiny_model_config, seed=0)
    rows = tiny_model_config.dataset.rows_per_table
    other = HotlineAccelerator((*rows[:-1], rows[-1] + 1), row_bytes=32)
    with pytest.raises(ValueError, match="rows"):
        HotlineTrainer(model, other)
    accelerator = make_accelerator(model)
    assert HotlineTrainer(model, accelerator).accelerator is accelerator


def test_train_step_before_learning_phase_raises(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=0)
    trainer = HotlineTrainer(model, make_accelerator(model))
    with pytest.raises(RuntimeError):
        trainer.train_step(tiny_click_log.batch(0, 32))


def test_hotline_update_identical_to_baseline_dlrm(tiny_model_config, tiny_click_log):
    """The headline fidelity claim: same mini-batch, same parameter update."""
    hotline_model = DLRM(tiny_model_config, seed=42)
    baseline_model = DLRM(tiny_model_config, seed=42)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer = HotlineTrainer(
        hotline_model, make_accelerator(hotline_model), lr=0.05, sample_fraction=0.25
    )
    trainer.learning_phase(loader)

    for start in (0, 128, 256):
        batch = tiny_click_log.batch(start, 128)
        trainer.train_step(batch)
        baseline_model.train_step(batch, lr=0.05)

    hotline_state = hotline_model.state_snapshot()
    baseline_state = baseline_model.state_snapshot()
    for key in baseline_state:
        np.testing.assert_allclose(
            hotline_state[key], baseline_state[key], rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


def test_hotline_update_identical_to_baseline_tbsm(tiny_ts_model_config, tiny_ts_click_log):
    hotline_model = TBSM(tiny_ts_model_config, seed=9)
    baseline_model = TBSM(tiny_ts_model_config, seed=9)
    loader = MiniBatchLoader(tiny_ts_click_log, batch_size=128)
    trainer = HotlineTrainer(
        hotline_model, make_accelerator(hotline_model), lr=0.05, sample_fraction=0.25
    )
    trainer.learning_phase(loader)
    batch = tiny_ts_click_log.batch(0, 128)
    trainer.train_step(batch)
    baseline_model.train_step(batch, lr=0.05)
    hotline_state = hotline_model.state_snapshot()
    baseline_state = baseline_model.state_snapshot()
    for key in baseline_state:
        np.testing.assert_allclose(
            hotline_state[key], baseline_state[key], rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


def test_hotline_training_loop_matches_reference_metrics(tiny_model_config, tiny_click_log):
    """Table V: identical accuracy / AUC / log-loss after full training."""
    hotline_model = DLRM(tiny_model_config, seed=3)
    baseline_model = DLRM(tiny_model_config, seed=3)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    eval_batch = tiny_click_log.batch(1536, 512)

    hotline = HotlineTrainer(
        hotline_model, make_accelerator(hotline_model), lr=0.1, sample_fraction=0.25
    )
    hotline.learning_phase(loader)
    hotline_result = hotline.train(loader, epochs=1, eval_batch=eval_batch)

    reference = ReferenceTrainer(baseline_model, lr=0.1)
    reference_result = reference.train(loader, epochs=1, eval_batch=eval_batch)

    assert hotline_result.final_metrics["auc"] == pytest.approx(
        reference_result.final_metrics["auc"], abs=1e-9
    )
    assert hotline_result.final_metrics["accuracy"] == pytest.approx(
        reference_result.final_metrics["accuracy"], abs=1e-9
    )
    assert hotline_result.final_metrics["logloss"] == pytest.approx(
        reference_result.final_metrics["logloss"], abs=1e-9
    )


def test_training_result_records_losses_and_popularity(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=1)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer = HotlineTrainer(model, make_accelerator(model), sample_fraction=0.25)
    trainer.learning_phase(loader)
    result = trainer.train(loader, epochs=1)
    assert result.iterations == len(loader)
    assert len(result.popular_fractions) == result.iterations
    assert 0.0 <= result.mean_popular_fraction <= 1.0


def test_recalibration_runs_mid_epoch(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=1)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer = HotlineTrainer(model, make_accelerator(model), sample_fraction=0.25)
    trainer.learning_phase(loader)
    result = trainer.train(loader, epochs=1, recalibrations_per_epoch=2)
    assert result.iterations == len(loader)
    # Re-calibration resets EAL statistics, so insertions happened again.
    assert trainer.accelerator.eal.insertions > 0


def test_recalibration_delta_updates_placement_in_place(tiny_model_config, tiny_click_log):
    """Recalibration reuses the existing placement/bitmaps via deltas."""
    model = DLRM(tiny_model_config, seed=1)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    trainer = HotlineTrainer(model, make_accelerator(model), sample_fraction=0.25)
    placement = trainer.learning_phase(loader)
    index = placement.index
    trainer.recalibrate(loader, seed=3)
    recalibrated = trainer.placement
    assert recalibrated is placement
    assert recalibrated.index is index
    # The delta-updated index classifies exactly like a rebuilt one would.
    from repro.core.hotset import HotSetIndex

    rebuilt = HotSetIndex(
        placement.hot_sets, rows_per_table=tiny_model_config.dataset.rows_per_table
    )
    batch = tiny_click_log.batch(0, 256)
    np.testing.assert_array_equal(
        placement.index.classify(batch.sparse), rebuilt.classify(batch.sparse)
    )


def test_evaluate_returns_all_metrics(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=0)
    metrics = evaluate(model, tiny_click_log.batch(0, 256))
    assert set(metrics) == {"accuracy", "auc", "logloss"}


def test_perf_model_accumulates_simulated_time(tiny_model_config, tiny_click_log):
    """Hotline prices a step as the baseline does: the perf model's
    collective is exposed communication, not the one-shard reducer's zero."""
    from repro.core.scheduler import HotlineScheduler
    from repro.models import RM2
    from repro.perf import TrainingCostModel
    from repro.hwsim import single_node

    model = DLRM(tiny_model_config, seed=0)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    perf = HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(4)))
    trainer = HotlineTrainer(model, make_accelerator(model), sample_fraction=0.25, perf_model=perf)
    trainer.learning_phase(loader)
    result = trainer.train(loader, epochs=1)
    steps = result.iterations
    assert perf.collective_time() > 0
    assert result.communication_time_s == pytest.approx(steps * perf.collective_time())
    assert result.simulated_time_s == pytest.approx(steps * perf.step_time(128))
