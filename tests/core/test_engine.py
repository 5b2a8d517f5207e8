"""Tests for the pluggable training engine shared by every trainer."""

import numpy as np
import pytest

from repro.core.engine import (
    StepExecutor,
    StepOutcome,
    TrainingEngine,
    TrainingResult,
    recalibration_points,
)
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM


class RecordingExecutor(StepExecutor):
    """Minimal executor that logs every engine callback."""

    def __init__(self, model):
        self.model = model
        self.bound = 0
        self.recalibrations: list[int] = []
        self.batch_sizes: list[int] = []

    def bind(self, loader):
        self.bound += 1

    def run_step(self, batch):
        self.batch_sizes.append(batch.size)
        return StepOutcome(loss=1.0, compute_time_s=0.25, communication_time_s=0.75)

    def recalibrate(self, loader, seed=0):
        self.recalibrations.append(seed)


def test_recalibration_points_spacing():
    assert recalibration_points(16, 0) == set()
    assert recalibration_points(2, 4) == set()
    assert recalibration_points(16, 1) == {8}
    assert recalibration_points(15, 2) == {5, 10}


def test_engine_drives_executor_callbacks(tiny_model_config, tiny_click_log):
    executor = RecordingExecutor(DLRM(tiny_model_config, seed=0))
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    engine = TrainingEngine(executor)
    result = engine.train(loader, epochs=2, recalibrations_per_epoch=2)
    assert executor.bound == 1
    assert result.iterations == 2 * len(loader)
    assert len(executor.recalibrations) == 4
    assert all(size == 128 for size in executor.batch_sizes)
    # Compute/communication splits accumulate into the simulated total.
    assert result.compute_time_s == pytest.approx(0.25 * result.iterations)
    assert result.communication_time_s == pytest.approx(0.75 * result.iterations)
    assert result.simulated_time_s == pytest.approx(result.iterations)


def test_engine_eval_cadence_and_final_metrics(tiny_model_config, tiny_click_log):
    executor = RecordingExecutor(DLRM(tiny_model_config, seed=0))
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    eval_batch = tiny_click_log.batch(0, 256)
    result = TrainingEngine(executor).train(
        loader, epochs=1, eval_batch=eval_batch, eval_every=4
    )
    cadence_evals = len(loader) // 4
    assert len(result.auc_history) == cadence_evals + 1  # + final evaluation
    assert set(result.final_metrics) == {"accuracy", "auc", "logloss"}


def test_engine_prefetch_matches_synchronous_losses(tiny_model_config, tiny_click_log):
    """Double-buffered batch assembly must not change the training stream."""
    runs = []
    for prefetch in (0, 1):
        loader = MiniBatchLoader(tiny_click_log, batch_size=128, prefetch=prefetch)
        trainer = ReferenceTrainer(DLRM(tiny_model_config, seed=11), lr=0.1)
        runs.append(TrainingEngine(trainer).train(loader, epochs=1))
    np.testing.assert_array_equal(runs[0].losses, runs[1].losses)


def test_engine_defers_to_explicit_loader_prefetch(tiny_model_config, tiny_click_log):
    """prefetch=0 on the loader is a real opt-out; None gets double-buffering."""
    import repro.data.loader as loader_mod

    depths = []
    original = loader_mod._prefetched

    def spying(producer, depth):
        depths.append(depth)
        return original(producer, depth)

    loader_mod._prefetched = spying
    try:
        trainer = ReferenceTrainer(DLRM(tiny_model_config, seed=0), lr=0.1)
        trainer.train(MiniBatchLoader(tiny_click_log, batch_size=128, prefetch=0), epochs=1)
        assert depths == []
        trainer.train(MiniBatchLoader(tiny_click_log, batch_size=128), epochs=1)
        assert depths == [1]
        trainer.train(MiniBatchLoader(tiny_click_log, batch_size=128, prefetch=3), epochs=1)
        assert depths == [1, 3]
    finally:
        loader_mod._prefetched = original


def test_trainers_share_the_engine_loop(tiny_model_config, tiny_click_log):
    """Baseline and Hotline trainers are step executors — no private loops."""
    assert isinstance(ReferenceTrainer(DLRM(tiny_model_config, seed=0)), StepExecutor)
    assert isinstance(HotlineTrainer(DLRM(tiny_model_config, seed=0)), StepExecutor)
    # Their train() methods return the engine's TrainingResult.
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    result = ReferenceTrainer(DLRM(tiny_model_config, seed=0), lr=0.1).train(loader)
    assert isinstance(result, TrainingResult)


def test_perf_split_uses_collective_time_hook(tiny_model_config, tiny_click_log):
    from repro.core.scheduler import HotlineScheduler
    from repro.hwsim import single_node
    from repro.models import RM2
    from repro.perf import TrainingCostModel

    perf = HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(4)))
    trainer = ReferenceTrainer(DLRM(tiny_model_config, seed=0), lr=0.1, perf_model=perf)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    result = trainer.train(loader, epochs=1)
    steps = result.iterations
    assert result.communication_time_s == pytest.approx(steps * perf.collective_time())
    assert result.simulated_time_s == pytest.approx(steps * perf.step_time(128))
    assert result.compute_time_s == pytest.approx(
        result.simulated_time_s - result.communication_time_s
    )


def test_engine_accumulates_per_bucket_comm(tiny_model_config, tiny_click_log):
    """bucket_comm_s sums each bucket's wire time across every step."""
    from repro.core.distributed import ShardedHotlineTrainer
    from repro.core.reducer import WIRE_BYTES_PER_ELEMENT
    from repro.models.dlrm import DLRM

    model = DLRM(tiny_model_config, seed=0)
    bucket_elements = 64
    trainer = ShardedHotlineTrainer(
        model, 2, sample_fraction=0.25,
        bucket_bytes=bucket_elements * WIRE_BYTES_PER_ELEMENT,
    )
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    result = trainer.train(loader, epochs=1)
    expected_buckets = -(-model.num_dense_parameters // bucket_elements)
    assert len(result.bucket_comm_s) == expected_buckets
    per_step = trainer.reducer.bucket_times(model.num_dense_parameters)
    for total, one_step in zip(result.bucket_comm_s, per_step, strict=True):
        assert total == pytest.approx(one_step * result.iterations)
    # Sync mode: the exposed communication is exactly the summed wire time.
    assert result.communication_time_s == pytest.approx(sum(result.bucket_comm_s))


def test_baseline_outcomes_report_no_buckets(tiny_model_config, tiny_click_log):
    from repro.core.pipeline import ReferenceTrainer
    from repro.models.dlrm import DLRM

    trainer = ReferenceTrainer(DLRM(tiny_model_config, seed=0))
    result = trainer.train(MiniBatchLoader(tiny_click_log, batch_size=128), epochs=1)
    assert result.bucket_comm_s == []


# --------------------------------------------------------------------- #
# finalize(): the end-of-run drain hook
# --------------------------------------------------------------------- #
class DrainingExecutor(RecordingExecutor):
    """Executor with one simulated in-flight gradient to drain."""

    def __init__(self, model):
        super().__init__(model)
        self.finalized = 0

    def finalize(self):
        self.finalized += 1
        return StepOutcome(
            loss=0.0, communication_time_s=0.5, stale_rows=7, prefetch_time_s=0.5
        )


def test_engine_calls_finalize_before_final_eval(tiny_model_config, tiny_click_log):
    executor = DrainingExecutor(DLRM(tiny_model_config, seed=0))
    loader = MiniBatchLoader(tiny_click_log, batch_size=512)
    result = TrainingEngine(executor).train(
        loader, epochs=1, eval_batch=tiny_click_log.batch(0, 128)
    )
    assert executor.finalized == 1
    # The drain's traffic is folded into the run's totals (no loss entry).
    steps = len(result.losses)
    assert result.stale_rows == 7
    assert result.communication_time_s == pytest.approx(0.75 * steps + 0.5)
    assert result.prefetch_time_s == pytest.approx(0.5)
    assert result.simulated_time_s == pytest.approx(1.0 * steps + 0.5)


def test_default_finalize_is_a_noop(tiny_model_config, tiny_click_log):
    executor = RecordingExecutor(DLRM(tiny_model_config, seed=0))
    assert executor.finalize() is None
    result = TrainingEngine(executor).train(
        MiniBatchLoader(tiny_click_log, batch_size=512), epochs=1
    )
    assert result.stale_rows == 0


def test_engine_threads_prepare_batch_through_the_loader(
    tiny_model_config, tiny_click_log
):
    """An executor exposing ``prepare_batch`` sees every epoch batch once
    (via the loader's transform hook); one without it is untouched."""

    class PreparingExecutor(RecordingExecutor):
        def __init__(self, model):
            super().__init__(model)
            self.prepared = 0

        def prepare_batch(self, batch):
            self.prepared += 1
            return batch

    executor = PreparingExecutor(DLRM(tiny_model_config, seed=0))
    loader = MiniBatchLoader(tiny_click_log, batch_size=512, prefetch=0)
    TrainingEngine(executor).train(loader, epochs=1)
    assert executor.prepared == len(loader)
    assert executor.batch_sizes == [512] * len(loader)
