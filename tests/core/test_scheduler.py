"""Unit tests for the Hotline pipeline scheduler (performance model)."""

import pytest

from repro.baselines import HybridCPUGPU
from repro.core.scheduler import HotlineScheduler
from repro.hwsim import multi_node, single_node
from repro.models import RM2, RM3
from repro.perf import TrainingCostModel


@pytest.fixture(scope="module")
def scheduler_rm3():
    return HotlineScheduler(TrainingCostModel(RM3, cluster=single_node(4)))


def test_plan_partitions_batch(scheduler_rm3):
    plan = scheduler_rm3.plan_step(4096)
    assert plan.popular_size + plan.non_popular_size == 4096
    assert plan.popular_size / plan.batch_size == pytest.approx(0.75, abs=0.01)


def test_plan_step_time_is_sum_of_exposed_phases(scheduler_rm3):
    plan = scheduler_rm3.plan_step(4096)
    assert plan.step_time == pytest.approx(
        scheduler_rm3.costs.overheads.gpu_iteration_overhead_s
        + plan.popular_exec_time
        + plan.exposed_gather_time
        + plan.non_popular_exec_time
        + plan.sync_time
    )


def test_gather_hidden_at_default_popularity(scheduler_rm3):
    """Figure 25: with a 3:1 popular ratio the gather is fully hidden."""
    plan = scheduler_rm3.plan_step(4096)
    assert plan.gather_hidden


def test_gather_exposed_only_at_extreme_ratios(scheduler_rm3):
    hidden = scheduler_rm3.plan_step(4096, hot_fraction=0.75)
    extreme = scheduler_rm3.plan_step(4096, hot_fraction=0.05)
    assert hidden.exposed_gather_time <= extreme.exposed_gather_time


def test_timeline_makespan_matches_plan(scheduler_rm3):
    plan = scheduler_rm3.plan_step(4096)
    timeline = scheduler_rm3.step_timeline(4096)
    assert timeline.makespan() == pytest.approx(plan.step_time, rel=0.05)


def test_accelerator_lane_is_used(scheduler_rm3):
    timeline = scheduler_rm3.step_timeline(4096)
    lanes = {event.lane for event in timeline.events}
    assert "accel" in lanes and "gpu" in lanes


def test_hotline_beats_hybrid_baseline():
    costs = TrainingCostModel(RM3, cluster=single_node(4))
    hotline = HotlineScheduler(costs)
    hybrid = HybridCPUGPU(costs)
    speedup = hotline.speedup_over(hybrid, 4096)
    assert 1.5 < speedup < 6.0


def test_epoch_time_includes_profiling_overhead():
    costs = TrainingCostModel(RM2, cluster=single_node(4))
    with_profiling = HotlineScheduler(costs, online_profiling_overhead=0.05)
    without = HotlineScheduler(costs, online_profiling_overhead=0.0)
    assert with_profiling.epoch_time(4096) > without.epoch_time(4096)


def test_multi_node_gather_is_distributed_across_accelerators():
    single = HotlineScheduler(TrainingCostModel(RM3, cluster=single_node(4)))
    multi = HotlineScheduler(TrainingCostModel(RM3, cluster=multi_node(4)))
    # With per-node accelerators, the gather per node does not grow with the
    # (weak-scaled) global batch.
    assert multi.plan_step(16384).gather_time <= single.plan_step(4096).gather_time * 1.5


def test_speedup_grows_with_batch_size():
    """Figure 26: larger mini-batches widen Hotline's advantage."""
    costs = TrainingCostModel(RM3, cluster=single_node(4))
    hotline = HotlineScheduler(costs)
    hybrid = HybridCPUGPU(costs)
    small = hotline.speedup_over(hybrid, 1024)
    large = hotline.speedup_over(hybrid, 16384)
    assert large > small
