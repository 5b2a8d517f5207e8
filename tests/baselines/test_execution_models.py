"""Unit tests covering each baseline execution model's schedule."""

import pytest

from repro.baselines import (
    FAE,
    HotlineCPU,
    HugeCTRGPUOnly,
    HybridCPUGPU,
    OutOfMemoryError,
    ScratchPipeIdeal,
    XDLParameterServer,
)
from repro.core.accelerator import HotlineAccelerator
from repro.hwsim import multi_node, single_node
from repro.models import RM1, RM2, RM3
from repro.perf import TrainingCostModel


@pytest.fixture(scope="module")
def costs_rm2():
    return TrainingCostModel(RM2, cluster=single_node(4))


@pytest.fixture(scope="module")
def costs_rm3():
    return TrainingCostModel(RM3, cluster=single_node(4))


ALL_MODES = [HybridCPUGPU, XDLParameterServer, FAE, ScratchPipeIdeal, HotlineCPU]


@pytest.mark.parametrize("mode_cls", ALL_MODES)
def test_step_time_positive_and_scales_with_batch(costs_rm2, mode_cls):
    mode = mode_cls(costs_rm2)
    assert mode.step_time(1024) > 0
    assert mode.step_time(4096) > mode.step_time(1024)


@pytest.mark.parametrize("mode_cls", ALL_MODES)
def test_breakdown_fractions_sum_to_one(costs_rm2, mode_cls):
    breakdown = mode_cls(costs_rm2).breakdown(4096)
    assert sum(breakdown.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("mode_cls", ALL_MODES)
def test_epoch_time_and_throughput(costs_rm2, mode_cls):
    mode = mode_cls(costs_rm2)
    assert mode.epoch_time(4096) > mode.step_time(4096)
    assert mode.epochs_per_hour(4096) > 0


def test_hybrid_is_dominated_by_embedding_work(costs_rm3):
    """Figure 3: embedding + comm + optimizer dominate the hybrid mode."""
    breakdown = HybridCPUGPU(costs_rm3).breakdown(4096)
    embedding_related = (
        breakdown.get("embedding", 0)
        + breakdown.get("comm", 0)
        + breakdown.get("optimizer", 0)
    )
    assert embedding_related > 0.5


def test_hybrid_cpu_lane_dominates_gpu_lane(costs_rm3):
    timeline = HybridCPUGPU(costs_rm3).step_timeline(4096)
    assert timeline.lane_busy_time("cpu") > timeline.lane_busy_time("gpu")


def test_xdl_slower_than_intel_hybrid(costs_rm2):
    """Figure 19: XDL is the slowest software baseline."""
    assert XDLParameterServer(costs_rm2).step_time(4096) > HybridCPUGPU(costs_rm2).step_time(4096)


def test_fae_faster_than_hybrid_but_pays_profiling(costs_rm2):
    fae = FAE(costs_rm2)
    hybrid = HybridCPUGPU(costs_rm2)
    assert fae.step_time(4096) < hybrid.step_time(4096)
    breakdown = fae.breakdown(4096)
    assert breakdown.get("overhead", 0) > 0.05  # offline profiling is charged


def test_hugectr_requires_hbm_capacity():
    small = HugeCTRGPUOnly(TrainingCostModel(RM2, cluster=single_node(1)))
    assert small.is_feasible()
    terabyte_1gpu = HugeCTRGPUOnly(TrainingCostModel(RM3, cluster=single_node(1)))
    assert not terabyte_1gpu.is_feasible()
    with pytest.raises(OutOfMemoryError):
        terabyte_1gpu.step_time(1024)
    terabyte_4gpu = HugeCTRGPUOnly(TrainingCostModel(RM3, cluster=single_node(4)))
    assert terabyte_4gpu.is_feasible()


def test_hugectr_alltoall_fraction_single_node(costs_rm2):
    """Figure 4: the all-to-all costs roughly 10-20 % on one NVLink node."""
    breakdown = HugeCTRGPUOnly(costs_rm2).breakdown(4096)
    assert 0.05 < breakdown["alltoall"] < 0.3


def test_hugectr_communication_grows_across_nodes():
    """Figure 5: inter-node all-to-all dominates multi-node training."""
    single = HugeCTRGPUOnly(TrainingCostModel(RM3, cluster=single_node(4))).breakdown(4096)
    multi = HugeCTRGPUOnly(TrainingCostModel(RM3, cluster=multi_node(4))).breakdown(16384)
    single_comm = single["alltoall"] + single.get("comm", 0)
    multi_comm = multi["alltoall"] + multi.get("comm", 0)
    assert multi_comm > single_comm
    assert multi_comm > 0.4


def test_scratchpipe_has_no_cpu_gather_on_critical_path(costs_rm2):
    breakdown = ScratchPipeIdeal(costs_rm2).breakdown(4096)
    assert breakdown.get("embedding", 0) < 0.3


def test_hotline_cpu_exposes_segregation(costs_rm3):
    """Figure 23: CPU-driven segregation stalls the GPUs."""
    hotline_cpu = HotlineCPU(costs_rm3)
    breakdown = hotline_cpu.breakdown(4096)
    assert breakdown.get("embedding", 0) > 0.2


def test_cpu_segregation_slower_than_accelerator(costs_rm3):
    """Figures 7/8 vs the accelerator: orders of magnitude apart."""
    cpu_time = costs_rm3.cpu_segregation_time(4096)
    accel_time = HotlineAccelerator(RM3.dataset.rows_per_table).segregation_time(
        4096, RM3.dataset.lookups_per_sample()
    )
    assert cpu_time > 20 * accel_time


def test_speedup_over_is_symmetric_inverse(costs_rm2):
    hybrid = HybridCPUGPU(costs_rm2)
    xdl = XDLParameterServer(costs_rm2)
    assert hybrid.speedup_over(xdl, 4096) == pytest.approx(
        1.0 / xdl.speedup_over(hybrid, 4096)
    )


def test_tbsm_workload_is_mlp_dominated():
    """Figure 3: Taobao (RM1) spends most of its time in the neural network."""
    costs = TrainingCostModel(RM1, cluster=single_node(4))
    breakdown = HybridCPUGPU(costs).breakdown(4096)
    assert breakdown["mlp"] + breakdown["backward"] > breakdown["embedding"]
