"""Integration tests: the full Hotline stack on a scaled RM2 (Criteo Kaggle).

These tests exercise the complete flow the paper describes — synthetic data
generation, online learning phase on the accelerator, µ-batch training with
placement-aware updates, simulated wall-clock accounting, and the comparison
harness against the baselines — end to end.
"""

import numpy as np
import pytest

from repro.baselines import FAE, HugeCTRGPUOnly, HybridCPUGPU, XDLParameterServer
from repro.core import HotlineScheduler, HotlineTrainer
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import ReferenceTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.data.skew import access_histogram, popular_entries, popular_input_fraction
from repro.hwsim import single_node
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.perf import TrainingCostModel


@pytest.fixture(scope="module")
def scaled_config():
    return RM2.scaled(max_rows_per_table=1500, samples_per_epoch=4096)


@pytest.fixture(scope="module")
def click_log(scaled_config):
    return generate_click_log(scaled_config.dataset, 4096, seed=17)


def test_full_hotline_training_run(scaled_config, click_log):
    """Train a scaled Criteo Kaggle model with the Hotline pipeline."""
    model = DLRM(scaled_config, seed=5)
    loader = MiniBatchLoader(click_log, batch_size=256)
    accelerator = HotlineAccelerator(
        scaled_config.dataset.rows_per_table,
        row_bytes=scaled_config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )
    perf = HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(4)))
    trainer = HotlineTrainer(
        model, accelerator, lr=0.3, sample_fraction=0.25, perf_model=perf
    )
    placement = trainer.learning_phase(loader)
    assert placement.hot_rows_total > 0

    eval_batch = click_log.batch(3072, 1024)
    result = trainer.train(loader, epochs=3, eval_batch=eval_batch, eval_every=4)

    assert result.final_metrics["auc"] > 0.65
    assert result.simulated_time_s > 0
    assert 0.0 < result.mean_popular_fraction <= 1.0
    # Loss trends downward over training.
    first_quarter = np.mean(result.losses[: len(result.losses) // 4])
    last_quarter = np.mean(result.losses[-len(result.losses) // 4 :])
    assert last_quarter < first_quarter


def test_hotline_and_reference_converge_identically(scaled_config, click_log):
    """Figure 18: the AUC trajectories coincide point-for-point."""
    loader = MiniBatchLoader(click_log, batch_size=512)
    eval_batch = click_log.batch(3072, 1024)
    accelerator = HotlineAccelerator(
        scaled_config.dataset.rows_per_table,
        row_bytes=scaled_config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )

    hotline = HotlineTrainer(DLRM(scaled_config, seed=8), accelerator, lr=0.1, sample_fraction=0.25)
    hotline.learning_phase(loader)
    hotline_result = hotline.train(loader, epochs=1, eval_batch=eval_batch, eval_every=2)

    reference = ReferenceTrainer(DLRM(scaled_config, seed=8), lr=0.1)
    reference_result = reference.train(loader, epochs=1, eval_batch=eval_batch, eval_every=2)

    assert len(hotline_result.auc_history) == len(reference_result.auc_history)
    for (it_a, auc_a), (it_b, auc_b) in zip(
        hotline_result.auc_history, reference_result.auc_history, strict=True
    ):
        assert it_a == it_b
        assert auc_a == pytest.approx(auc_b, abs=1e-9)


def test_popularity_statistics_support_hotline(click_log, scaled_config):
    """Figure 6: most inputs are popular under the paper's threshold."""
    histograms = access_histogram(click_log.sparse, scaled_config.dataset.rows_per_table)
    hot = popular_entries(histograms)
    fraction = popular_input_fraction(click_log.sparse, hot)
    assert fraction > 0.5


def test_comparison_harness_orders_frameworks_as_in_figure19():
    """Hotline > FAE > Intel DLRM > XDL in throughput at 4 GPUs."""
    costs = TrainingCostModel(RM2, cluster=single_node(4))
    hotline = HotlineScheduler(costs)
    fae = FAE(costs)
    hybrid = HybridCPUGPU(costs)
    xdl = XDLParameterServer(costs)
    times = {
        "hotline": hotline.step_time(4096),
        "fae": fae.step_time(4096),
        "hybrid": hybrid.step_time(4096),
        "xdl": xdl.step_time(4096),
    }
    assert times["hotline"] < times["fae"] < times["hybrid"] < times["xdl"]


def test_hotline_trains_terabyte_scale_on_one_gpu_where_gpu_only_cannot():
    """The capacity argument of Figure 22: RM3 needs 4 GPUs for HugeCTR but
    a single GPU suffices for Hotline (embeddings live in CPU DRAM)."""
    from repro.models import RM3

    costs = TrainingCostModel(RM3, cluster=single_node(1))
    assert not HugeCTRGPUOnly(costs).is_feasible()
    hotline = HotlineScheduler(costs)
    assert hotline.step_time(1024) > 0
    assert costs.embedding_fits_cpu()
