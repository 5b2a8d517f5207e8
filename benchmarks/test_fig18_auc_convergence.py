"""Figure 18 / Table V companion — AUC convergence: baseline vs Hotline.

Paper claim: Hotline's µ-batch schedule follows the baseline's training and
test accuracy exactly — the AUC curves coincide because the parameter
updates are identical.

Training runs in float32, the paper's dtype.  The float32 run's final
held-out AUC and log-loss are gated against the float64 run recorded
before the switch, so precision drift cannot pass unseen.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM2
from repro.models.dlrm import DLRM

#: Final held-out metrics of ``run_convergence()`` trained in float64 (both
#: trainers agreed bit for bit), recorded on a 2-vCPU x86-64 host.
FLOAT64_FINAL_AUC = 0.6496369391174828
FLOAT64_FINAL_LOGLOSS = 0.6444349501374576

#: Largest allowed drift of the float32 run's final metrics from the float64 run.
FP32_DRIFT_BOUND = 1e-4


def run_convergence():
    config = RM2.scaled(max_rows_per_table=1200, samples_per_epoch=3072)
    log = generate_click_log(config.dataset, 3072, seed=41)
    loader = MiniBatchLoader(log, batch_size=256)
    eval_batch = log.batch(2048, 1024)

    accelerator = HotlineAccelerator(
        config.dataset.rows_per_table,
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )
    hotline = HotlineTrainer(DLRM(config, seed=13), accelerator, lr=0.3, sample_fraction=0.25)
    hotline.learning_phase(loader)
    hotline_result = hotline.train(loader, epochs=2, eval_batch=eval_batch, eval_every=2)

    reference = ReferenceTrainer(DLRM(config, seed=13), lr=0.3)
    reference_result = reference.train(loader, epochs=2, eval_batch=eval_batch, eval_every=2)
    return hotline_result, reference_result


def test_fig18_auc_curves_coincide(benchmark):
    hotline_result, reference_result = benchmark.pedantic(run_convergence, rounds=1, iterations=1)
    rows = [
        (it_b, round(auc_b, 4), round(auc_h, 4))
        for (it_b, auc_b), (_, auc_h) in zip(
            reference_result.auc_history, hotline_result.auc_history, strict=True
        )
    ]
    print()
    print(
        format_table(
            ["iteration", "baseline AUC", "Hotline AUC"],
            rows,
            title="Figure 18: AUC convergence (scaled Criteo Kaggle)",
        )
    )
    # The two curves are identical point-for-point.
    for (it_b, auc_b), (it_h, auc_h) in zip(
        reference_result.auc_history, hotline_result.auc_history, strict=True
    ):
        assert it_b == it_h
        assert auc_h == pytest.approx(auc_b, abs=1e-9)
    # And training actually converges to a useful AUC.
    assert hotline_result.final_metrics["auc"] > 0.6
    # float32 training ends where float64 training did.
    for result in (hotline_result, reference_result):
        metrics = result.final_metrics
        assert metrics["auc"] == pytest.approx(FLOAT64_FINAL_AUC, abs=FP32_DRIFT_BOUND)
        assert metrics["logloss"] == pytest.approx(FLOAT64_FINAL_LOGLOSS, abs=FP32_DRIFT_BOUND)
