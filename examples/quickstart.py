"""Quickstart: train a DLRM with the Hotline pipeline and verify fidelity.

This example walks the whole public API in a few minutes on a laptop:

1. build a scaled-down Criteo-Kaggle-like model (RM2) and a synthetic
   Zipf-skewed click log;
2. run Hotline's learning phase (online popularity profiling on the
   accelerator's Embedding Access Logger);
3. train with the Hotline µ-batch schedule and with the plain baseline;
4. show that the accuracy metrics are identical (the paper's Table V claim)
   while the simulated wall-clock time is much lower (the Figure 19 claim).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines import HybridCPUGPU
from repro.core import HotlineScheduler, HotlineTrainer
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import ReferenceTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.hwsim import single_node
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.perf import TrainingCostModel


def main() -> None:
    # 1. A trainable stand-in for RM2 / Criteo Kaggle (Table II).
    config = RM2.scaled(max_rows_per_table=2000, samples_per_epoch=8192)
    log = generate_click_log(config.dataset, 8192, seed=1)
    loader = MiniBatchLoader(log, batch_size=256)
    eval_batch = log.batch(6144, 2048)
    print(f"model: {config.name}  tables: {config.num_sparse_features}  "
          f"embedding rows: {config.dataset.total_rows:,}")

    # 2. Hotline hardware: the accelerator model plus the paper's 4-GPU node.
    accelerator = HotlineAccelerator(
        config.dataset.rows_per_table,
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )
    costs = TrainingCostModel(RM2, cluster=single_node(4))
    hotline_perf = HotlineScheduler(costs)
    baseline_perf = HybridCPUGPU(costs)

    # 3. Train with Hotline and with the baseline schedule.
    hotline = HotlineTrainer(
        DLRM(config, seed=7), accelerator, lr=0.3, sample_fraction=0.1,
        perf_model=hotline_perf,
    )
    placement = hotline.learning_phase(loader)
    print(f"learning phase: {placement.hot_rows_total:,} rows replicated on GPU HBM "
          f"({placement.gpu_bytes / 1e6:.1f} MB)")
    hotline_result = hotline.train(loader, epochs=2, eval_batch=eval_batch, eval_every=8)

    baseline = ReferenceTrainer(DLRM(config, seed=7), lr=0.3, perf_model=baseline_perf)
    baseline_result = baseline.train(loader, epochs=2, eval_batch=eval_batch, eval_every=8)

    # 4. Fidelity and performance.
    print("\n--- fidelity (Table V) ---")
    for metric in ("accuracy", "auc", "logloss"):
        print(f"{metric:>9}: baseline {baseline_result.final_metrics[metric]:.6f}  "
              f"hotline {hotline_result.final_metrics[metric]:.6f}")
    print(f"\npopular-input fraction observed: {hotline_result.mean_popular_fraction:.2%}")

    print("\n--- simulated training time on the paper's 4-GPU testbed ---")
    print(f"baseline (Intel-optimized hybrid DLRM): {baseline_result.simulated_time_s:.3f} s")
    print(f"Hotline:                                {hotline_result.simulated_time_s:.3f} s")
    print(f"speedup: {baseline_result.simulated_time_s / hotline_result.simulated_time_s:.2f}x "
          f"(paper reports 2.2x on average at 4 GPUs)")


if __name__ == "__main__":
    main()
