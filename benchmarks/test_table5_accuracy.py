"""Table V — accuracy metrics (accuracy / AUC / log-loss), DLRM vs Hotline.

Paper claim: the metrics are *identical* between the baseline and Hotline on
every dataset, because Hotline only reorders inputs within a mini-batch.
In float32 the reordered gradient sums round differently, so the metrics
agree to the cross-order tolerance, and AUC to one swapped pair.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM1, RM2, RM4
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from tests.helpers import CROSS_ORDER_ATOL

SCALED = [
    ("Criteo Kaggle", RM2.scaled(max_rows_per_table=800), DLRM),
    ("Taobao Alibaba", RM1.scaled(max_rows_per_table=800), TBSM),
    ("Avazu", RM4.scaled(max_rows_per_table=800), DLRM),
]


def run_all():
    rows = []
    for label, config, model_cls in SCALED:
        log = generate_click_log(config.dataset, 2048, seed=51)
        loader = MiniBatchLoader(log, batch_size=256)
        eval_batch = log.batch(1536, 512)
        accelerator = HotlineAccelerator(
            config.dataset.rows_per_table,
            row_bytes=config.embedding_dim * 4,
            eal_config=EALConfig(size_bytes=1 << 16, ways=16),
        )
        hotline = HotlineTrainer(
            model_cls(config, seed=29), accelerator, lr=0.2, sample_fraction=0.3
        )
        hotline.learning_phase(loader)
        hotline_metrics = hotline.train(loader, epochs=2, eval_batch=eval_batch).final_metrics
        baseline_metrics = (
            ReferenceTrainer(model_cls(config, seed=29), lr=0.2)
            .train(loader, epochs=2, eval_batch=eval_batch)
            .final_metrics
        )
        positives = int(eval_batch.labels.sum())
        pairs = positives * (eval_batch.size - positives)
        rows.append((label, baseline_metrics, hotline_metrics, pairs))
    return rows


def test_table5_accuracy_parity(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    printable = [
        (
            label,
            round(base["accuracy"] * 100, 2),
            round(base["auc"], 4),
            round(base["logloss"], 4),
            round(hot["accuracy"] * 100, 2),
            round(hot["auc"], 4),
            round(hot["logloss"], 4),
        )
        for label, base, hot, _pairs in rows
    ]
    print()
    print(
        format_table(
            ["dataset", "DLRM acc%", "DLRM AUC", "DLRM logloss",
             "Hotline acc%", "Hotline AUC", "Hotline logloss"],
            printable,
            title="Table V: accuracy metrics, baseline vs Hotline (scaled datasets)",
        )
    )
    for label, base, hot, pairs in rows:
        assert hot["accuracy"] == pytest.approx(base["accuracy"], abs=CROSS_ORDER_ATOL), label
        # AUC counts ordered (positive, negative) pairs, so it moves in steps
        # of 1/pairs.  The two runs sum gradients in different orders, and
        # float32 rounding can swap one pair whose logits lie within an ulp:
        # 1.5 steps admit that one swap and reject a second.
        assert hot["auc"] == pytest.approx(base["auc"], abs=1.5 / pairs), label
        assert hot["logloss"] == pytest.approx(base["logloss"], abs=CROSS_ORDER_ATOL), label
