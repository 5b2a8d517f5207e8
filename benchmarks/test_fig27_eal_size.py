"""Figure 27 — EAL capacity sweep (1 MB - 16 MB).

Paper claim: for the highly skewed Criteo/Avazu datasets a small (2 MB)
logger already captures the popular indices; the less-skewed Taobao dataset
benefits from more capacity, with diminishing returns above ~4 MB.

The sweep below scales the logger capacity together with the scaled-down
datasets (the paper's absolute MB sizes correspond to its full-size tables);
the *shape* — monotone improvement with capacity and saturation — is the
reproduced claim.
"""

from repro.analysis.report import format_table
from repro.core.eal import EALConfig, EmbeddingAccessLogger
from repro.data import generate_click_log, popular_input_fraction
from repro.models import RM1, RM2, RM3, RM4

SCALED = [
    ("Criteo Kaggle", RM2.scaled(max_rows_per_table=1500)),
    ("Taobao Alibaba", RM1.scaled(max_rows_per_table=1500)),
    ("Criteo Terabyte", RM3.scaled(max_rows_per_table=1500)),
    ("Avazu", RM4.scaled(max_rows_per_table=1500)),
]

#: Logger capacities in entries (scaled analogues of 1-16 MB).
CAPACITIES = [256, 512, 1024, 2048, 4096]
TRAIN_SAMPLES = 3000
EVAL_SAMPLES = 1500


def sweep():
    table = {}
    for label, config in SCALED:
        log = generate_click_log(config.dataset, TRAIN_SAMPLES + EVAL_SAMPLES, seed=61)
        train = log.sparse[:TRAIN_SAMPLES]
        evaluation = log.sparse[TRAIN_SAMPLES:]
        fractions = []
        for capacity in CAPACITIES:
            eal = EmbeddingAccessLogger(
                config.dataset.rows_per_table, EALConfig(size_bytes=capacity * 2, ways=16), seed=0
            )
            eal.access_batch(train)
            hot = eal.hot_indices(config.num_sparse_features)
            fractions.append(popular_input_fraction(evaluation, hot))
        table[label] = fractions
    return table


def test_fig27_eal_capacity_sweep(benchmark):
    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    rows = [[label] + [round(100 * f, 1) for f in fractions] for label, fractions in table.items()]
    print(
        format_table(
            ["dataset"] + [str(c) for c in CAPACITIES],
            rows,
            title="Figure 27: % popular inputs vs EAL capacity (entries)",
        )
    )
    for label, fractions in table.items():
        # More capacity never hurts.
        assert all(b >= a - 0.02 for a, b in zip(fractions, fractions[1:], strict=False)), label
        # Diminishing returns: the final doubling adds only a modest amount
        # compared with the total range (the curve saturates).
        total_range = fractions[-1] - fractions[0]
        last_gain = fractions[-1] - fractions[-2]
        assert last_gain <= max(0.1, 0.6 * total_range + 0.02), label
    # The largest capacity captures a popular-input majority on the skewed sets.
    assert table["Criteo Kaggle"][-1] > 0.5
    assert table["Criteo Terabyte"][-1] > 0.5
