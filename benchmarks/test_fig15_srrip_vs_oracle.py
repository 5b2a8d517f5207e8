"""Figure 15 — the SRRIP-based EAL vs an Oracle LFU tracker.

Paper claim: the cheap 2-bit SRRIP tracker identifies ~90 % of the popular
inputs an ideal (unbounded-counter) LFU tracker would identify.
"""

from repro.analysis.report import format_table
from repro.core.eal import EALConfig, EmbeddingAccessLogger, OracleLFUTracker
from repro.data import generate_click_log, popular_input_fraction
from repro.models import RM1, RM2, RM3, RM4

SCALED = [
    ("Criteo Kaggle", RM2.scaled(max_rows_per_table=1500)),
    ("Taobao Alibaba", RM1.scaled(max_rows_per_table=1500)),
    ("Criteo Terabyte", RM3.scaled(max_rows_per_table=1500)),
    ("Avazu", RM4.scaled(max_rows_per_table=1500)),
]

TRAIN_SAMPLES = 3000
EVAL_SAMPLES = 1500
EAL_ENTRIES = 2048


def compare_trackers():
    rows = []
    for label, config in SCALED:
        log = generate_click_log(config.dataset, TRAIN_SAMPLES + EVAL_SAMPLES, seed=31)
        train = log.sparse[:TRAIN_SAMPLES]
        evaluation = log.sparse[TRAIN_SAMPLES:]

        eal = EmbeddingAccessLogger(
            config.dataset.rows_per_table, EALConfig(size_bytes=EAL_ENTRIES * 2, ways=16), seed=0
        )
        oracle = OracleLFUTracker(capacity_entries=EAL_ENTRIES)
        eal.access_batch(train)
        oracle.access_batch(train)

        num_tables = config.num_sparse_features
        srrip_popular = popular_input_fraction(evaluation, eal.hot_indices(num_tables))
        oracle_popular = popular_input_fraction(evaluation, oracle.hot_indices(num_tables))
        rows.append((label, round(100 * oracle_popular, 1), round(100 * srrip_popular, 1)))
    return rows


def test_fig15_srrip_tracks_most_of_what_oracle_tracks(benchmark):
    rows = benchmark.pedantic(compare_trackers, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["dataset", "Oracle % popular", "SRRIP % popular"],
            rows,
            title="Figure 15: SRRIP tracker vs Oracle LFU",
        )
    )
    relative = []
    for label, oracle_pct, srrip_pct in rows:
        assert oracle_pct > 0
        relative.append(srrip_pct / oracle_pct)
    # On average the SRRIP tracker captures the large majority of the
    # popular inputs the Oracle captures (paper: ~90 %).
    assert sum(relative) / len(relative) > 0.7
