"""Unit tests for the dataset specifications (Table II datasets)."""

import pytest

from repro.data.datasets import (
    AVAZU,
    CRITEO_KAGGLE,
    CRITEO_TERABYTE,
    PAPER_DATASETS,
    SYN_D1,
    SYN_D2,
    TAOBAO_ALIBABA,
)


def test_table2_sparse_feature_counts():
    assert CRITEO_KAGGLE.num_sparse == 26
    assert CRITEO_TERABYTE.num_sparse == 26
    assert AVAZU.num_sparse == 21
    assert TAOBAO_ALIBABA.num_sparse == 3


def test_table2_dense_feature_counts():
    assert CRITEO_KAGGLE.num_dense == 13
    assert CRITEO_TERABYTE.num_dense == 13
    assert AVAZU.num_dense == 1
    assert TAOBAO_ALIBABA.num_dense == 1


def test_table2_total_rows_match_sparse_parameters():
    # Table II sparse parameter counts: 33.8M, 266M, 9.3M, 5.1M (rows).
    assert CRITEO_KAGGLE.total_rows == pytest.approx(33.8e6, rel=0.02)
    assert CRITEO_TERABYTE.total_rows == pytest.approx(266e6, rel=0.02)
    assert AVAZU.total_rows == pytest.approx(9.3e6, rel=0.02)
    assert TAOBAO_ALIBABA.total_rows == pytest.approx(5.1e6, rel=0.02)


def test_taobao_is_a_time_series():
    assert TAOBAO_ALIBABA.time_series_length == 21
    assert CRITEO_KAGGLE.time_series_length == 1


def test_lookups_per_sample_one_hot():
    assert CRITEO_KAGGLE.lookups_per_sample() == 26
    assert AVAZU.lookups_per_sample() == 21


def test_lookups_per_sample_time_series_counts_history_once_per_step():
    # 21 history lookups + 2 context tables.
    assert TAOBAO_ALIBABA.lookups_per_sample() == 23


def test_lookups_per_sample_multi_hot():
    assert SYN_D1.lookups_per_sample() == 102 * 4
    assert SYN_D2.lookups_per_sample() == 204 * 4


def test_embedding_bytes_scales_with_dim():
    assert CRITEO_KAGGLE.embedding_bytes(32) == 2 * CRITEO_KAGGLE.embedding_bytes(16)


def test_scaled_preserves_table_count_and_relative_sizes():
    scaled = CRITEO_TERABYTE.scaled(max_rows_per_table=10_000)
    assert scaled.num_sparse == CRITEO_TERABYTE.num_sparse
    assert max(scaled.rows_per_table) <= 10_000
    original_largest = max(CRITEO_TERABYTE.rows_per_table)
    original_second = sorted(CRITEO_TERABYTE.rows_per_table)[-3]
    scaled_largest = max(scaled.rows_per_table)
    scaled_second = sorted(scaled.rows_per_table)[-3]
    assert scaled_second / scaled_largest == pytest.approx(
        original_second / original_largest, rel=0.1
    )


def test_scaled_noop_when_already_small():
    small = TAOBAO_ALIBABA.scaled(max_rows_per_table=10_000_000)
    assert small.rows_per_table == TAOBAO_ALIBABA.rows_per_table


def test_dataset_registry_lookup():
    assert PAPER_DATASETS["Criteo Kaggle"] is CRITEO_KAGGLE
    assert len(PAPER_DATASETS) == 6
