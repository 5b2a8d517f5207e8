"""Unit tests for the model zoo (Table II configurations)."""

import pytest

from repro.models.configs import (
    PAPER_MODELS,
    REAL_WORLD_MODELS,
    RM1,
    RM2,
    RM3,
    RM4,
    SYN_M1,
    SYN_M2,
)


def test_table2_embedding_dims():
    assert RM1.embedding_dim == 16
    assert RM2.embedding_dim == 16
    assert RM3.embedding_dim == 64
    assert RM4.embedding_dim == 16


def test_table2_mlp_architectures():
    assert RM2.bottom_mlp == "13-512-256-64-16"
    assert RM2.top_mlp == "512-256-1"
    assert RM3.bottom_mlp == "13-512-256-64"
    assert RM3.top_mlp == "512-512-256-1"
    assert RM1.uses_attention


def test_table2_model_sizes_in_gigabytes():
    """Table II sizes: RM1 0.3 GB, RM2 2 GB, RM3 63 GB, RM4 0.55 GB."""
    assert RM1.embedding_gigabytes == pytest.approx(0.33, rel=0.1)
    assert RM2.embedding_gigabytes == pytest.approx(2.16, rel=0.1)
    assert RM3.embedding_gigabytes == pytest.approx(68.1, rel=0.1)
    assert RM4.embedding_gigabytes == pytest.approx(0.6, rel=0.15)


def test_synthetic_models_larger_than_real_ones():
    """Figure 28: SYN-M1 is 196 GB, SYN-M2 is 390 GB."""
    assert SYN_M1.embedding_gigabytes == pytest.approx(196, rel=0.05)
    assert SYN_M2.embedding_gigabytes == pytest.approx(390, rel=0.05)
    assert SYN_M2.num_sparse_features == 2 * SYN_M1.num_sparse_features


def test_dense_parameter_counts_order_of_magnitude():
    """Table II dense parameters: 7.3k (RM1) to 549k (RM3)."""
    assert RM1.dense_parameter_count < 20_000
    assert 200_000 < RM2.dense_parameter_count < 900_000
    assert 300_000 < RM3.dense_parameter_count < 1_200_000


def test_sparse_parameters_dominate_dense():
    for config in (RM2, RM3, RM4):
        sparse_parameters = config.dataset.total_rows * config.embedding_dim
        assert sparse_parameters > 10 * config.dense_parameter_count


def test_mlp_flops_positive_and_ordered():
    assert RM3.mlp_flops_per_sample > RM2.mlp_flops_per_sample > 0


def test_bytes_per_lookup():
    assert RM2.bytes_per_lookup() == 16 * 4
    assert RM3.bytes_per_lookup() == 64 * 4


def test_scaled_config_shrinks_embeddings_only():
    scaled = RM3.scaled(max_rows_per_table=5000)
    assert scaled.embedding_dim == RM3.embedding_dim
    assert scaled.bottom_mlp == RM3.bottom_mlp
    assert scaled.dataset.total_rows < RM3.dataset.total_rows
    assert scaled.embedding_bytes < RM3.embedding_bytes


def test_registry():
    assert PAPER_MODELS["RM2"] is RM2
    assert len(PAPER_MODELS) == 6
    assert set(REAL_WORLD_MODELS) == {
        "Criteo Kaggle",
        "Taobao Alibaba",
        "Criteo Terabyte",
        "Avazu",
    }
