"""Property-based tests of the numpy NN substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.embedding import EmbeddingBag, scatter_add_rows
from repro.nn.metrics import roc_auc
from repro.nn.mlp import MLP


@given(st.integers(1, 32), st.integers(1, 16), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_embedding_forward_backward_shapes(batch, pooling, seed):
    rng = np.random.default_rng(seed)
    bag = EmbeddingBag(64, 8, rng)
    indices = [rng.integers(0, 64, size=pooling) for _ in range(batch)]
    out = bag.forward(indices)
    assert out.shape == (batch, 8)
    grad = bag.backward(np.ones((batch, 8)))
    assert grad.values.shape[1] == 8
    assert grad.nnz <= batch * pooling
    # Total gradient mass equals batch * pooling (each lookup contributes 1s).
    assert grad.values.sum() == float(batch * pooling * 8)


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@given(
    n=st.integers(0, 300),
    dim=st.integers(1, 33),
    num_rows=st.integers(1, 12),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_scatter_add_rows_is_bitwise_add_at(n, dim, num_rows, dtype, seed):
    """The element-indexed kernel adds each element's contributions in the
    row-indexed ``np.add.at`` order, so the bytes match over magnitudes
    where order matters: signed zeros and infinities included, and NaN in
    exactly the same elements.  Only a NaN's payload is exempt.  When two
    NaNs meet (``inf - inf`` yields x86's negative default NaN), which
    operand's payload survives is up to how numpy's compiled add loop
    orders the operands, and its row and 1-D ``ufunc.at`` loops differ."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, num_rows, size=n)  # at most 12 distinct rows
    wide = rng.standard_normal((n, 2 * dim)) * 10.0 ** rng.integers(-6, 7, (n, 2 * dim))
    special = rng.random(wide.shape) < 0.1
    wide[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    values = wide.astype(dtype)[:, ::2]  # strided: every other column
    start = np.where(rng.random((num_rows, dim)) < 0.5, -0.0, 0.0).astype(dtype)
    expected = start.copy()
    np.add.at(expected, rows, values)
    out = start.copy()
    scatter_add_rows(out, rows, values)
    assert np.array_equal(np.isnan(out), np.isnan(expected))
    out[np.isnan(out)] = expected[np.isnan(expected)] = np.nan
    assert out.tobytes() == expected.tobytes()


def test_scatter_add_rows_rejects_a_non_contiguous_output():
    """Flattening a non-C-contiguous array copies it: the adds would be lost."""
    values = np.ones((2, 3))
    for out in (np.zeros((4, 6))[:, ::2], np.zeros((4, 3), order="F")):
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(out, np.array([0, 1]), values)
        assert not out.any()


@given(st.integers(0, 1000), st.integers(1, 24))
@settings(max_examples=30, deadline=None)
def test_mlp_deterministic_given_seed(seed, batch):
    rng_data = np.random.default_rng(seed)
    x = rng_data.normal(size=(batch, 6))
    a = MLP([6, 12, 3], np.random.default_rng(seed))
    b = MLP([6, 12, 3], np.random.default_rng(seed))
    np.testing.assert_allclose(a.forward(x), b.forward(x))


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 2, size=64).astype(float)
    if targets.min() == targets.max():
        targets[0] = 1.0 - targets[0]
    scores = rng.normal(size=64)
    base = roc_auc(targets, scores)
    transformed = roc_auc(targets, 3.0 * scores + 7.0)
    np.testing.assert_allclose(base, transformed, atol=1e-12)
    sigmoid = roc_auc(targets, 1.0 / (1.0 + np.exp(-scores)))
    np.testing.assert_allclose(base, sigmoid, atol=1e-12)
