"""Unit tests for the TBSM dot-product attention."""

import numpy as np
import pytest

from repro.nn.attention import DotProductAttention
from tests.helpers import assert_gradients_close, numerical_gradient


def test_forward_shape(rng):
    attn = DotProductAttention()
    out = attn.forward(rng.normal(size=(4, 8)), rng.normal(size=(4, 5, 8)))
    assert out.shape == (4, 8)


def test_forward_is_convex_combination_of_sequence(rng):
    attn = DotProductAttention()
    sequence = rng.normal(size=(1, 3, 4))
    out = attn.forward(rng.normal(size=(1, 4)), sequence)
    # The context lies within the convex hull: its coordinates are bounded
    # by the min/max over the sequence vectors.
    assert np.all(out[0] <= sequence[0].max(axis=0) + 1e-12)
    assert np.all(out[0] >= sequence[0].min(axis=0) - 1e-12)


def test_uniform_sequence_returns_that_vector(rng):
    attn = DotProductAttention()
    vector = rng.normal(size=4)
    sequence = np.tile(vector, (1, 6, 1))
    out = attn.forward(rng.normal(size=(1, 4)), sequence)
    np.testing.assert_allclose(out[0], vector)


def test_invalid_shapes_raise(rng):
    attn = DotProductAttention()
    with pytest.raises(ValueError):
        attn.forward(rng.normal(size=(4, 8, 1)), rng.normal(size=(4, 5, 8)))


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        DotProductAttention().backward(np.ones((2, 4)))


def test_backward_query_gradient_matches_numeric(rng):
    attn = DotProductAttention()
    query = rng.normal(size=(2, 4))
    sequence = rng.normal(size=(2, 3, 4))

    def loss_fn(q):
        return float((attn.forward(q, sequence) ** 2).sum())

    out = attn.forward(query, sequence)
    grad_q, _ = attn.backward(2.0 * out)
    numeric = numerical_gradient(loss_fn, query)
    assert_gradients_close(grad_q, numeric, rtol=1e-4)


def test_backward_sequence_gradient_matches_numeric(rng):
    attn = DotProductAttention()
    query = rng.normal(size=(2, 4))
    sequence = rng.normal(size=(2, 3, 4))

    def loss_fn(seq):
        return float((attn.forward(query, seq) ** 2).sum())

    out = attn.forward(query, sequence)
    _, grad_seq = attn.backward(2.0 * out)
    numeric = numerical_gradient(loss_fn, sequence)
    assert_gradients_close(grad_seq, numeric, rtol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_and_backward_keep_the_input_dtype(rng, dtype):
    attn = DotProductAttention()
    query = rng.normal(size=(3, 8)).astype(dtype)
    sequence = rng.normal(size=(3, 5, 8)).astype(dtype)
    context = attn.forward(query, sequence)
    grad_query, grad_sequence = attn.backward(np.ones_like(context))
    assert context.dtype == dtype
    assert grad_query.dtype == dtype
    assert grad_sequence.dtype == dtype
