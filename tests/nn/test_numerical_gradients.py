"""Finite-difference checks of manually-derived backward passes.

The parity suites prove the new kernels match the retained references
bit-for-bit (or to fp noise) — but a shared analytic error in both the
new and old derivation would pass every parity test.  These checks anchor
each backward against central finite differences of its own forward, so
the *math* is verified, not just the agreement.
"""

import numpy as np

from repro.nn.attention import DotProductAttention
from repro.nn.interaction import dot_interaction, dot_interaction_backward
from repro.nn.loss import bce_with_logits, fused_bce_epilogue
from tests.helpers import assert_gradients_close, numerical_gradient
from tests.oracle import reference_kernels


def _interaction_loss(dense, sparse):
    out, _ = dot_interaction(dense, sparse)
    # A non-symmetric weighting so gradient errors cannot cancel.
    weights = np.arange(1, out.size + 1, dtype=np.float64).reshape(out.shape)
    return float((weights * out).sum())


def _interaction_grads(dense, sparse):
    out, cache = dot_interaction(dense, sparse)
    weights = np.arange(1, out.size + 1, dtype=np.float64).reshape(out.shape)
    return dot_interaction_backward(weights, cache)


def test_interaction_backward_matches_finite_differences(rng):
    dense = rng.normal(size=(4, 6))
    sparse = [rng.normal(size=(4, 6)) for _ in range(3)]
    grad_dense, grad_sparse = _interaction_grads(dense, sparse)
    numeric_dense = numerical_gradient(lambda d: _interaction_loss(d, sparse), dense)
    assert_gradients_close(grad_dense, numeric_dense, rtol=1e-4)
    for t in range(len(sparse)):
        def loss_t(s, t=t):
            replaced = list(sparse)
            replaced[t] = s
            return _interaction_loss(dense, replaced)

        numeric = numerical_gradient(loss_t, sparse[t])
        assert_gradients_close(grad_sparse[t], numeric, rtol=1e-4)


def test_reference_interaction_backward_matches_finite_differences(rng):
    """The retained einsum backward is FD-checked independently."""
    dense = rng.normal(size=(3, 5))
    sparse = [rng.normal(size=(3, 5)) for _ in range(2)]
    with reference_kernels(loss=False):
        grad_dense, grad_sparse = _interaction_grads(dense, sparse)
        numeric_dense = numerical_gradient(
            lambda d: _interaction_loss(d, sparse), dense
        )
        numeric_sparse = numerical_gradient(
            lambda s: _interaction_loss(dense, [s, sparse[1]]), sparse[0]
        )
    assert_gradients_close(grad_dense, numeric_dense, rtol=1e-4)
    assert_gradients_close(grad_sparse[0], numeric_sparse, rtol=1e-4)


def _attention_loss(attention, query, sequence):
    context = attention.forward(query, sequence)
    weights = np.arange(1, context.size + 1, dtype=np.float64).reshape(context.shape)
    return float((weights * context).sum())


def test_attention_backward_query_matches_finite_differences(rng):
    attention = DotProductAttention()
    query = rng.normal(size=(3, 6))
    sequence = rng.normal(size=(3, 4, 6))
    context = attention.forward(query, sequence)
    weights = np.arange(1, context.size + 1, dtype=np.float64).reshape(context.shape)
    grad_query, _ = attention.backward(weights)
    probe = DotProductAttention()
    numeric = numerical_gradient(lambda q: _attention_loss(probe, q, sequence), query)
    assert_gradients_close(grad_query, numeric, rtol=1e-4)


def test_attention_backward_sequence_matches_finite_differences(rng):
    attention = DotProductAttention()
    query = rng.normal(size=(2, 5))
    sequence = rng.normal(size=(2, 3, 5))
    context = attention.forward(query, sequence)
    weights = np.arange(1, context.size + 1, dtype=np.float64).reshape(context.shape)
    _, grad_sequence = attention.backward(weights)
    probe = DotProductAttention()
    numeric = numerical_gradient(lambda s: _attention_loss(probe, query, s), sequence)
    assert_gradients_close(grad_sequence, numeric, rtol=1e-4)


def test_fused_epilogue_gradient_matches_finite_differences(rng):
    logits = rng.normal(scale=3.0, size=17)
    targets = (rng.uniform(size=17) < 0.5).astype(np.float64)
    _, grad = fused_bce_epilogue(logits, targets)
    numeric = numerical_gradient(
        lambda z: bce_with_logits(z, targets, reduction="sum"), logits
    )
    assert_gradients_close(grad, numeric, rtol=1e-4)
