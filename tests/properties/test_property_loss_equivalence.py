"""Property-based tests of the paper's loss-decomposition argument (Eq. 1-5).

The core of Hotline's fidelity claim is that for *any* partition of a
mini-batch into two µ-batches, the summed BCE loss and the accumulated
gradients equal the single-shot computation.  Hypothesis explores random
logits, labels, and partitions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tests.oracle import bce_with_logits, bce_with_logits_backward


batch_sizes = st.integers(min_value=2, max_value=64)


@st.composite
def logits_labels_mask(draw):
    n = draw(batch_sizes)
    logits = draw(
        arrays(np.float64, n, elements=st.floats(-30, 30, allow_nan=False))
    )
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1))).astype(np.float64)
    mask = draw(arrays(np.bool_, n, elements=st.booleans()))
    return logits, labels, mask


@given(logits_labels_mask())
@settings(max_examples=100, deadline=None)
def test_loss_sum_decomposes_over_any_partition(data):
    logits, labels, mask = data
    total = bce_with_logits(logits, labels, reduction="sum")
    part = 0.0
    if mask.any():
        part += bce_with_logits(logits[mask], labels[mask], reduction="sum")
    if (~mask).any():
        part += bce_with_logits(logits[~mask], labels[~mask], reduction="sum")
    np.testing.assert_allclose(part, total, rtol=1e-12, atol=1e-12)


@given(logits_labels_mask())
@settings(max_examples=100, deadline=None)
def test_gradient_decomposes_over_any_partition(data):
    logits, labels, mask = data
    full_grad = bce_with_logits_backward(logits, labels, reduction="sum")
    pieced = np.zeros_like(full_grad)
    if mask.any():
        pieced[mask] = bce_with_logits_backward(logits[mask], labels[mask], reduction="sum")
    if (~mask).any():
        pieced[~mask] = bce_with_logits_backward(logits[~mask], labels[~mask], reduction="sum")
    np.testing.assert_allclose(pieced, full_grad, rtol=1e-12, atol=1e-12)


@given(logits_labels_mask())
@settings(max_examples=50, deadline=None)
def test_loss_is_non_negative(data):
    logits, labels, _ = data
    assert bce_with_logits(logits, labels, reduction="sum") >= 0.0
