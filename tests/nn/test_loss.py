"""Unit tests for the BCE-with-logits loss (Eq. 1-2 of the paper): the fused
epilogue training runs, and the test oracle's two-pass reference it
reproduces bit for bit."""

import numpy as np
import pytest

from repro.nn.loss import fused_bce_epilogue, predicted_probabilities
from tests.oracle import (
    bce_with_logits,
    bce_with_logits_backward,
    bce_with_logits_per_sample,
    reference_epilogue,
)


def test_matches_reference_formula(rng):
    logits = rng.normal(size=32)
    targets = (rng.uniform(size=32) < 0.4).astype(float)
    p = 1.0 / (1.0 + np.exp(-logits))
    reference = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).sum()
    assert bce_with_logits(logits, targets, reduction="sum") == pytest.approx(reference)


def test_mean_reduction_is_sum_over_n(rng):
    logits = rng.normal(size=16)
    targets = (rng.uniform(size=16) < 0.5).astype(float)
    total = bce_with_logits(logits, targets, reduction="sum")
    mean = bce_with_logits(logits, targets, reduction="mean")
    assert mean == pytest.approx(total / 16)


def test_sum_decomposes_over_micro_batches(rng):
    """Eq. 5: L(M) == L(O) + L(X) for any partition of the mini-batch."""
    logits = rng.normal(size=64)
    targets = (rng.uniform(size=64) < 0.3).astype(float)
    mask = rng.uniform(size=64) < 0.7
    total = bce_with_logits(logits, targets)
    split = bce_with_logits(logits[mask], targets[mask]) + bce_with_logits(
        logits[~mask], targets[~mask]
    )
    assert total == pytest.approx(split)


def test_extreme_logits_are_finite():
    loss = bce_with_logits(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
    assert np.isfinite(loss)


def test_gradient_is_sigmoid_minus_target(rng):
    logits = rng.normal(size=8)
    targets = (rng.uniform(size=8) < 0.5).astype(float)
    grad = bce_with_logits_backward(logits, targets)
    np.testing.assert_allclose(grad, 1.0 / (1.0 + np.exp(-logits)) - targets)


def test_gradient_matches_numeric(rng):
    logits = rng.normal(size=6)
    targets = (rng.uniform(size=6) < 0.5).astype(float)
    grad = bce_with_logits_backward(logits, targets)
    eps = 1e-6
    for i in range(6):
        bumped = logits.copy()
        bumped[i] += eps
        dipped = logits.copy()
        dipped[i] -= eps
        numeric = (bce_with_logits(bumped, targets) - bce_with_logits(dipped, targets)) / (2 * eps)
        assert grad[i] == pytest.approx(numeric, rel=1e-4)


def test_shape_mismatch_raises(rng):
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(3), np.zeros(4))


def test_unknown_reduction_raises():
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(2), np.zeros(2), reduction="median")
    with pytest.raises(ValueError):
        bce_with_logits_backward(np.zeros(2), np.zeros(2), reduction="median")


def test_predicted_probabilities_in_unit_interval(rng):
    probs = predicted_probabilities(rng.normal(scale=20, size=50))
    assert np.all((probs >= 0) & (probs <= 1))


def test_per_sample_is_an_array_and_sums_to_the_loss(rng):
    logits = rng.normal(size=24)
    targets = (rng.uniform(size=24) < 0.4).astype(float)
    per_sample = bce_with_logits_per_sample(logits, targets)
    assert isinstance(per_sample, np.ndarray) and per_sample.shape == (24,)
    assert float(per_sample.sum()) == bce_with_logits(logits, targets, reduction="sum")


def test_none_reduction_is_rejected():
    """'none' moved to bce_with_logits_per_sample — the scalar API rejects it."""
    with pytest.raises(ValueError):
        bce_with_logits(np.zeros(2), np.zeros(2), reduction="none")


def test_fused_epilogue_bitwise_matches_reference(rng):
    logits = np.concatenate(
        [rng.normal(scale=4.0, size=64), np.array([0.0, 1e4, -1e4, 700.0, -700.0])]
    )
    targets = (rng.uniform(size=logits.size) < 0.5).astype(float)
    loss_new, grad_new = fused_bce_epilogue(logits, targets)
    loss_ref, grad_ref = reference_epilogue(logits, targets)
    assert loss_new == loss_ref  # exact — no approx
    assert np.array_equal(grad_new, grad_ref)


def test_fused_epilogue_decomposes_over_micro_batches(rng):
    """Eq. 5 holds through the fused kernel too."""
    logits = rng.normal(size=48)
    targets = (rng.uniform(size=48) < 0.3).astype(float)
    mask = rng.uniform(size=48) < 0.6
    loss_all, grad_all = fused_bce_epilogue(logits, targets)
    loss_a, grad_a = fused_bce_epilogue(logits[mask], targets[mask])
    loss_b, grad_b = fused_bce_epilogue(logits[~mask], targets[~mask])
    assert loss_all == pytest.approx(loss_a + loss_b)
    assert np.array_equal(grad_all[mask], grad_a)
    assert np.array_equal(grad_all[~mask], grad_b)


def test_fused_epilogue_keeps_float32_native(rng):
    logits = rng.normal(size=16).astype(np.float32)
    targets = (rng.uniform(size=16) < 0.5).astype(np.float32)
    _, grad = fused_bce_epilogue(logits, targets)
    assert grad.dtype == np.float32


def test_fused_epilogue_shape_mismatch_raises():
    with pytest.raises(ValueError):
        fused_bce_epilogue(np.zeros(3), np.zeros(4))
