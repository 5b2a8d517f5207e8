"""Unit tests for the Linear and ReLU layers, including gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU
from tests.helpers import assert_gradients_close, numerical_gradient


def test_linear_forward_shape(rng):
    layer = Linear(5, 3, rng)
    out = layer.forward(rng.normal(size=(7, 5)))
    assert out.shape == (7, 3)


def test_linear_forward_matches_manual(rng):
    layer = Linear(4, 2, rng)
    x = rng.normal(size=(3, 4))
    np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)


def test_linear_backward_weight_gradient_matches_numeric(rng):
    layer = Linear(4, 3, rng)
    # The 1e-6 finite-difference step is below float32 resolution.
    for name in ("weight", "bias", "grad_weight", "grad_bias"):
        setattr(layer, name, getattr(layer, name).astype(np.float64))
    x = rng.normal(size=(6, 4))

    def loss_fn(_w):
        return float((layer.forward(x) ** 2).sum())

    layer.zero_grad()
    out = layer.forward(x)
    layer.backward(2.0 * out)
    numeric = numerical_gradient(loss_fn, layer.weight)
    assert_gradients_close(layer.grad_weight, numeric)


def test_linear_backward_input_gradient_matches_numeric(rng):
    layer = Linear(4, 3, rng)
    x = rng.normal(size=(5, 4))

    def loss_fn(x_in):
        return float((layer.forward(x_in) ** 2).sum())

    out = layer.forward(x)
    grad_input = layer.backward(2.0 * out)
    numeric = numerical_gradient(loss_fn, x)
    assert_gradients_close(grad_input, numeric)


def test_linear_gradients_accumulate_across_backwards(rng):
    layer = Linear(3, 2, rng)
    x = rng.normal(size=(4, 3))
    layer.forward(x)
    layer.backward(np.ones((4, 2)))
    first = layer.grad_weight.copy()
    layer.forward(x)
    layer.backward(np.ones((4, 2)))
    np.testing.assert_allclose(layer.grad_weight, 2.0 * first)


def test_linear_zero_grad_resets(rng):
    layer = Linear(3, 2, rng)
    layer.forward(rng.normal(size=(4, 3)))
    layer.backward(np.ones((4, 2)))
    layer.zero_grad()
    assert np.all(layer.grad_weight == 0.0)
    assert np.all(layer.grad_bias == 0.0)


def test_linear_backward_before_forward_raises(rng):
    layer = Linear(3, 2, rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((4, 2)))


def test_relu_forward_clamps_negatives(rng):
    relu = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]])
    np.testing.assert_allclose(relu.forward(x), [[0.0, 0.0, 2.0]])


def test_relu_backward_masks_gradient(rng):
    relu = ReLU()
    x = np.array([[-1.0, 3.0]])
    relu.forward(x)
    grad = relu.backward(np.array([[5.0, 5.0]]))
    np.testing.assert_allclose(grad, [[0.0, 5.0]])


def test_relu_has_no_parameters():
    assert ReLU().parameters() == []
    assert ReLU().num_parameters == 0


def test_layer_parameter_counts(rng):
    layer = Linear(10, 5, rng)
    assert layer.num_parameters == 10 * 5 + 5
