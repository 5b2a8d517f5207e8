"""Unit tests for the MLP stack."""

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.mlp import MLP
from tests.helpers import assert_gradients_close, numerical_gradient


def test_mlp_requires_two_sizes(rng):
    with pytest.raises(ValueError):
        MLP([8], rng)


def test_mlp_backward_matches_numeric_on_inputs(rng):
    mlp = MLP([3, 6, 2], rng)
    x = rng.normal(size=(5, 3))

    def loss_fn(x_in):
        return float((mlp.forward(x_in) ** 2).sum())

    out = mlp.forward(x)
    grad_in = mlp.backward(2.0 * out)
    numeric = numerical_gradient(loss_fn, x)
    assert_gradients_close(grad_in, numeric, rtol=1e-3)


def test_mlp_backward_matches_numeric_on_weights(rng):
    mlp = MLP([3, 4, 1], rng)
    # The 1e-6 finite-difference step is below float32 resolution.
    for layer in mlp.layers:
        if isinstance(layer, Linear):
            for name in ("weight", "bias", "grad_weight", "grad_bias"):
                setattr(layer, name, getattr(layer, name).astype(np.float64))
    x = rng.normal(size=(6, 3))
    target_layer = mlp.layers[0]

    def loss_fn(_w):
        return float((mlp.forward(x) ** 2).sum())

    mlp.zero_grad()
    out = mlp.forward(x)
    mlp.backward(2.0 * out)
    numeric = numerical_gradient(loss_fn, target_layer.weight)
    assert_gradients_close(target_layer.grad_weight, numeric, rtol=1e-3)


def test_mlp_parameter_count(rng):
    mlp = MLP([4, 8, 2], rng)
    assert mlp.num_parameters == (4 * 8 + 8) + (8 * 2 + 2)


def test_mlp_zero_grad_resets_all_layers(rng):
    mlp = MLP([3, 5, 1], rng)
    x = rng.normal(size=(4, 3))
    out = mlp.forward(x)
    mlp.backward(np.ones_like(out))
    mlp.zero_grad()
    for param, grad in mlp.parameters():
        assert np.all(grad == 0.0)


def test_mlp_infer_is_forward_without_caches(rng):
    """``infer`` returns ``forward``'s bits and leaves every layer's cache
    as the last ``forward`` left it (here: unset)."""
    mlp = MLP([4, 8, 3], rng)
    x = rng.normal(size=(6, 4)).astype(np.float32)
    inferred = mlp.infer(x)
    assert all(
        getattr(layer, name, None) is None for layer in mlp.layers for name in ("_input", "_mask")
    )
    assert inferred.tobytes() == mlp.forward(x).tobytes()
