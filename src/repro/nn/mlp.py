"""Multi-layer perceptron built from Linear + ReLU layers.

DLRM and TBSM describe their dense networks as layer-size strings such as
``"13-512-256-64-16"`` (bottom MLP) and ``"512-256-1"`` (top MLP).  The MLP
here accepts the equivalent list of sizes and mirrors the reference
behaviour: ReLU between hidden layers and none after the final layer, whose
output (the top MLP's CTR logit) the loss epilogue takes as it is.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, ReLU


class MLP:
    """A stack of fully-connected layers with ReLU activations."""

    def __init__(self, layer_sizes: list[int], rng: np.random.Generator):
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least an input and an output size")
        self.layer_sizes = list(layer_sizes)
        self.layers: list[Linear | ReLU] = []
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:], strict=True)):
            self.layers.append(Linear(fan_in, fan_out, rng))
            if i != len(layer_sizes) - 2:
                self.layers.append(ReLU())

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the input through every layer."""
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s output without caching any activation."""
        out = x
        for layer in self.layers:
            out = layer.infer(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through the stack, returning the input gradient."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        """Reset gradients in all layers."""
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs for all layers."""
        params: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(layer.num_parameters for layer in self.layers)
