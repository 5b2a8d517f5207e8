"""The two differentiable layers of an MLP: Linear and ReLU.

Each layer exposes ``forward`` and ``backward``.  ``backward`` receives the
gradient with respect to the layer output and returns the gradient with
respect to its input, accumulating parameter gradients in ``grads``.
``infer`` returns ``forward``'s output from the same arithmetic, bit for
bit, but keeps nothing for a backward: evaluation runs through it, so it
never holds an activation and never overwrites the one a pending backward
reads.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init


class Linear:
    """Fully-connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.xavier_uniform(in_features, out_features, rng)
        self.bias = init.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine transform of a (batch, in_features) input."""
        self._input = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The affine transform without keeping the input."""
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate weight/bias gradients and return the input gradient."""
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight += self._input.T @ grad_output
        self.grad_bias += grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients."""
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs for the optimiser."""
        return [(self.weight, self.grad_weight), (self.bias, self.grad_bias)]

    @property
    def num_parameters(self) -> int:
        """Number of scalar parameters in this layer."""
        return self.weight.size + self.bias.size


class ReLU:
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Element-wise max(x, 0)."""
        self._mask = x > 0
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Element-wise max(x, 0) without keeping the mask."""
        return x * (x > 0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Pass gradient through where the input was positive."""
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask

    def zero_grad(self) -> None:
        """ReLU has no parameters; provided for interface uniformity."""

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """ReLU has no parameters."""
        return []

    @property
    def num_parameters(self) -> int:
        """ReLU has no parameters."""
        return 0
