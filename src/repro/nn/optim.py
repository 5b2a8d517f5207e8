"""Optimisers: dense SGD/Adagrad and their sparse (row-wise) counterparts.

Recommendation-model training treats dense parameters (MLP weights) and
sparse parameters (embedding rows) differently: dense parameters are updated
with a regular optimiser after a gradient all-reduce, whereas embedding rows
are updated sparsely, only for rows touched by the mini-batch.  Hotline
updates popular rows on the GPU copy and non-popular rows in CPU DRAM, but
the *values* applied are identical to the baseline — which these optimisers
make easy to verify.
"""

from __future__ import annotations

import numpy as np

from repro.nn.embedding import EmbeddingBag, SparseGradient


class SGD:
    """Plain stochastic gradient descent over (param, grad) pairs."""

    def __init__(self, lr: float = 0.01):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one in-place update to every (param, grad) pair."""
        for param, grad in parameters:
            param -= self.lr * grad


class Adagrad:
    """Adagrad for dense parameters (per-element adaptive learning rate)."""

    def __init__(self, lr: float = 0.01, eps: float = 1e-10):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.eps = eps
        self._state: dict[int, np.ndarray] = {}

    def step(self, parameters: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one Adagrad update to every (param, grad) pair."""
        for param, grad in parameters:
            key = id(param)
            if key not in self._state:
                self._state[key] = np.zeros_like(param)
            accum = self._state[key]
            accum += grad * grad
            param -= self.lr * grad / (np.sqrt(accum) + self.eps)


class SparseSGD:
    """Row-wise SGD for a table-batched :class:`EmbeddingBag`."""

    def __init__(self, lr: float = 0.01):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def step(self, bag: EmbeddingBag, grad: SparseGradient) -> None:
        """Update only the rows keyed in the flat-keyed ``grad``."""
        bag.apply_sparse_update(grad, self.lr)


class SparseAdagrad:
    """Row-wise Adagrad for a table-batched :class:`EmbeddingBag` (DLRM's
    default sparse optimiser): one squared-gradient sum per weight row."""

    def __init__(self, lr: float = 0.01, eps: float = 1e-10):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.eps = eps
        self._state: dict[int, np.ndarray] = {}

    def step(self, bag: EmbeddingBag, grad: SparseGradient) -> None:
        """Adagrad update of only the rows keyed in the flat-keyed ``grad``."""
        if grad.nnz == 0:
            return
        key = id(bag)
        if key not in self._state:
            self._state[key] = np.zeros(bag.num_rows, dtype=bag.weight.dtype)
        accum = self._state[key]
        row_sq = (grad.values * grad.values).sum(axis=1)
        accum[grad.indices] += row_sq
        scale = self.lr / (np.sqrt(accum[grad.indices]) + self.eps)
        bag.weight[grad.indices] -= scale[:, None] * grad.values
