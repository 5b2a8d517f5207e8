"""Dot-product attention used by the Time-Based Sequence Model (TBSM).

TBSM (RM1 in the paper) runs a DLRM-like block per time step and combines
the per-step context vectors with an attention layer before the final MLP.
This module implements a batched scaled dot-product attention with a full
manual backward pass.
"""

from __future__ import annotations

import math

import numpy as np


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class DotProductAttention:
    """Scaled dot-product attention of a query over a sequence of vectors."""

    def __init__(self) -> None:
        self._cache: dict | None = None

    def forward(self, query: np.ndarray, sequence: np.ndarray) -> np.ndarray:
        """Attend ``query`` (batch, dim) over ``sequence`` (batch, steps, dim).

        Returns the context vector of shape (batch, dim).
        """
        context, weights, root_dim = self._attend(query, sequence)
        self._cache = {
            "query": query,
            "sequence": sequence,
            "weights": weights,
            "scale": 1.0 / root_dim,
        }
        return context

    def infer(self, query: np.ndarray, sequence: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s context, caching nothing for a backward."""
        return self._attend(query, sequence)[0]

    @staticmethod
    def _attend(query: np.ndarray, sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The context, the attention weights and ``sqrt(dim)``."""
        if query.ndim != 2 or sequence.ndim != 3:
            raise ValueError("query must be (batch, dim) and sequence (batch, steps, dim)")
        # A Python float, not ``np.sqrt``'s float64 scalar, so float32
        # inputs keep their dtype through forward and backward.
        root_dim = math.sqrt(query.shape[1])
        scores = np.einsum("bd,btd->bt", query, sequence) / root_dim
        weights = _softmax(scores, axis=1)
        context = np.einsum("bt,btd->bd", weights, sequence)
        return context, weights, root_dim

    def backward(self, grad_context: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate through the attention.

        Returns gradients w.r.t. the query and the sequence.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        query = self._cache["query"]
        sequence = self._cache["sequence"]
        weights = self._cache["weights"]
        scale = self._cache["scale"]

        grad_weights = np.einsum("bd,btd->bt", grad_context, sequence)
        grad_sequence = np.einsum("bt,bd->btd", weights, grad_context)

        # Softmax backward: dL/ds_t = w_t * (g_t - sum_k w_k g_k)
        weighted_sum = (grad_weights * weights).sum(axis=1, keepdims=True)
        grad_scores = weights * (grad_weights - weighted_sum)

        grad_query = np.einsum("bt,btd->bd", grad_scores, sequence) * scale
        grad_sequence += np.einsum("bt,bd->btd", grad_scores, query) * scale
        return grad_query, grad_sequence
