"""Time-Based Sequence Model (TBSM) in numpy.

TBSM (the paper's RM1, trained on Taobao Alibaba) augments a DLRM-style
block with an attention layer over a history of item embeddings.  Our
implementation treats the lookups of the first sparse feature (the item
table) as the user's interaction history: each lookup becomes one step of
the sequence, a dot-product attention attends the dense context vector over
that sequence, and the top MLP combines the attention context with the
pooled embeddings of the remaining features.

This preserves the structural properties the paper relies on — an
attention layer on top of embedding lookups, a small dense network, and
Zipf-skewed item accesses — while remaining trainable in numpy.  Everything
but that feature layer is :class:`~repro.models.dlrm.RecommendationModel`'s.
"""

from __future__ import annotations

import numpy as np

from repro.models.configs import ModelConfig
from repro.models.dlrm import RecommendationModel
from repro.nn.attention import DotProductAttention


class TBSM(RecommendationModel):
    """TBSM: an attention over table 0's lookups beside the other tables'
    pooled embeddings."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        if not config.uses_attention:
            raise ValueError("TBSM requires a configuration with uses_attention=True")
        super().__init__(config, seed)
        self.attention = DotProductAttention()

    def _feature_width(self) -> int:
        # Attention context + bottom output + pooled embeddings of the
        # non-history tables.
        return self.config.embedding_dim * (1 + self.config.num_sparse_features)

    def _embed(self, sparse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _split_lookup(self.embedding.lookup(sparse))

    def _features(
        self, dense_out: np.ndarray, sequence: np.ndarray, pooled: np.ndarray
    ) -> tuple[np.ndarray, None]:
        # The attention keeps its own cache for the backward.
        context = self.attention.forward(dense_out, sequence)
        return np.concatenate([context, dense_out, pooled], axis=1), None

    def _features_backward(self, grad_features: np.ndarray, _cache: None):
        dim = self.config.embedding_dim
        grad_query, grad_sequence = self.attention.backward(grad_features[:, :dim])
        return (
            grad_query + grad_features[:, dim : 2 * dim],
            _lookup_gradients(grad_sequence, grad_features[:, 2 * dim :]),
        )

    def _infer_features(self, dense_out: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        sequence, pooled = _split_lookup(self.embedding.gather(sparse))
        context = self.attention.infer(dense_out, sequence)
        return np.concatenate([context, dense_out, pooled], axis=1)


def _split_lookup(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The history sequence ``(batch, steps, dim)`` and the pooled tables'
    embeddings side by side ``(batch, (tables - 1) * dim)`` of a
    ``(batch, tables, steps, dim)`` lookup.

    The sequence, one embedding vector per lookup of table 0, is a copy
    (the attention caches it for the backward), so the caller's lookup
    dies here: neither result keeps every table's unpooled rows alive.
    """
    batch, tables, _steps, dim = rows.shape
    return rows[:, 0].copy(), rows[:, 1:].sum(axis=2).reshape(batch, (tables - 1) * dim)


def _lookup_gradients(grad_sequence: np.ndarray, grad_other: np.ndarray) -> np.ndarray:
    """Every lookup's gradient, ``(rows, tables, steps, dim)``: the history
    table's per-step gradients beside the pooled tables' gradients
    ``(rows, (tables - 1) * dim)``, repeated over the pooling width."""
    rows, steps, dim = grad_sequence.shape
    pooled_tables = grad_other.shape[1] // dim
    grads = np.empty((rows, 1 + pooled_tables, steps, dim), dtype=grad_sequence.dtype)
    grads[:, 0] = grad_sequence
    grads[:, 1:] = grad_other.reshape(rows, pooled_tables, 1, dim)
    return grads
