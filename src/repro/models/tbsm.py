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
Zipf-skewed item accesses — while remaining trainable in numpy.
"""

from __future__ import annotations

import numpy as np

from repro.data.batch import MiniBatch
from repro.models.configs import ModelConfig
from repro.nn.attention import DotProductAttention
from repro.nn.gemm import PackedMLP, infer_in_blocks, segment_bounds
from repro.nn.embedding import EmbeddingBag, SparseGradient, segment_ids_for
from repro.nn.loss import fused_bce_epilogue, predicted_probabilities
from repro.nn.mlp import MLP


class TBSM:
    """Trainable TBSM instance for a given :class:`ModelConfig`."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        if not config.uses_attention:
            raise ValueError("TBSM requires a configuration with uses_attention=True")
        self.config = config
        rng = np.random.default_rng(seed)
        bottom_sizes = [int(tok) for tok in config.bottom_mlp.split("-")]
        if bottom_sizes[0] != config.num_dense_features:
            raise ValueError("bottom MLP input size must match the dense feature count")
        if bottom_sizes[-1] != config.embedding_dim:
            raise ValueError("bottom MLP output size must equal the embedding dimension")
        self.bottom_mlp = MLP(bottom_sizes, rng)
        #: Every sparse feature's table, in one table-batched bag.
        self.embedding = EmbeddingBag(config.dataset.rows_per_table, config.embedding_dim, rng)
        self.attention = DotProductAttention()
        # Top MLP input: attention context + bottom output + pooled embeddings
        # of the non-history tables.
        top_hidden = [int(tok) for tok in config.top_mlp.split("-")]
        top_input = config.embedding_dim * (1 + 1 + (config.num_sparse_features - 1))
        self.top_mlp = MLP([top_input] + top_hidden, rng)
        self._packed_bottom = PackedMLP(self.bottom_mlp)
        self._packed_top = PackedMLP(self.top_mlp)

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Compute CTR logits, shape (batch,)."""
        # Both input checks run before the gather touches the tier and
        # before any layer caches this batch.
        self.config.check_dense(batch.dense)
        sequence, pooled = _split_lookup(self.embedding.lookup(batch.sparse))
        dense_out = self.bottom_mlp.forward(batch.dense)
        context = self.attention.forward(dense_out, sequence)
        features = np.concatenate([context, dense_out, pooled], axis=1)
        return self.top_mlp.forward(features).reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> SparseGradient:
        """Backpropagate logit gradients; returns the flat-keyed sparse
        gradient (:meth:`EmbeddingBag.backward`)."""
        dim = self.config.embedding_dim
        grad_features = self.top_mlp.backward(grad_logits.reshape(-1, 1))
        grad_query, grad_sequence = self.attention.backward(grad_features[:, :dim])
        self.bottom_mlp.backward(grad_query + grad_features[:, dim : 2 * dim])
        return self.embedding.backward(
            _lookup_gradients(grad_sequence, grad_features[:, 2 * dim :])
        )

    def zero_grad(self) -> None:
        """Reset accumulated dense gradients."""
        self.bottom_mlp.zero_grad()
        self.top_mlp.zero_grad()

    def loss_and_gradients(
        self, batch: MiniBatch, normalizer: float | None = None
    ) -> tuple[float, SparseGradient]:
        """Forward + backward with a sum-reduced BCE loss.

        ``normalizer`` divides the gradients (typically the full mini-batch
        size); see :meth:`repro.models.dlrm.DLRM.loss_and_gradients`.
        """
        logits = self.forward(batch)
        loss, grad_logits = fused_bce_epilogue(logits, batch.labels)
        if normalizer is not None:
            if normalizer <= 0:
                raise ValueError("normalizer must be positive")
            grad_logits = grad_logits / normalizer
        sparse_grads = self.backward(grad_logits)
        return loss, sparse_grads

    def fused_loss_and_gradients(
        self,
        batch: MiniBatch,
        segments: list[np.ndarray],
        normalizer: float | None = None,
    ) -> tuple[list[float], list[SparseGradient]]:
        """Train a mini-batch's µ-batches with fused embedding traffic.

        One gather reads the history sequences and every pooled table's
        rows over the whole mini-batch's contiguous block; the
        attention/MLP passes run once over the segment-packed rows, and
        every µ-batch's flat-keyed sparse gradient comes out of one
        :meth:`~repro.nn.embedding.EmbeddingBag.backward_segments` scatter
        over the whole ``(batch, tables, pooling)`` block — everything
        returned is bit-identical to sequential :meth:`loss_and_gradients`
        calls (the test oracle's ``SequentialTBSM``).  See
        :meth:`repro.models.dlrm.DLRM.fused_loss_and_gradients` for the
        argument contract (returns per-segment losses and per-segment
        flat-keyed gradients).
        """
        segments = [np.asarray(idx, dtype=np.int64) for idx in segments]
        if not segments:
            return [], []
        if any(idx.size == 0 for idx in segments):
            raise ValueError("fused segments must be non-empty")
        if normalizer is not None and normalizer <= 0:
            raise ValueError("normalizer must be positive")
        segment_ids_for(segments, batch.size)  # the segments must partition the batch
        self.config.check_dense(batch.dense)
        sequence, pooled = _split_lookup(self.embedding.lookup(batch.sparse))
        perm = segments[0] if len(segments) == 1 else np.concatenate(segments)
        losses, grad_sequence, grad_other = self._packed_dense_pass(
            batch, segments, perm, normalizer, sequence, pooled
        )
        return losses, self.embedding.backward_segments(
            _lookup_gradients(grad_sequence, grad_other), segments
        )

    def _packed_dense_pass(
        self, batch, segments, perm, normalizer, sequence, pooled
    ) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Segment-packed dense pass (MLPs, attention, loss) for TBSM.

        Same contract as :meth:`repro.models.dlrm.DLRM._packed_dense_pass`
        — one GEMM per layer per step, per-segment quantities recovered by
        row slicing, bit-identical to per-segment calls.  The attention
        einsums and softmax are per-row, so they pack without
        certification — but only because the attention keeps its input
        dtype: a context promoted to float64 would run the top MLP's GEMMs
        at float64, while their certification is keyed by the weights'
        float32.  Returns the losses, the history sequence's gradient
        ``(rows, steps, dim)`` and the pooled tables' gradients
        ``(rows, (tables - 1) * dim)``, in packed row order.
        """
        dim = self.config.embedding_dim
        bounds = segment_bounds(segments)
        dense_out = self._packed_bottom.forward(batch.dense[perm], bounds)
        context = self.attention.forward(dense_out, sequence[perm])
        features = np.concatenate([context, dense_out, pooled[perm]], axis=1)
        if self._packed_top.has_logit_epilogue:
            # Deferred-bias epilogue — see the DLRM packed pass.
            logits = self._packed_top.forward_prelogits(features, bounds)
            logits = logits + self._packed_top.logit_bias
        else:
            logits = self._packed_top.forward(features, bounds).reshape(-1)
        labels = batch.labels[perm]
        losses: list[float] = []
        grad_logits = np.empty_like(logits)
        for lo, hi in bounds:
            loss, seg_grad = fused_bce_epilogue(logits[lo:hi], labels[lo:hi])
            losses.append(loss)
            grad_logits[lo:hi] = seg_grad
        if normalizer is not None:
            # Whole-block elementwise division == per-segment slices, bitwise.
            grad_logits /= normalizer
        grad_features = self._packed_top.backward(grad_logits.reshape(-1, 1), bounds)
        grad_context = grad_features[:, :dim]
        grad_dense_direct = grad_features[:, dim : 2 * dim]
        grad_query, grad_sequence = self.attention.backward(grad_context)
        # The bottom MLP's input gradient is discarded — skip its GEMM.
        self._packed_bottom.backward(
            grad_query + grad_dense_direct, bounds, need_input_grad=False
        )
        for lo, hi in bounds:
            self._packed_top.accumulate_segment(lo, hi)
            self._packed_bottom.accumulate_segment(lo, hi)
        return losses, grad_sequence, grad_features[:, 2 * dim :]

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Predicted click probabilities for a batch: the inference forward.

        The arithmetic of :meth:`forward`, bit for bit, scored in certified
        256-row blocks (:func:`~repro.nn.gemm.infer_in_blocks`), so only
        one block's history sequences are live at a time; RM1's logit
        layer, which never certifies, runs once over all rows.  Nothing is
        stored on the model (no layer or attention caches, no lookup
        indices), so a ``predict`` between a forward and its backward
        leaves the gradients as they were.  Rows are read with
        :meth:`~repro.nn.embedding.EmbeddingBag.gather`, which does not
        touch an attached tier.  The dense width is checked before the
        first block.
        """
        self.config.check_dense(batch.dense)

        def features(dense_out: np.ndarray, lo: int, hi: int) -> np.ndarray:
            sequence, pooled = _split_lookup(self.embedding.gather(batch.sparse[lo:hi]))
            context = self.attention.infer(dense_out, sequence)
            return np.concatenate([context, dense_out, pooled], axis=1)

        logits = infer_in_blocks(self.bottom_mlp, self.top_mlp, batch.dense, features)
        return predicted_probabilities(logits.reshape(-1))

    def dense_parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs of both MLPs."""
        return self.bottom_mlp.parameters() + self.top_mlp.parameters()

    def apply_dense_update(self, lr: float) -> None:
        """SGD update of the MLP parameters using accumulated gradients."""
        for param, grad in self.dense_parameters():
            param -= lr * grad

    def apply_sparse_updates(self, grad: SparseGradient, lr: float) -> None:
        """SGD update of every embedding table from one flat-keyed gradient.

        Raises :class:`ValueError` on a key outside the model's key space.
        """
        self.embedding.apply_sparse_update(grad, lr)

    def train_step(self, batch: MiniBatch, lr: float = 0.01) -> float:
        """One baseline training step with mini-batch-mean gradients."""
        self.zero_grad()
        loss, sparse_grads = self.loss_and_gradients(batch, normalizer=batch.size)
        self.apply_dense_update(lr)
        self.apply_sparse_updates(sparse_grads, lr)
        return loss

    @property
    def num_dense_parameters(self) -> int:
        """Scalar parameter count of the MLPs."""
        return self.bottom_mlp.num_parameters + self.top_mlp.num_parameters

    @property
    def num_sparse_parameters(self) -> int:
        """Scalar parameter count of the embedding tables."""
        return self.embedding.num_parameters

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of every parameter (used by equivalence tests)."""
        state: dict[str, np.ndarray] = {}
        for i, (param, _grad) in enumerate(self.dense_parameters()):
            state[f"dense_{i}"] = param.copy()
        for i in range(self.embedding.num_tables):
            state[f"table_{i}"] = self.embedding.table(i).copy()
        return state


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
