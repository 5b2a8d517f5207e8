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
from repro.nn.gemm import PackedMLP, segment_bounds
from repro.nn.embedding import (
    EmbeddingBag,
    SparseGradient,
    join_tables,
    key_offsets,
    scatter_add_rows,
    segment_ids_for,
    segmented_scatter,
    split_by_table,
)
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
        self.tables: list[EmbeddingBag] = [
            EmbeddingBag(rows, config.embedding_dim, rng, name=f"table_{i}")
            for i, rows in enumerate(config.dataset.rows_per_table)
        ]
        #: Start of each table in the flat key space of the sparse gradients.
        self._offsets = key_offsets(config.dataset.rows_per_table)
        self.attention = DotProductAttention()
        # Top MLP input: attention context + bottom output + pooled embeddings
        # of the non-history tables.
        top_hidden = [int(tok) for tok in config.top_mlp.split("-")]
        top_input = config.embedding_dim * (1 + 1 + (config.num_sparse_features - 1))
        self.top_mlp = MLP([top_input] + top_hidden, rng)
        self._cache: dict | None = None
        self._packed_bottom = PackedMLP(self.bottom_mlp)
        self._packed_top = PackedMLP(self.top_mlp)

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Compute CTR logits, shape (batch,)."""
        if batch.num_tables != len(self.tables):
            raise ValueError("batch sparse-feature count does not match the model")
        dense_out = self.bottom_mlp.forward(batch.dense)

        # History sequence: one embedding vector per lookup of table 0.
        history_table = self.tables[0]
        history_indices = batch.sparse[:, 0, :]  # (batch, steps)
        steps = history_indices.shape[1]
        sequence = history_table.lookup(history_indices)  # (batch, steps, dim)
        context = self.attention.forward(dense_out, sequence)

        other_outputs = [
            table.forward(batch.sparse[:, t, :])
            for t, table in enumerate(self.tables)
            if t != 0
        ]
        features = np.concatenate([context, dense_out] + other_outputs, axis=1)
        logits = self.top_mlp.forward(features)
        self._cache = {
            "history_indices": history_indices,
            "steps": steps,
            "batch_size": batch.size,
        }
        return logits.reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> SparseGradient:
        """Backpropagate logit gradients; returns the flat-keyed sparse
        gradient (the per-table gradients, relabelled)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        dim = self.config.embedding_dim
        grad_features = self.top_mlp.backward(grad_logits.reshape(-1, 1))
        grad_context = grad_features[:, :dim]
        grad_dense_direct = grad_features[:, dim : 2 * dim]
        grad_other = grad_features[:, 2 * dim :]

        grad_query, grad_sequence = self.attention.backward(grad_context)
        self.bottom_mlp.backward(grad_query + grad_dense_direct)

        # History-table sparse gradient: each step's gradient flows to the
        # row looked up at that step.
        history_indices = self._cache["history_indices"]
        flat_indices = history_indices.reshape(-1)
        flat_grads = grad_sequence.reshape(-1, dim)
        unique, inverse = np.unique(flat_indices, return_inverse=True)
        values = np.zeros((unique.shape[0], dim), dtype=flat_grads.dtype)
        scatter_add_rows(values, inverse, flat_grads)
        sparse_grads: list[SparseGradient] = [SparseGradient(unique, values)]

        offset = 0
        for t, table in enumerate(self.tables):
            if t == 0:
                continue
            grad_slice = grad_other[:, offset : offset + dim]
            sparse_grads.append(table.backward(grad_slice))
            offset += dim
        return join_tables(sparse_grads, self.config.dataset.rows_per_table)

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

        The history table's sequence gather and every pooled table's lookup
        run **once** over the whole mini-batch's contiguous blocks; the
        attention/MLP passes run once over the segment-packed rows, and
        every µ-batch's flat-keyed sparse gradient comes out of one
        :func:`~repro.nn.embedding.segmented_scatter` over the whole
        ``(batch, tables, pooling)`` block — everything returned is
        bit-identical to sequential :meth:`loss_and_gradients` calls (the
        test oracle's ``SequentialTBSM``).  See
        :meth:`repro.models.dlrm.DLRM.fused_loss_and_gradients` for the
        argument contract (returns per-segment losses and per-segment
        flat-keyed gradients).
        """
        num_tables = len(self.tables)
        if batch.num_tables != num_tables:
            raise ValueError("batch sparse-feature count does not match the model")
        segments = [np.asarray(idx, dtype=np.int64) for idx in segments]
        if not segments:
            return [], []
        if any(idx.size == 0 for idx in segments):
            raise ValueError("fused segments must be non-empty")
        if normalizer is not None and normalizer <= 0:
            raise ValueError("normalizer must be positive")
        dim = self.config.embedding_dim
        segment_ids_for(segments, batch.size)  # the segments must partition the batch
        # History sequences: one unpooled lookup over the batch's block.
        sequence_all = self.tables[0].lookup(batch.sparse[:, 0, :])
        pooled = {
            t: self.tables[t].forward(batch.sparse[:, t, :])
            for t in range(1, num_tables)
        }
        perm = segments[0] if len(segments) == 1 else np.concatenate(segments)
        losses, grad_sequence, grad_other = self._packed_dense_pass(
            batch, segments, perm, normalizer, sequence_all, pooled
        )
        # Every lookup's gradient in segment-packed (row, table, step)
        # order: the history table's per-step gradients beside the pooled
        # tables' gradients repeated over the pooling width.  One scatter
        # then sums each key as the per-table, per-µ-batch scatter does.
        rows, steps = grad_sequence.shape[:2]
        grads = np.empty((rows, num_tables, steps, dim), dtype=grad_sequence.dtype)
        grads[:, 0] = grad_sequence
        grads[:, 1:] = grad_other.reshape(rows, num_tables - 1, 1, dim)
        keys = batch.sparse[perm] + self._offsets[:, None]
        lookups = num_tables * steps
        partials = segmented_scatter(
            keys.reshape(-1),
            grads.reshape(-1, dim),
            np.repeat(np.arange(len(segments)), [idx.size * lookups for idx in segments]),
            len(segments),
            self.config.dataset.total_rows,
            dim,
        )
        return losses, partials

    def _packed_dense_pass(
        self, batch, segments, perm, normalizer, sequence_all, pooled
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
        num_tables = len(self.tables)
        dim = self.config.embedding_dim
        bounds = segment_bounds(segments)
        dense_out = self._packed_bottom.forward(batch.dense[perm], bounds)
        context = self.attention.forward(dense_out, sequence_all[perm])
        other_outputs = [pooled[t][perm] for t in range(1, num_tables)]
        features = np.concatenate([context, dense_out] + other_outputs, axis=1)
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

        The arithmetic of :meth:`forward`, bit for bit, but nothing is
        stored on the model (no layer or attention caches, no history
        indices, no table's last indices), so a ``predict`` between a
        forward and its backward leaves the gradients as they were.  Rows
        are read with :meth:`~repro.nn.embedding.EmbeddingBag.gather`,
        which does not touch an attached tier.
        """
        if batch.num_tables != len(self.tables):
            raise ValueError("batch sparse-feature count does not match the model")
        dense_out = self.bottom_mlp.infer(batch.dense)
        sequence = self.tables[0].gather(batch.sparse[:, 0, :])
        context = self.attention.infer(dense_out, sequence)
        other_outputs = [
            table.gather(batch.sparse[:, t, :]).sum(axis=1)
            for t, table in enumerate(self.tables)
            if t != 0
        ]
        features = np.concatenate([context, dense_out] + other_outputs, axis=1)
        return predicted_probabilities(self.top_mlp.infer(features).reshape(-1))

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
        parts = split_by_table(grad, self.config.dataset.rows_per_table)
        for table, part in zip(self.tables, parts, strict=True):
            table.apply_sparse_update(part, lr)

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
        return sum(table.num_parameters for table in self.tables)

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of every parameter (used by equivalence tests)."""
        state: dict[str, np.ndarray] = {}
        for i, (param, _grad) in enumerate(self.dense_parameters()):
            state[f"dense_{i}"] = param.copy()
        for i, table in enumerate(self.tables):
            state[f"table_{i}"] = table.weight.copy()
        return state
