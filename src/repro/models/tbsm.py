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
    scatter_add_rows,
    segment_ids_for,
    segmented_scatter,
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

    def backward(self, grad_logits: np.ndarray) -> list[SparseGradient]:
        """Backpropagate logit gradients; returns per-table sparse gradients."""
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
        return sparse_grads

    def zero_grad(self) -> None:
        """Reset accumulated dense gradients."""
        self.bottom_mlp.zero_grad()
        self.top_mlp.zero_grad()

    def loss_and_gradients(
        self, batch: MiniBatch, normalizer: float | None = None
    ) -> tuple[float, list[SparseGradient]]:
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
        after_segment=None,
    ) -> tuple[list[float], list[list[SparseGradient]]]:
        """Train a mini-batch's µ-batches with fused embedding traffic.

        The history table's sequence gather and every pooled table's lookup
        run **once** over the whole mini-batch's contiguous blocks; the
        attention/MLP passes run once over the segment-packed rows, and
        each table's per-µ-batch sparse gradients come out of one
        :func:`~repro.nn.embedding.segmented_scatter` — everything
        returned is bit-identical to sequential :meth:`loss_and_gradients`
        calls (the test oracle's ``SequentialTBSM``).  See
        :meth:`repro.models.dlrm.DLRM.fused_loss_and_gradients` for the
        argument contract (``after_segment`` fires after each segment's
        backward pass; returns per-segment losses and
        ``sparse_grads[t][s]``).
        """
        num_tables = len(self.tables)
        if batch.num_tables != num_tables:
            raise ValueError("batch sparse-feature count does not match the model")
        segments = [np.asarray(idx, dtype=np.int64) for idx in segments]
        if not segments:
            return [], [[] for _ in range(num_tables)]
        if any(idx.size == 0 for idx in segments):
            raise ValueError("fused segments must be non-empty")
        if normalizer is not None and normalizer <= 0:
            raise ValueError("normalizer must be positive")
        dim = self.config.embedding_dim
        history_block = batch.sparse[:, 0, :]
        steps = history_block.shape[1]
        segment_ids = segment_ids_for(segments, batch.size)
        # History sequences: one unpooled lookup over the batch's block.
        sequence_all = self.tables[0].lookup(history_block)
        pooled = {
            t: self.tables[t].forward(batch.sparse[:, t, :])
            for t in range(1, num_tables)
        }
        losses, history_grad_all, grad_pooled = self._packed_dense_pass(
            batch, segments, normalizer, after_segment, sequence_all, pooled
        )
        # One scatter per table: the history table's per-step gradients go
        # through the segmented scatter directly (no pooling repeat); the
        # flat segment ids are table-independent and shared.
        flat_segment_ids = (
            segment_ids if steps == 1 else np.repeat(segment_ids, steps)
        )
        sparse_grads: list[list[SparseGradient]] = [
            segmented_scatter(
                history_block.reshape(-1),
                history_grad_all.reshape(-1, dim),
                flat_segment_ids,
                len(segments),
                self.tables[0].num_rows,
                dim,
            )
        ]
        for t in range(1, num_tables):
            sparse_grads.append(
                self.tables[t].backward_segments(
                    grad_pooled[t], segments, segment_ids, flat_segment_ids
                )
            )
        return losses, sparse_grads

    def _packed_dense_pass(
        self, batch, segments, normalizer, after_segment, sequence_all, pooled
    ) -> tuple[list[float], np.ndarray, dict[int, list[np.ndarray]]]:
        """Segment-packed dense pass (MLPs, attention, loss) for TBSM.

        Same contract as :meth:`repro.models.dlrm.DLRM._packed_dense_pass`
        — one GEMM per layer per step, per-segment quantities recovered by
        row slicing, bit-identical to per-segment calls.  The attention
        einsums and softmax are per-row, so they pack without
        certification — but only because the attention keeps its input
        dtype: a context promoted to float64 would run the top MLP's GEMMs
        at float64, while their certification is keyed by the weights'
        float32.
        """
        num_tables = len(self.tables)
        dim = self.config.embedding_dim
        steps = batch.sparse.shape[2]
        perm = segments[0] if len(segments) == 1 else np.concatenate(segments)
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
        grad_other = grad_features[:, 2 * dim :]
        grad_query, grad_sequence = self.attention.backward(grad_context)
        # The bottom MLP's input gradient is discarded — skip its GEMM.
        self._packed_bottom.backward(
            grad_query + grad_dense_direct, bounds, need_input_grad=False
        )
        history_grad_all = np.empty(
            (batch.size, steps, dim), dtype=grad_sequence.dtype
        )
        history_grad_all[perm] = grad_sequence
        grad_pooled: dict[int, list[np.ndarray]] = {t: [] for t in range(1, num_tables)}
        for s, (lo, hi) in enumerate(bounds):
            self._packed_top.accumulate_segment(lo, hi)
            self._packed_bottom.accumulate_segment(lo, hi)
            offset = 0
            for t in range(1, num_tables):
                grad_pooled[t].append(grad_other[lo:hi, offset : offset + dim])
                offset += dim
            if after_segment is not None:
                after_segment(s, losses[s])
        return losses, history_grad_all, grad_pooled

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Predicted click probabilities for a batch."""
        return predicted_probabilities(self.forward(batch))

    def dense_parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs of both MLPs."""
        return self.bottom_mlp.parameters() + self.top_mlp.parameters()

    def apply_dense_update(self, lr: float) -> None:
        """SGD update of the MLP parameters using accumulated gradients."""
        for param, grad in self.dense_parameters():
            param -= lr * grad

    def apply_sparse_updates(self, grads: list[SparseGradient], lr: float) -> None:
        """SGD update of every embedding table from its sparse gradient."""
        if len(grads) != len(self.tables):
            raise ValueError("one sparse gradient per table is required")
        for table, grad in zip(self.tables, grads, strict=True):
            table.apply_sparse_update(grad, lr)

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
