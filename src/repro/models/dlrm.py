"""Deep Learning Recommendation Model (DLRM) in numpy.

Follows the reference architecture (Figure 2 of the paper): a bottom MLP
over the dense features, one EmbeddingBag per sparse feature, a pairwise
dot-product feature interaction, and a top MLP producing the CTR logit.

The model exposes a two-phase API (``forward`` / ``backward`` +
``apply_updates``) rather than a single fused ``train_step`` so that the
Hotline pipeline and the baselines can schedule the *same* numerical
computation in different orders — which is exactly the paper's claim that
µ-batch fragmentation does not change the model update (Eq. 5).
"""

from __future__ import annotations

import numpy as np

from repro.data.batch import MiniBatch
from repro.models.configs import ModelConfig
from repro.nn.gemm import PackedMLP, segment_bounds
from repro.nn.embedding import EmbeddingBag, SparseGradient, segment_ids_for
from repro.nn.interaction import (
    DotInteractionKernel,
    interaction_output_dim,
)
from repro.nn.loss import fused_bce_epilogue, predicted_probabilities
from repro.nn.mlp import MLP


class DLRM:
    """Trainable DLRM instance for a given :class:`ModelConfig`."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        """Build the model.

        Args:
            config: Architecture + dataset description.
            seed: Parameter-init seed.
        """
        self.config = config
        rng = np.random.default_rng(seed)
        bottom_sizes = [int(tok) for tok in config.bottom_mlp.split("-")]
        if bottom_sizes[0] != config.num_dense_features:
            raise ValueError(
                f"bottom MLP input size {bottom_sizes[0]} does not match "
                f"{config.num_dense_features} dense features"
            )
        if bottom_sizes[-1] != config.embedding_dim:
            raise ValueError(
                "bottom MLP output size must equal the embedding dimension "
                f"({bottom_sizes[-1]} != {config.embedding_dim})"
            )
        self.bottom_mlp = MLP(bottom_sizes, rng)
        self.tables: list[EmbeddingBag] = [
            EmbeddingBag(rows, config.embedding_dim, rng, name=f"table_{i}")
            for i, rows in enumerate(config.dataset.rows_per_table)
        ]
        top_hidden = [int(tok) for tok in config.top_mlp.split("-")]
        top_input = interaction_output_dim(config.embedding_dim, config.num_sparse_features)
        self.top_mlp = MLP([top_input] + top_hidden, rng)
        self._interaction_cache: dict | None = None
        self._packed_bottom = PackedMLP(self.bottom_mlp)
        self._packed_top = PackedMLP(self.top_mlp)
        #: Workspace-pooled interaction kernel — one per model instance
        #: (deepcopied replicas get fresh, unshared buffers).
        self._interaction = DotInteractionKernel()

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Compute CTR logits for a mini-batch, shape (batch,)."""
        if batch.num_tables != len(self.tables):
            raise ValueError(
                f"batch has {batch.num_tables} sparse features, model expects {len(self.tables)}"
            )
        dense_out = self.bottom_mlp.forward(batch.dense)
        sparse_out = [
            table.forward(batch.sparse[:, t, :]) for t, table in enumerate(self.tables)
        ]
        interaction, cache = self._interaction.forward(dense_out, sparse_out)
        self._interaction_cache = cache
        logits = self.top_mlp.forward(interaction)
        return logits.reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> list[SparseGradient]:
        """Backpropagate logit gradients; returns per-table sparse gradients.

        Dense-parameter gradients accumulate inside the MLP layers (so that
        gradients from several µ-batches sum, as in the baseline).
        """
        if self._interaction_cache is None:
            raise RuntimeError("backward called before forward")
        grad_interaction = self.top_mlp.backward(grad_logits.reshape(-1, 1))
        grad_dense, grad_sparse = self._interaction.backward(
            grad_interaction, self._interaction_cache
        )
        self.bottom_mlp.backward(grad_dense)
        return [table.backward(grad_sparse[t]) for t, table in enumerate(self.tables)]

    def zero_grad(self) -> None:
        """Reset accumulated dense gradients."""
        self.bottom_mlp.zero_grad()
        self.top_mlp.zero_grad()

    # ------------------------------------------------------------------ #
    # Training helpers
    # ------------------------------------------------------------------ #
    def loss_and_gradients(
        self, batch: MiniBatch, normalizer: float | None = None
    ) -> tuple[float, list[SparseGradient]]:
        """Forward + backward with a sum-reduced BCE loss (Eq. 2).

        Dense gradients are accumulated in the layers; the caller applies
        them with :meth:`apply_dense_update`.

        Args:
            batch: The (µ-)batch to train on.
            normalizer: Divisor applied to the gradients (typically the full
                mini-batch size, so per-sample gradients average over the
                mini-batch).  With ``None`` the raw summed gradients are
                returned.  Using the *full* mini-batch size for every
                µ-batch keeps Hotline's accumulated update identical to the
                baseline's (Eq. 5).
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

        Per table, the **whole mini-batch's contiguous index block** is
        gathered once (no per-µ-batch index copies), the MLPs and the
        interaction run once over the segment-packed rows, and every
        µ-batch's sparse gradient comes out of **one**
        :meth:`~repro.nn.embedding.EmbeddingBag.backward_segments` scatter.
        Dense gradients accumulate in the layers exactly as sequential
        :meth:`loss_and_gradients` calls over ``batch.select(segments[s])``
        would — every returned value is bit-identical to that loop, which
        the test oracle keeps as ``SequentialDLRM``.

        Args:
            batch: The full mini-batch.
            segments: Non-empty ascending index arrays partitioning the
                batch, in accumulation order (Hotline passes the popular
                then the non-popular sample indices).
            normalizer: Divisor applied to the gradients (typically the full
                mini-batch size; see :meth:`loss_and_gradients`).
            after_segment: Optional ``callback(segment_index, loss)`` fired
                right after each segment's backward pass — the point where a
                caller needing *per-segment* dense gradients (the sharded
                trainer's per-µ-batch partials) can snapshot the layers and
                ``zero_grad`` before the next segment runs.

        Returns:
            ``(losses, sparse_grads)`` — per-segment losses and per-table
            lists of per-segment sparse gradients (``sparse_grads[t][s]``).
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
        segment_ids = segment_ids_for(segments, batch.size)
        pooled = [
            table.forward(batch.sparse[:, t, :]) for t, table in enumerate(self.tables)
        ]
        losses, grad_pooled = self._packed_dense_pass(
            batch, segments, normalizer, after_segment, pooled
        )
        pooling = batch.pooling
        # The flat (per-lookup) segment ids are table-independent — build
        # them once and share them across every table's scatter.
        flat_segment_ids = (
            segment_ids if pooling == 1 else np.repeat(segment_ids, pooling)
        )
        sparse_grads = [
            table.backward_segments(
                grad_pooled[t], segments, segment_ids, flat_segment_ids
            )
            for t, table in enumerate(self.tables)
        ]
        return losses, sparse_grads

    def _packed_dense_pass(
        self, batch, segments, normalizer, after_segment, pooled
    ) -> tuple[list[float], list[list[np.ndarray]]]:
        """Segment-packed dense pass — one GEMM per layer per *step*.

        Packs the segments into one contiguous block (rows in segment
        order), runs both MLPs and the interaction once over it, recovers
        per-segment losses and logit gradients by row slicing, and folds
        per-segment ``grad_weight`` partials in segment order — every
        value bit-identical to per-segment :meth:`loss_and_gradients`
        calls (see :mod:`repro.nn.gemm` for the contract and the
        per-shape certification that backs it).
        """
        num_tables = len(self.tables)
        perm = segments[0] if len(segments) == 1 else np.concatenate(segments)
        bounds = segment_bounds(segments)
        dense_out = self._packed_bottom.forward(batch.dense[perm], bounds)
        interaction, cache = self._interaction.forward(
            dense_out, [pooled[t][perm] for t in range(num_tables)]
        )
        if self._packed_top.has_logit_epilogue:
            # Deferred-bias epilogue: the final GEMM skips its broadcast
            # bias add and the scalar bias folds into the fused loss pass —
            # elementwise, so bit-identical to forward() + reshape.
            logits = self._packed_top.forward_prelogits(interaction, bounds)
            logits = logits + self._packed_top.logit_bias
        else:
            logits = self._packed_top.forward(interaction, bounds).reshape(-1)
        labels = batch.labels[perm]
        losses: list[float] = []
        grad_logits = np.empty_like(logits)
        for lo, hi in bounds:
            loss, seg_grad = fused_bce_epilogue(logits[lo:hi], labels[lo:hi])
            losses.append(loss)
            grad_logits[lo:hi] = seg_grad
        if normalizer is not None:
            # Whole-block division is elementwise — bit-identical to the
            # former per-segment ``seg_grad / normalizer`` slices.
            grad_logits /= normalizer
        grad_interaction = self._packed_top.backward(grad_logits.reshape(-1, 1), bounds)
        grad_dense, grad_sparse = self._interaction.backward(grad_interaction, cache)
        # The bottom MLP's input gradient is discarded by every caller —
        # the packed path skips that (dead) first-layer GEMM entirely.
        self._packed_bottom.backward(grad_dense, bounds, need_input_grad=False)
        grad_pooled: list[list[np.ndarray]] = [[] for _ in range(num_tables)]
        for s, (lo, hi) in enumerate(bounds):
            self._packed_top.accumulate_segment(lo, hi)
            self._packed_bottom.accumulate_segment(lo, hi)
            for t in range(num_tables):
                grad_pooled[t].append(grad_sparse[t][lo:hi])
            if after_segment is not None:
                after_segment(s, losses[s])
        return losses, grad_pooled

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
        """One baseline training step: forward, backward, update, in order.

        Gradients are normalised by the mini-batch size (mean-reduced), the
        conventional DLRM training setup.
        """
        self.zero_grad()
        loss, sparse_grads = self.loss_and_gradients(batch, normalizer=batch.size)
        self.apply_dense_update(lr)
        self.apply_sparse_updates(sparse_grads, lr)
        return loss

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
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
