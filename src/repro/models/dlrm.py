"""The recommendation-model skeleton, and the Deep Learning Recommendation
Model (DLRM) built on it, in numpy.

Both of the paper's models share one shape (Figure 2): a bottom MLP over
the dense features, an embedding table per sparse feature (all of them in
one table-batched :class:`~repro.nn.embedding.EmbeddingBag`), a feature
layer that combines the two, and a top MLP producing the CTR logit.
:class:`RecommendationModel` owns everything but the feature layer: the
MLPs, the bag, both training passes, the loss, the inference shell, the
updates and the snapshot.  :class:`DLRM` supplies the pairwise
dot-product interaction over pooled embeddings;
:class:`~repro.models.tbsm.TBSM` an attention over a lookup history.

A model exposes a two-phase API (``forward`` / ``backward`` +
``apply_*_update``) rather than a single fused ``train_step`` so that the
Hotline pipeline and the baselines can schedule the *same* numerical
computation in different orders — which is exactly the paper's claim that
µ-batch fragmentation does not change the model update (Eq. 5).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.batch import MiniBatch
from repro.models.configs import ModelConfig
from repro.nn.embedding import EmbeddingBag, SparseGradient, segment_ids_for
from repro.nn.gemm import PackedMLP, infer_in_blocks, segment_bounds
from repro.nn.interaction import (
    DotInteractionKernel,
    dot_interaction,
    interaction_output_dim,
)
from repro.nn.loss import fused_bce_epilogue, predicted_probabilities
from repro.nn.mlp import MLP


class RecommendationModel(abc.ABC):
    """A trainable model for a :class:`ModelConfig`, less its feature layer.

    A subclass supplies the layer between the embeddings and the top MLP
    through five hooks: :meth:`_feature_width`, :meth:`_embed` (the
    embedding read), :meth:`_features` and :meth:`_features_backward` (its
    training forward and backward) and :meth:`_infer_features` (its
    inference forward).  Every value the skeleton produces is the
    subclass's arithmetic, in the order the hooks run it.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        """Build the model.

        Args:
            config: Architecture + dataset description.
            seed: Parameter-init seed.

        Raises:
            ValueError: The bottom MLP does not read the dense features or
                does not end at the embedding dimension, or the top MLP
                does not end in one logit.
        """
        self.config = config
        bottom_sizes = [int(tok) for tok in config.bottom_mlp.split("-")]
        top_hidden = [int(tok) for tok in config.top_mlp.split("-")]
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
        if top_hidden[-1] != 1:
            raise ValueError(f"top MLP must end in one logit, not {top_hidden[-1]}")
        rng = np.random.default_rng(seed)
        self.bottom_mlp = MLP(bottom_sizes, rng)
        #: Every sparse feature's table, in one table-batched bag.
        self.embedding = EmbeddingBag(config.dataset.rows_per_table, config.embedding_dim, rng)
        self.top_mlp = MLP([self._feature_width()] + top_hidden, rng)
        self._packed_bottom = PackedMLP(self.bottom_mlp)
        self._packed_top = PackedMLP(self.top_mlp)
        #: What the last :meth:`forward`'s feature layer keeps for :meth:`backward`.
        self._features_cache = None

    # ------------------------------------------------------------------ #
    # The feature layer
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _feature_width(self) -> int:
        """Columns of the feature layer's output: the top MLP's input."""

    @abc.abstractmethod
    def _embed(self, sparse: np.ndarray) -> tuple[np.ndarray, ...]:
        """The embedding rows a ``(batch, tables, pooling)`` id block reads,
        as arrays whose first axis is the batch row."""

    @abc.abstractmethod
    def _features(self, dense_out: np.ndarray, *lookup: np.ndarray) -> tuple[np.ndarray, object]:
        """The top MLP's input from the bottom MLP's output and the
        :meth:`_embed` arrays of the same rows, and what the backward needs."""

    @abc.abstractmethod
    def _features_backward(self, grad_features: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray]:
        """The bottom MLP's output gradient and the embedding gradient (an
        :meth:`~repro.nn.embedding.EmbeddingBag.backward` operand) of the
        feature layer's output gradient."""

    @abc.abstractmethod
    def _infer_features(self, dense_out: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        """:meth:`_features`' output for the rows of ``sparse``, read with
        :meth:`~repro.nn.embedding.EmbeddingBag.gather` and kept nowhere."""

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Compute CTR logits for a mini-batch, shape (batch,)."""
        # Both input checks run before the gather touches the tier and
        # before any layer caches this batch.
        self.config.check_dense(batch.dense)
        lookup = self._embed(batch.sparse)
        features, self._features_cache = self._features(
            self.bottom_mlp.forward(batch.dense), *lookup
        )
        return self.top_mlp.forward(features).reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> SparseGradient:
        """Backpropagate logit gradients; returns the flat-keyed sparse
        gradient (:meth:`EmbeddingBag.backward`).

        Dense-parameter gradients accumulate inside the MLP layers (so that
        gradients from several µ-batches sum, as in the baseline).
        """
        grad_features = self.top_mlp.backward(grad_logits.reshape(-1, 1))
        grad_dense, grad_lookup = self._features_backward(grad_features, self._features_cache)
        self.bottom_mlp.backward(grad_dense)
        return self.embedding.backward(grad_lookup)

    def zero_grad(self) -> None:
        """Reset accumulated dense gradients."""
        self.bottom_mlp.zero_grad()
        self.top_mlp.zero_grad()

    # ------------------------------------------------------------------ #
    # Training helpers
    # ------------------------------------------------------------------ #
    def loss_and_gradients(
        self, batch: MiniBatch, normalizer: float | None = None
    ) -> tuple[float, SparseGradient]:
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
    ) -> tuple[list[float], list[SparseGradient]]:
        """Train a mini-batch's µ-batches with fused embedding traffic.

        The **whole mini-batch's contiguous index block** is read once (no
        per-µ-batch index copies), the MLPs and the feature layer run once
        over the segment-packed rows, and every µ-batch's flat-keyed sparse
        gradient comes out of **one**
        :meth:`~repro.nn.embedding.EmbeddingBag.backward_segments` scatter
        over the whole ``(batch, tables, pooling)`` block.  Dense gradients
        accumulate in the layers exactly as sequential
        :meth:`loss_and_gradients` calls over ``batch.select(segments[s])``
        would — every returned value is bit-identical to that loop, which
        the test oracle keeps as ``SequentialDLRM`` / ``SequentialTBSM``.

        Args:
            batch: The full mini-batch.
            segments: Non-empty ascending index arrays partitioning the
                batch, in accumulation order (Hotline passes the popular
                then the non-popular sample indices).
            normalizer: Divisor applied to the gradients (typically the full
                mini-batch size; see :meth:`loss_and_gradients`).

        Returns:
            ``(losses, partials)`` — per-segment losses and per-segment
            flat-keyed sparse gradients.
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
        lookup = self._embed(batch.sparse)
        perm = segments[0] if len(segments) == 1 else np.concatenate(segments)
        losses, grad_lookup = self._packed_dense_pass(batch, segments, perm, normalizer, lookup)
        return losses, self.embedding.backward_segments(grad_lookup, segments)

    def _packed_dense_pass(
        self, batch, segments, perm, normalizer, lookup
    ) -> tuple[list[float], np.ndarray]:
        """Segment-packed dense pass — one GEMM per layer per *step*.

        Packs the segments into one contiguous block (rows in segment
        order), runs both MLPs and the feature layer once over it, recovers
        per-segment losses and logit gradients by row slicing, and folds
        per-segment ``grad_weight`` partials in segment order — every
        value bit-identical to per-segment :meth:`loss_and_gradients`
        calls (see :mod:`repro.nn.gemm` for the contract and the
        per-shape certification that backs it).  The feature layers are
        per-row, so they pack without certification — the attention only
        because it keeps its input dtype: a float64 context would run the
        top MLP's GEMMs at float64, while their certification is keyed by
        the weights' float32.  Returns the losses and the embedding
        gradient in packed row order.
        """
        bounds = segment_bounds(segments)
        dense_out = self._packed_bottom.forward(batch.dense[perm], bounds)
        features, cache = self._features(dense_out, *(part[perm] for part in lookup))
        # Deferred-bias epilogue: the final GEMM skips its broadcast bias
        # add and the scalar bias folds into the fused loss pass —
        # elementwise, so bit-identical to forward() + reshape.
        logits = self._packed_top.forward_prelogits(features, bounds)
        logits = logits + self._packed_top.logit_bias
        labels = batch.labels[perm]
        losses: list[float] = []
        grad_logits = np.empty_like(logits)
        for lo, hi in bounds:
            loss, seg_grad = fused_bce_epilogue(logits[lo:hi], labels[lo:hi])
            losses.append(loss)
            grad_logits[lo:hi] = seg_grad
        if normalizer is not None:
            # Whole-block division is elementwise — bit-identical to
            # dividing each segment's ``seg_grad`` on its own.
            grad_logits /= normalizer
        # Each packed backward folds its layers' per-segment partials as
        # it goes (see PackedMLP.backward).
        grad_features = self._packed_top.backward(grad_logits.reshape(-1, 1), bounds)
        grad_dense, grad_lookup = self._features_backward(grad_features, cache)
        # The bottom MLP's input gradient is discarded by every caller —
        # the packed path skips that (dead) first-layer GEMM entirely.
        self._packed_bottom.backward(grad_dense, bounds, need_input_grad=False)
        return losses, grad_lookup

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Predicted click probabilities for a batch: the inference forward.

        The arithmetic of :meth:`forward`, bit for bit, scored in certified
        128-row blocks (:func:`~repro.nn.gemm.infer_in_blocks`), so a
        4,096-sample batch holds one block's embedding rows and feature
        temporaries at a time; RM1's and RM2's logit layers, which never
        certify, run once over all rows.  Nothing is stored on the model:
        the layers keep no activations, the feature layer keeps no cache
        and the bag does not remember the indices.  So a ``predict``
        between a forward and its backward leaves the gradients as they
        were, and an evaluation retains no memory.  Rows are read with
        :meth:`~repro.nn.embedding.EmbeddingBag.gather`, which does not
        touch an attached tier.  The dense width is checked before the
        first block.
        """
        self.config.check_dense(batch.dense)
        logits = infer_in_blocks(
            self.bottom_mlp,
            self.top_mlp,
            batch.dense,
            lambda dense_out, lo, hi: self._infer_features(dense_out, batch.sparse[lo:hi]),
        )
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
        return self.embedding.num_parameters

    def state_snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of every parameter (used by equivalence tests)."""
        state: dict[str, np.ndarray] = {}
        for i, (param, _grad) in enumerate(self.dense_parameters()):
            state[f"dense_{i}"] = param.copy()
        for i in range(self.embedding.num_tables):
            state[f"table_{i}"] = self.embedding.table(i).copy()
        return state


class DLRM(RecommendationModel):
    """DLRM: a pairwise dot-product interaction over pooled embeddings."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__(config, seed)
        #: Workspace-pooled interaction kernel — one per model instance
        #: (deepcopied replicas get fresh, unshared buffers).
        self._interaction = DotInteractionKernel()

    def _feature_width(self) -> int:
        return interaction_output_dim(self.config.embedding_dim, self.config.num_sparse_features)

    def _embed(self, sparse: np.ndarray) -> tuple[np.ndarray]:
        return (self.embedding.forward(sparse),)

    def _features(self, dense_out: np.ndarray, pooled: np.ndarray) -> tuple[np.ndarray, dict]:
        return self._interaction.forward(dense_out, pooled)

    def _features_backward(self, grad_features: np.ndarray, cache: dict):
        return self._interaction.backward(grad_features, cache)

    def _infer_features(self, dense_out: np.ndarray, sparse: np.ndarray) -> np.ndarray:
        # The pooled rows and the interaction cache die here, before the
        # top MLP's activations are allocated.
        pooled = self.embedding.gather(sparse).sum(axis=2)
        return dot_interaction(dense_out, pooled)[0]
