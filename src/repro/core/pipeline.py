"""Single-replica trainers: the baseline and the Hotline µ-batch schedule.

Historically this module owned the whole trainer stack — two hand-rolled
train loops plus result recording.  The loop now lives in
:class:`~repro.core.engine.TrainingEngine`; what remains here are the two
single-replica *step executors*:

* :class:`ReferenceTrainer` — the baseline: one full mini-batch per step
  (conventional DLRM/TBSM training).
* :class:`HotlineTrainer` — the Hotline schedule.  A **learning phase**
  streams a small sampled fraction of mini-batches (~5 %) through the
  accelerator's Embedding Access Logger to identify frequently-accessed
  rows, which become the GPU-resident hot replica of the
  :class:`~repro.core.placement.EmbeddingPlacement`.  In the
  **acceleration phase** every mini-batch is fragmented into a popular and
  a non-popular µ-batch; both are trained, their gradients accumulate, and
  the parameter update is applied once per mini-batch — numerically
  equivalent to the baseline update on the whole mini-batch (Eq. 5;
  verified by the test-suite).  Recalibration points re-enter the learning
  phase and delta-update the placement's hot-set bitmaps in place.

**Fused µ-batch execution.**  The acceleration phase trains the two
µ-batches through one embedding gather and one scatter per table per
step: the forward pools the mini-batch's *original contiguous* index
block once (per-µ-batch views of the pooled output feed the packed dense
pass), and the backward produces both µ-batches' sparse gradients with a
single :func:`~repro.nn.embedding.segmented_scatter`.  Because the
µ-batch index arrays are ascending and partition the batch, per-row
gradient contributions accumulate in exactly the per-µ-batch order of a
sequential two-pass schedule, and dense gradients accumulate per segment
in order too — so the update is **bit-identical** to training the
µ-batches one after the other.  That sequential schedule lives in the
test oracle (``tests/oracle.py``: pass a ``SequentialDLRM`` or
``SequentialTBSM`` to this trainer), which the parity suite compares
against.

The multi-replica counterpart,
:class:`~repro.core.distributed.ShardedHotlineTrainer`, lives in
:mod:`repro.core.distributed` and plugs into the same engine loop, so the
baseline, Hotline, and K-shard Hotline results are produced by one code
path and differ only in their step executors.

Both executors accept an :class:`~repro.baselines.base.ExecutionModel`
whose simulated step time is split into compute vs collective time through
the :meth:`~repro.baselines.base.ExecutionModel.collective_time` hook, so
accuracy-vs-time curves (Figure 18) and throughput comparisons (Figure 21)
come from a single functional run.
"""

from __future__ import annotations

from repro.baselines.base import ExecutionModel
from repro.core.accelerator import HotlineAccelerator
from repro.core.classifier import MicroBatches, split_minibatch
from repro.core.engine import (
    StepExecutor,
    StepOutcome,
    TrainingEngine,
    TrainingResult,
    evaluate,
)
from repro.core.placement import EmbeddingPlacement
from repro.data.batch import MiniBatch
from repro.data.loader import MiniBatchLoader
from repro.nn.embedding import merge_sparse_gradients

__all__ = [
    "ReferenceTrainer",
    "HotlineTrainer",
    "TrainingResult",
    "evaluate",
]


class ReferenceTrainer(StepExecutor):
    """Baseline trainer: one full mini-batch per step (DLRM/TBSM default)."""

    def __init__(self, model, lr: float = 0.05, perf_model: ExecutionModel | None = None):
        self.model = model
        self.lr = lr
        self.perf_model = perf_model

    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """One baseline step: forward, backward, update on the whole batch."""
        loss = self.model.train_step(batch, lr=self.lr)
        return self.timed_outcome(self.perf_model, batch.size, loss)

    def train(
        self,
        loader: MiniBatchLoader,
        *,
        epochs: int = 1,
        eval_batch: MiniBatch | None = None,
        eval_every: int = 0,
    ) -> TrainingResult:
        """Train for ``epochs`` epochs, recording losses and AUC."""
        return TrainingEngine(self).train(
            loader, epochs=epochs, eval_batch=eval_batch, eval_every=eval_every
        )


class HotlineTrainer(StepExecutor):
    """Trains a model with the Hotline µ-batch schedule."""

    def __init__(
        self,
        model,
        accelerator: HotlineAccelerator | None = None,
        *,
        lr: float = 0.05,
        sample_fraction: float = 0.05,
        hbm_budget_bytes: float = 512 * 1024 * 1024,
        perf_model: ExecutionModel | None = None,
    ):
        self.model = model
        self.accelerator = accelerator or HotlineAccelerator(
            row_bytes=model.config.embedding_dim * model.config.dtype_bytes
        )
        self.lr = lr
        self.sample_fraction = sample_fraction
        self.hbm_budget_bytes = hbm_budget_bytes
        self.perf_model = perf_model
        self.placement: EmbeddingPlacement | None = None

    # ------------------------------------------------------------------ #
    # Learning phase
    # ------------------------------------------------------------------ #
    def learning_phase(self, loader: MiniBatchLoader, seed: int = 0) -> EmbeddingPlacement:
        """Sample mini-batches, populate the EAL, and build the placement.

        When a placement already exists (recalibration), the freshly tracked
        hot sets are applied as in-place bitmap deltas instead of rebuilding
        the :class:`~repro.core.hotset.HotSetIndex` from scratch.
        """
        sampled = loader.sample_batches(self.sample_fraction, seed=seed)
        for batch in sampled:
            self.accelerator.learn_from_batch(batch.sparse)
        num_tables = self.model.config.num_sparse_features
        hot_sets = self.accelerator.hot_sets(num_tables)
        if self.placement is None:
            self.placement = EmbeddingPlacement(
                hot_sets=hot_sets,
                rows_per_table=self.model.config.dataset.rows_per_table,
                embedding_dim=self.model.config.embedding_dim,
                dtype_bytes=self.model.config.dtype_bytes,
                hbm_budget_bytes=self.hbm_budget_bytes,
            )
        else:
            self.placement.update_hot_sets(hot_sets)
        return self.placement

    def recalibrate(self, loader: MiniBatchLoader, seed: int = 0) -> EmbeddingPlacement:
        """Re-enter the learning phase to follow evolving access skews."""
        self.accelerator.recalibrate()
        return self.learning_phase(loader, seed=seed)

    # ------------------------------------------------------------------ #
    # Acceleration phase
    # ------------------------------------------------------------------ #
    def train_step(self, batch: MiniBatch) -> tuple[float, MicroBatches]:
        """One Hotline training step on a single mini-batch.

        The mini-batch is fragmented into its µ-batches; both are trained
        with gradient accumulation and a single parameter update, which
        keeps the update identical to the baseline's (Eq. 5).  The
        µ-batches share one embedding gather and one scatter per table
        (:meth:`~repro.models.dlrm.DLRM.fused_loss_and_gradients`).
        """
        if self.placement is None:
            raise RuntimeError("learning_phase must run before training")
        # The placement's HotSetIndex was built once when the learning phase
        # (or a recalibration) ran, so each step's classification is one
        # fancy-index per table rather than an np.isin set scan.  A mask
        # pre-classified on the loader thread (prepare_batch) is used as-is
        # while its placement fingerprint still matches.
        micro = split_minibatch(
            batch, self.placement.index, mask=self._take_mask(batch)
        )
        self.model.zero_grad()
        # Normalising by the *full* mini-batch size keeps the accumulated
        # update identical to the baseline's single-step update (Eq. 5).
        losses, table_grads = self.model.fused_loss_and_gradients(
            batch, micro.segment_indices(), normalizer=batch.size
        )
        merged = [merge_sparse_gradients(grads) for grads in table_grads]
        self.model.apply_dense_update(self.lr)
        self.model.apply_sparse_updates(merged, self.lr)
        return sum(losses, 0.0), micro

    # ------------------------------------------------------------------ #
    # StepExecutor interface
    # ------------------------------------------------------------------ #
    def bind(self, loader: MiniBatchLoader) -> None:
        """Run the learning phase if no placement exists yet."""
        if self.placement is None:
            self.learning_phase(loader)

    def prepare_batch(self, batch: MiniBatch) -> MiniBatch:
        """Classify a future batch's µ-batches off the critical path.

        Threaded through the loader's ``transform`` hook by the engine:
        with prefetching enabled, batch N+1's popular/non-popular bitmap
        pass runs on the loader's worker thread under batch N's step.  The
        mask is annotated with the placement's identity + version
        fingerprint and discarded by :meth:`train_step` if a recalibration
        mutated the hot sets in between — classification is pure, so the
        precomputed and inline masks are bit-identical whenever the
        fingerprint matches.
        """
        if self.placement is None:
            return batch
        index = self.placement.index
        token = (id(index), index.version)
        batch._hotline_masks = (token, index.classify(batch.sparse))
        return batch

    def _take_mask(self, batch: MiniBatch):
        """The batch's precomputed popular mask, if still valid."""
        annotation = getattr(batch, "_hotline_masks", None)
        if annotation is None:
            return None
        token, mask = annotation
        index = self.placement.index
        if token != (id(index), index.version):
            return None
        return mask

    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """One Hotline step reported to the engine."""
        loss, micro = self.train_step(batch)
        return self.timed_outcome(
            self.perf_model, batch.size, loss, popular_fraction=micro.popular_fraction
        )

    def train(
        self,
        loader: MiniBatchLoader,
        *,
        epochs: int = 1,
        eval_batch: MiniBatch | None = None,
        eval_every: int = 0,
        recalibrations_per_epoch: int = 0,
    ) -> TrainingResult:
        """Train for ``epochs`` epochs with the Hotline schedule."""
        return TrainingEngine(self).train(
            loader,
            epochs=epochs,
            eval_batch=eval_batch,
            eval_every=eval_every,
            recalibrations_per_epoch=recalibrations_per_epoch,
        )
