"""Single-replica trainers: the baseline and one-shard Hotline.

* :class:`ReferenceTrainer` — the baseline: one full mini-batch per step
  (conventional DLRM/TBSM training).
* :class:`HotlineTrainer` — the Hotline schedule on one replica.  A **learning
  phase** streams a small sampled fraction of mini-batches (~5 %) through
  the accelerator's Embedding Access Logger to identify frequently-accessed
  rows, which become the GPU-resident hot replica of the
  :class:`~repro.core.placement.EmbeddingPlacement`.  In the **acceleration
  phase** every mini-batch is fragmented into a popular and a non-popular
  µ-batch; both are trained, their gradients accumulate, and the parameter
  update is applied once per mini-batch — numerically equivalent to the
  baseline update on the whole mini-batch (Eq. 5; verified by the
  test-suite).  Recalibration points re-enter the learning phase and
  delta-update the placement's hot-set bitmap in place.

One replica runs the same schedule as K of them, so :class:`HotlineTrainer`
is the one-shard :class:`~repro.core.distributed.ShardedHotlineTrainer`:
the learning phase, the fused µ-batch step, the loader-thread
classification and the engine hooks are that trainer's.  What it keeps of
its own is its constructor (an injected accelerator), the ``accelerator``
and ``placement`` views of its one shard, and its pricing.

Both executors plug into :class:`~repro.core.engine.TrainingEngine` and
accept an :class:`~repro.baselines.base.ExecutionModel` whose simulated
step time is split into compute vs collective time through the
:meth:`~repro.baselines.base.ExecutionModel.collective_time` hook, so
accuracy-vs-time curves (Figure 18) and throughput comparisons (Figure 21)
come from a single functional run.
"""

from __future__ import annotations

from repro.baselines.base import ExecutionModel
from repro.core.accelerator import HotlineAccelerator
# The step benchmark's tracer patches this name (its core.classifier.split
# layer); the trainer itself classifies through repro.core.distributed.
from repro.core.classifier import split_minibatch  # noqa: F401
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.engine import (
    StepExecutor,
    StepOutcome,
    TrainingResult,
    evaluate,
)
from repro.core.placement import EmbeddingPlacement
from repro.data.batch import MiniBatch
from repro.data.loader import MiniBatchLoader

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


class HotlineTrainer(ShardedHotlineTrainer):
    """Trains a model with the Hotline µ-batch schedule on one replica.

    The one-shard :class:`~repro.core.distributed.ShardedHotlineTrainer`:
    ``train_step`` returns ``(loss, popular_fraction)`` and ``recalibrate``
    updates :attr:`placement` in place.  An injected ``accelerator``
    replaces the shard's default one; its EAL must track the model's key
    space (``config.dataset.rows_per_table``).

    Pricing: a step reports the perf model's step time with its
    :meth:`~repro.baselines.base.ExecutionModel.collective_time` carved out
    as exposed communication, exactly as :class:`ReferenceTrainer` does.
    The perf model prices its own cluster's all-reduce, and the baseline
    this trainer is compared against pays it; the one-shard reducer would
    price none and so inflate Hotline's simulated speedup.
    :meth:`dense_sync_time` reports that same collective.
    """

    def __init__(
        self,
        model,
        accelerator: HotlineAccelerator | None = None,
        *,
        lr: float = 0.05,
        sample_fraction: float = 0.05,
        perf_model: ExecutionModel | None = None,
    ):
        super().__init__(
            model,
            1,
            lr=lr,
            sample_fraction=sample_fraction,
            perf_model=perf_model,
        )
        if accelerator is not None:
            if accelerator.eal.rows_per_table != tuple(model.config.dataset.rows_per_table):
                raise ValueError("the accelerator's EAL must track the model's rows_per_table")
            self.shards[0].accelerator = accelerator

    @property
    def accelerator(self) -> HotlineAccelerator:
        """The one shard's accelerator."""
        return self.shards[0].accelerator

    @property
    def placement(self) -> EmbeddingPlacement | None:
        """The one shard's placement (``None`` before the learning phase)."""
        return self.shards[0].placement

    def learning_phase(self, loader: MiniBatchLoader, seed: int = 0) -> EmbeddingPlacement:
        """Profile sampled mini-batches into the EAL; return the placement."""
        return super().learning_phase(loader, seed=seed)[0]

    def dense_sync_time(self) -> float:
        """The perf model's collective time, which every step charges as its
        ``dense-allreduce`` lane (0.0 without a perf model)."""
        return 0.0 if self.perf_model is None else self.perf_model.collective_time()

    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """One Hotline step, priced as :class:`ReferenceTrainer` prices one."""
        loss, popular_fraction = self.train_step(batch)
        return self.timed_outcome(
            self.perf_model, batch.size, loss, popular_fraction=popular_fraction
        )
