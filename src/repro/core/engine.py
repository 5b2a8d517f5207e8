"""The pluggable training engine shared by every functional trainer.

Baseline, Hotline, and sharded-Hotline training all perform the same outer
loop: iterate mini-batches for some number of epochs, occasionally
re-calibrate the hot-set placement, record per-iteration losses, evaluate on
a held-out batch at a fixed cadence, and accumulate the simulated wall-clock
time of the schedule.  What differs between them is only what happens
*inside* one step.

This module factors that split explicitly:

* :class:`StepExecutor` — the per-step strategy.  An executor knows how to
  prepare itself for a loader (e.g. run Hotline's learning phase), execute
  one mini-batch step, and react to a recalibration point.  Each step
  returns a :class:`StepOutcome` carrying the loss plus optional popularity
  and simulated-time observations.
* :class:`TrainingEngine` — the loop.  It owns epochs, the eval cadence,
  the recalibration schedule and :class:`TrainingResult` recording.  Each
  epoch comes from the loader's ``epoch``, prefetched at the loader's
  depth (double-buffered when the loader states none), so batch assembly
  overlaps the training step.

Two executors run over this one loop: the baseline
:class:`~repro.core.pipeline.ReferenceTrainer` and the K-shard
:class:`~repro.core.distributed.ShardedHotlineTrainer`, whose one-shard
form is :class:`~repro.core.pipeline.HotlineTrainer`.  Their recorded
results are directly comparable — which is what makes the Eq. 5
equivalence suite (baseline vs Hotline vs K-shard Hotline) meaningful.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.data.batch import MiniBatch
from repro.data.loader import MiniBatchLoader
from repro.nn.metrics import binary_accuracy, log_loss, roc_auc


@dataclass
class TrainingResult:
    """Outcome of one training run (baseline, Hotline, or sharded Hotline).

    Attributes:
        losses: Per-iteration training loss (sum-reduced BCE).
        auc_history: (iteration, validation AUC) pairs.
        popular_fractions: Per-iteration popular µ-batch fraction (Hotline
            runs only; empty for the baseline).
        simulated_time_s: Simulated wall-clock time of the schedule
            (compute + communication).
        compute_time_s: Simulated per-replica compute portion.
        communication_time_s: Simulated *exposed* collective-communication
            portion — the time that actually extends training steps (equal
            to the total wire time in ``sync`` mode; smaller when buckets
            overlap backward; zero when fully hidden by staleness.  Zero
            for single-replica runs whose perf model reports no
            collective).
        comm_lane_s: Exposed communication by schedule lane, summed over
            steps: the per-label split of ``communication_time_s`` for
            executors that compose their step from named
            :class:`~repro.core.schedule.StepSchedule` lanes (e.g.
            ``dense-allreduce`` / ``lookup-alltoall`` / ``prefetch``, and
            ``tier-fetch`` / ``tier-writeback`` with a hot tier bound);
            a single-replica run's one lane is ``dense-allreduce``, which
            it reports only when a perf model prices its steps.
        bucket_comm_s: Per-bucket dense all-reduce wire time, summed over
            steps: ``bucket_comm_s[i]`` is the total wire time bucket ``i``
            spent on the simulated links across the run, hidden or not.
            Empty for executors without a bucketed reducer.
        cache_hits: Embedding lookups served by already-cached rows across
            the run (lookahead-cache executors only; see
            :class:`~repro.core.lookahead.CachedEmbeddingPipeline`).
        cache_misses: Embedding lookups whose row needed a fresh cache fill.
        cache_fill_rows: Unique rows DMA'd into the lookahead cache.
        stale_rows: Deferred row updates flushed by the staleness bound.
        prefetch_time_s: Total priced lookahead fill/write-back traffic,
            hidden or not (the exposed tail is already folded into
            ``communication_time_s``).
        pending_peak_bytes: High-water mark of the lookahead pipeline's
            deferred write-back store across the run (max over steps).
            The window-bound invariant keeps this proportional to the
            cached row set, never the table size; zero for executors
            without a lookahead pipeline.
        tier_hits: Lookups the hot/cold embedding tier served from its
            resident rows across the run (tiered executors only).
        tier_misses: Lookups the tier fetched from the cold host tier.
        tier_evictions: Resident rows the tier evicted to stay within its
            byte capacity.
        final_metrics: Final validation accuracy / AUC / log-loss.
    """

    losses: list[float] = field(default_factory=list)
    auc_history: list[tuple[int, float]] = field(default_factory=list)
    popular_fractions: list[float] = field(default_factory=list)
    simulated_time_s: float = 0.0
    compute_time_s: float = 0.0
    communication_time_s: float = 0.0
    comm_lane_s: dict[str, float] = field(default_factory=dict)
    bucket_comm_s: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fill_rows: int = 0
    stale_rows: int = 0
    prefetch_time_s: float = 0.0
    pending_peak_bytes: int = 0
    tier_hits: int = 0
    tier_misses: int = 0
    tier_evictions: int = 0
    final_metrics: dict[str, float] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """Number of training iterations performed."""
        return len(self.losses)

    @property
    def mean_popular_fraction(self) -> float:
        """Average popular-input fraction across the run."""
        if not self.popular_fractions:
            return 0.0
        return float(np.mean(self.popular_fractions))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of embedding lookups served without a fresh cache fill."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def evaluate(model, batch: MiniBatch) -> dict[str, float]:
    """Validation accuracy, AUC, and log-loss of ``model`` on ``batch``."""
    probabilities = model.predict(batch)
    return {
        "accuracy": binary_accuracy(batch.labels, probabilities),
        "auc": roc_auc(batch.labels, probabilities),
        "logloss": log_loss(batch.labels, probabilities),
    }


@dataclass
class StepOutcome:
    """Observations from one executed training step.

    Attributes:
        loss: Sum-reduced training loss of the mini-batch.
        popular_fraction: Popular µ-batch fraction, or ``None`` when the
            executor does not fragment (the baseline).
        compute_time_s: Simulated per-replica compute time of the step.
        communication_time_s: Simulated *exposed* collective time of the
            step (the portion not hidden under backward compute).
        comm_lanes_s: The step's exposed communication split by schedule
            lane, as ``(label, exposed_s)`` pairs in lane order; the pairs
            sum to ``communication_time_s``.  The sharded trainer reports
            one pair per lane of its
            :class:`~repro.core.schedule.ComposedSchedule`; a step priced
            by :meth:`StepExecutor.timed_outcome` reports its one
            collective as ``dense-allreduce``, and no pair without a perf
            model.
        bucket_times_s: Per-bucket wire time of the step's dense
            all-reduce, in bucket order (empty when the executor has no
            bucketed reducer).  May sum to more than
            ``communication_time_s`` when buckets overlap compute.
        cache_hits: Lookahead-cache hits of the step's embedding lookups
            (zero for executors without a cached pipeline).
        cache_misses: Lookups whose row needed a fresh cache fill.
        cache_fill_rows: Unique rows filled into the cache this step.
        stale_rows: Deferred row updates flushed by the staleness bound.
        prefetch_time_s: Priced cache fill/write-back traffic of the step,
            hidden or not.
        pending_bytes: High-water mark of the lookahead pipeline's
            deferred write-back store up to and including this step
            (window-bounded: proportional to the cached row set, never
            the table size).  Monotone within a run, so the result-level
            max equals the run's true peak — intra-step peaks included.
        tier_hits: Lookups the hot/cold embedding tier served from
            resident rows this step (tiered executors only).
        tier_misses: Lookups fetched from the cold host tier this step.
        tier_evictions: Resident rows evicted for capacity this step.
    """

    loss: float
    popular_fraction: float | None = None
    compute_time_s: float = 0.0
    communication_time_s: float = 0.0
    comm_lanes_s: tuple[tuple[str, float], ...] = ()
    bucket_times_s: tuple[float, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fill_rows: int = 0
    stale_rows: int = 0
    prefetch_time_s: float = 0.0
    pending_bytes: int = 0
    tier_hits: int = 0
    tier_misses: int = 0
    tier_evictions: int = 0

    @property
    def step_time_s(self) -> float:
        """Total simulated time of the step."""
        return self.compute_time_s + self.communication_time_s


class StepExecutor(abc.ABC):
    """Per-step strategy plugged into the :class:`TrainingEngine` loop.

    Subclasses must expose a ``model`` attribute (used by the engine for
    evaluation) and implement :meth:`run_step`.  ``bind`` and
    ``recalibrate`` default to no-ops for executors without a learning
    phase (the baseline).

    Executors may additionally define a ``prepare_batch(batch) -> batch``
    hook: when present, the engine threads it through the loader as the
    epoch's ``transform``, so with prefetching enabled the hook runs **on
    the loader's worker thread** — ahead-of-the-critical-path work such as
    classifying batch N+1's µ-batches overlaps batch N's optimizer update.
    The hook must be thread-safe with respect to the executor's own step
    (annotate the batch, never mutate executor state) and its result must
    be discardable: a step must produce bit-identical output whether or
    not the hook ran.
    """

    model = None

    def bind(self, loader: MiniBatchLoader) -> None:  # noqa: B027 - optional hook
        """One-time preparation before the loop (e.g. the learning phase)."""

    @abc.abstractmethod
    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """Execute one training step and report its observations."""

    def recalibrate(self, loader: MiniBatchLoader, seed: int = 0) -> None:  # noqa: B027
        """React to a recalibration point of the schedule (default: no-op)."""

    def train(
        self,
        loader: MiniBatchLoader,
        *,
        epochs: int = 1,
        eval_batch: MiniBatch | None = None,
        eval_every: int = 0,
        recalibrations_per_epoch: int = 0,
    ) -> TrainingResult:
        """Train for ``epochs`` epochs through :meth:`TrainingEngine.train`."""
        return TrainingEngine(self).train(
            loader,
            epochs=epochs,
            eval_batch=eval_batch,
            eval_every=eval_every,
            recalibrations_per_epoch=recalibrations_per_epoch,
        )

    def finalize(self) -> StepOutcome | None:
        """Drain in-flight pipeline state when the training loop ends.

        Executors that pipeline their synchronisation — the stale-k dense
        deque, the lookahead cache's deferred sparse write-backs — override
        this to apply everything still in flight, so the model the engine
        evaluates reflects *all* computed gradients rather than silently
        dropping the last k of them (which made a staleness sweep's final
        metrics fold a dropped-tail effect into the staleness effect).
        Returns a :class:`StepOutcome` describing the drain's traffic
        (its ``loss`` is ignored), or ``None`` when nothing was in flight.
        """
        return None

    # ------------------------------------------------------------------ #
    # Shared timing helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def timed_outcome(
        perf_model,
        batch_size: int,
        loss: float,
        popular_fraction: float | None = None,
    ) -> StepOutcome:
        """Build a :class:`StepOutcome` split into compute vs collective time.

        Uses the :meth:`~repro.baselines.base.ExecutionModel.collective_time`
        hook to carve the dense-gradient synchronisation out of the perf
        model's step time, so every executor reports a comparable
        compute/communication split.  That collective is the step's one
        communication lane, ``dense-allreduce``, as the sharded reducer
        labels its own.
        """
        if perf_model is None:
            return StepOutcome(loss=loss, popular_fraction=popular_fraction)
        step_time = perf_model.step_time(batch_size)
        collective = getattr(perf_model, "collective_time", None)
        comm = min(step_time, collective()) if collective is not None else 0.0
        return StepOutcome(
            loss=loss,
            popular_fraction=popular_fraction,
            compute_time_s=step_time - comm,
            communication_time_s=comm,
            comm_lanes_s=(("dense-allreduce", comm),),
        )


def _accumulate(result: TrainingResult, outcome: StepOutcome) -> None:
    """Add one step's (or the end-of-run drain's) observations to ``result``;
    the per-iteration loss and popular fraction are the caller's."""
    result.compute_time_s += outcome.compute_time_s
    result.communication_time_s += outcome.communication_time_s
    for label, lane_s in outcome.comm_lanes_s:
        result.comm_lane_s[label] = result.comm_lane_s.get(label, 0.0) + lane_s
    result.simulated_time_s += outcome.step_time_s
    result.cache_hits += outcome.cache_hits
    result.cache_misses += outcome.cache_misses
    result.cache_fill_rows += outcome.cache_fill_rows
    result.stale_rows += outcome.stale_rows
    result.prefetch_time_s += outcome.prefetch_time_s
    result.pending_peak_bytes = max(result.pending_peak_bytes, outcome.pending_bytes)
    result.tier_hits += outcome.tier_hits
    result.tier_misses += outcome.tier_misses
    result.tier_evictions += outcome.tier_evictions
    missing = len(outcome.bucket_times_s) - len(result.bucket_comm_s)
    result.bucket_comm_s.extend([0.0] * missing)
    for i, bucket_time in enumerate(outcome.bucket_times_s):
        result.bucket_comm_s[i] += bucket_time


def recalibration_points(steps_per_epoch: int, recalibrations_per_epoch: int) -> set[int]:
    """Evenly spaced in-epoch steps at which to re-enter the learning phase."""
    if recalibrations_per_epoch <= 0 or steps_per_epoch <= recalibrations_per_epoch:
        return set()
    stride = steps_per_epoch // (recalibrations_per_epoch + 1)
    return {stride * (i + 1) for i in range(recalibrations_per_epoch)}


class TrainingEngine:
    """The single training loop shared by all functional trainers.

    The prefetch depth is the loader's: a loader with no stated
    preference (``prefetch=None``) gets double-buffering (depth 1), and
    one built with an explicit depth — including ``prefetch=0`` as a
    synchronous opt-out — keeps it.  An executor exposing
    ``prepare_batch`` gets it threaded through the loader's ``transform``
    hook, so the preparation (e.g. next-batch µ-batch classification)
    runs on the prefetch worker thread, under the current step.

    Args:
        executor: The per-step strategy to drive.
    """

    def __init__(self, executor: StepExecutor):
        self.executor = executor

    def train(
        self,
        loader: MiniBatchLoader,
        *,
        epochs: int = 1,
        eval_batch: MiniBatch | None = None,
        eval_every: int = 0,
        recalibrations_per_epoch: int = 0,
    ) -> TrainingResult:
        """Run the full training loop and record a :class:`TrainingResult`."""
        self.executor.bind(loader)
        prefetch = 1 if loader.prefetch is None else loader.prefetch
        transform = getattr(self.executor, "prepare_batch", None)
        result = TrainingResult()
        iteration = 0
        for _epoch in range(epochs):
            recal_points = recalibration_points(len(loader), recalibrations_per_epoch)
            batches = loader.epoch(prefetch=prefetch, transform=transform)
            for step_in_epoch, batch in enumerate(batches):
                if step_in_epoch in recal_points:
                    self.executor.recalibrate(loader, seed=iteration)
                outcome = self.executor.run_step(batch)
                result.losses.append(outcome.loss)
                if outcome.popular_fraction is not None:
                    result.popular_fractions.append(outcome.popular_fraction)
                _accumulate(result, outcome)
                iteration += 1
                if eval_batch is not None and eval_every and iteration % eval_every == 0:
                    result.auc_history.append(
                        (iteration, evaluate(self.executor.model, eval_batch)["auc"])
                    )
        # Drain pipelined executors (stale-k deque, deferred sparse
        # write-backs) *before* the final evaluation, so staleness sweeps
        # compare fully-applied models rather than dropped tails.
        drained = self.executor.finalize()
        if drained is not None:
            _accumulate(result, drained)
        if eval_batch is not None:
            result.final_metrics = evaluate(self.executor.model, eval_batch)
            result.auc_history.append((iteration, result.final_metrics["auc"]))
        return result
