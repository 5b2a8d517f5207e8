"""Workloads of the step benchmark and the timed training run they share.

A workload is one trainer configuration over one synthetic click log.
Every workload trains DLRM with RM2's architecture (``lr=0.3``,
``sample_fraction=0.25``) through ``TrainingEngine(trainer).train`` — the
loop a user runs, with the engine's default prefetch.  The benchmark
observes it from outside: it wraps the trainer's ``run_step`` on the
instance to time steps, runs the :class:`Calibrator` between steps to
measure how fast the machine is running at that moment, and a loader
subclass ends the run once the time budget is spent.  Why each workload
exists is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, replace
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

import numpy as np

from benchmarks.step.trace import LOADER_WAIT, STEP
from repro.core import HotlineScheduler, HotlineTrainer
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.engine import StepOutcome, TrainingEngine, evaluate
from repro.data import MiniBatchLoader, SyntheticClickLog, generate_click_log
from repro.hwsim import single_node
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.perf import TrainingCostModel


@dataclass(frozen=True)
class Workload:
    """One trainer configuration.

    Attributes:
        name: Workload name as used on the command line.
        max_rows: ``RM2.scaled`` cap on the largest table.
        batch: Global mini-batch size.
        sharded: :class:`ShardedHotlineTrainer` keywords; empty selects the
            single-replica :class:`HotlineTrainer`.
        tier_share: Hot-tier capacity as a share of the table bytes
            (``None`` = no tier).
        zipf_alpha: Replacement access skew (``None`` keeps RM2's).
    """

    name: str
    max_rows: int
    batch: int
    sharded: dict = field(default_factory=dict)
    tier_share: float | None = None
    zipf_alpha: float | None = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig18-single", 1200, 256),
        Workload("k4-sync", 1200, 256, {"num_shards": 4}),
        Workload(
            "k4-stale2-w8-tier",
            1200,
            256,
            {"num_shards": 4, "mode": "stale-2", "lookahead_window": 8},
            tier_share=0.25,
        ),
        Workload(
            "k4-lowskew-tier",
            100_000,
            512,
            {"num_shards": 4, "partition_embeddings": True},
            tier_share=0.02,
            zipf_alpha=1.05,  # Taobao's skew: many unique rows per batch
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """Input sizes and step counts of one run.

    Attributes:
        train_samples: Samples in the training log.
        held_samples: Samples of the held-out batch (the tail of the same
            log, so it shares the generator's hidden ground truth).
        warmup: Leading steps excluded from steady-state metrics; the
            tier, the lookahead window and the workspaces fill during them.
        min_steady: Fewest steady steps a run takes, whatever its time
            budget (p90 needs at least 10 samples beyond it).
        eval_step: Evaluate held-out log-loss right after this many steps
            (``0`` = never).  A fixed step keeps the value independent of
            how fast the host ran.  Step 128 keeps the slowest workload's
            run within its time budget; by then the stale-2 model's loss
            still differs by about 5% between seeds, the others' by 1%.
        trace_min_steady: Fewest steady steps of each half of a traced
            invocation (the untraced reference and the traced run).
        max_rows: Optional cap on every workload's ``max_rows``.
        batch_divisor: Divides every workload's batch size.
    """

    train_samples: int = 32768
    held_samples: int = 4096
    warmup: int = 16
    min_steady: int = 100
    eval_step: int = 128
    trace_min_steady: int = 64
    max_rows: int | None = None
    batch_divisor: int = 1

    def batch(self, workload: Workload) -> int:
        return workload.batch // self.batch_divisor


#: Plan of the benchmark's own runs.
FULL = Plan()
#: A plan small enough for a smoke test of every code path.
TINY = Plan(
    train_samples=1024,
    held_samples=256,
    warmup=2,
    min_steady=4,
    eval_step=4,
    trace_min_steady=4,
    max_rows=400,
    batch_divisor=4,
)


#: Seed of the click log every run trains on.  The run's own seed draws the
#: model's initial weights and the loader's shuffle order, the way repeated
#: training runs over one dataset differ.  A log drawn per run seed would
#: also redraw the generator's hidden ground truth, which moved held-out
#: log-loss by 4-8% between seeds (interquartile range over 10 seeds);
#: over one log the range is 0.5-1.5%.
DATA_SEED = 0


@dataclass
class Inputs:
    """Everything a run consumes, generated from the seed alone."""

    config: object
    log: SyntheticClickLog
    held_out: object
    seed: int


def make_inputs(workload: Workload, seed: int, plan: Plan = FULL) -> Inputs:
    """The workload's click log and held-out batch, and ``seed`` for the
    model's initial weights and the shuffle order."""
    max_rows = workload.max_rows
    if plan.max_rows is not None:
        max_rows = min(max_rows, plan.max_rows)
    config = RM2.scaled(max_rows)
    if workload.zipf_alpha is not None:
        config = replace(
            config, dataset=replace(config.dataset, zipf_alpha=workload.zipf_alpha)
        )
    n = plan.train_samples
    full = generate_click_log(config.dataset, n + plan.held_samples, DATA_SEED)
    log = SyntheticClickLog(config.dataset, full.dense[:n], full.sparse[:n], full.labels[:n])
    return Inputs(config, log, full.batch(n, plan.held_samples), seed)


def build_trainer(workload: Workload, inputs: Inputs):
    """A fresh trainer for the workload, as a user would construct it."""
    config = inputs.config
    perf = HotlineScheduler(TrainingCostModel(RM2, cluster=single_node(4)))
    model = DLRM(config, seed=inputs.seed)
    common = {"lr": 0.3, "sample_fraction": 0.25, "perf_model": perf}
    if not workload.sharded:
        return HotlineTrainer(model, **common)
    tier = None
    if workload.tier_share is not None:
        tier = workload.tier_share * config.embedding_bytes
    return ShardedHotlineTrainer(model, **workload.sharded, **common, tiered_hot_bytes=tier)


class StoppableLoader(MiniBatchLoader):
    """A loader whose epochs end early once :attr:`stop` is set.

    The benchmark sets the flag from its ``run_step`` wrapper when the
    time budget is spent; the engine then sees empty epochs and finishes
    its loop (``finalize`` included) as it would after the last epoch.
    """

    stop = False

    def epoch(self, prefetch=None, transform=None):
        if self.stop:
            return iter(())
        return self._until_stopped(super().epoch(prefetch, transform))

    def _until_stopped(self, batches):
        try:
            for batch in batches:
                if self.stop:
                    return
                yield batch
        finally:
            batches.close()


#: Epochs handed to the engine: more than any run reaches before the
#: loader stops it, few enough that the empty tail costs nothing.
MAX_EPOCHS = 1000


class Calibrator:
    """A fixed piece of work whose duration measures the machine's speed.

    The host shares its cores with other tenants, and how fast it runs the
    same code drifts by up to a third over seconds to minutes.  The
    calibrator runs the step's four kinds of work — a BLAS GEMM, a row
    gather with a pooled sum, a Python loop, and first writes to fresh
    pages (one kernel page fault each; the K=4 workloads take thousands
    per step) — on small fixed arrays, writing into preallocated outputs
    and mapping its pages directly, so its duration depends on the machine
    and not on the program under test or the state of its heap.
    :meth:`measure` runs it once to bring its arrays back into cache after
    the step evicted them, then times a second run.
    """

    #: Fresh pages written per run.
    PAGES = 64

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 256))
        self._b = rng.standard_normal((256, 256))
        self._product = np.empty((64, 256))
        self._table = rng.standard_normal((4096, 16))
        self._rows = rng.integers(0, 4096, (256, 8))
        self._gathered = np.empty((256, 8, 16))
        self._pooled = np.empty((256, 16))

    def _work(self) -> None:
        np.matmul(self._a, self._b, out=self._product)
        np.take(self._table, self._rows, axis=0, out=self._gathered)
        self._gathered.sum(axis=1, out=self._pooled)
        total = 0
        for i in range(1000):
            total += i
        with mmap.mmap(-1, self.PAGES * mmap.PAGESIZE) as fresh:
            np.frombuffer(fresh, dtype=np.uint8)[:: mmap.PAGESIZE] = 1

    def measure(self, repeats: int = 1) -> float:
        """Median seconds of ``repeats`` warm runs."""
        times = []
        for _ in range(repeats):
            self._work()
            start = perf_counter()
            self._work()
            times.append(perf_counter() - start)
        return float(np.median(times))


#: Calibrations around each set-up: set-up is one long interval, so its
#: speed comes from a block of runs just before it and just after it.
SETUP_CALIBRATIONS = 25


@dataclass
class Run:
    """What one training run observed, step by step."""

    setup_s: float = 0.0
    #: Calibrator seconds measured around the set-up.
    setup_calibration_s: float = 0.0
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    samples: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    outcomes: list[StepOutcome] = field(default_factory=list)
    #: Calibrator seconds measured right after each step.
    calibrations: list[float] = field(default_factory=list)
    #: Seconds the benchmark paused after each step: the calibration, and
    #: once the held-out evaluation.
    pauses: list[float] = field(default_factory=list)
    heldout_logloss: float | None = None
    drift: float | None = None
    #: Minor page faults and kernel CPU seconds of the whole process from
    #: the first steady step to the last step.
    minor_faults: int = 0
    sys_s: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.losses)


def train_once(
    workload: Workload,
    inputs: Inputs,
    plan: Plan,
    seconds: float,
    tracer=None,
) -> Run:
    """Construct, bind and train one trainer until the budget is spent.

    The run stops after the first step that ends at least ``seconds``
    after the first steady step began, once it has taken ``plan.warmup +
    plan.min_steady`` steps and reached ``plan.eval_step``.  After each
    step the calibrator measures the machine's speed, outside the step's
    timing.  With a ``tracer`` every step runs inside its ``trainer.self``
    span and the gap before it is recorded as the loader wait.
    """
    loader = StoppableLoader(
        inputs.log, batch_size=plan.batch(workload), shuffle=True, seed=inputs.seed
    )
    min_steps = max(plan.warmup + plan.min_steady, plan.eval_step)
    run = Run()
    calibrator = Calibrator()
    before_setup = calibrator.measure(SETUP_CALIBRATIONS)
    began = perf_counter()
    trainer = build_trainer(workload, inputs)
    if tracer is not None:
        tracer.instrument(trainer)
    step = trainer.run_step
    resumed = began
    steady_usage = None

    def run_step(batch):
        nonlocal resumed, steady_usage
        index = run.steps
        if index == plan.warmup:
            steady_usage = getrusage(RUSAGE_SELF)
        start = perf_counter()
        if tracer is None:
            outcome = step(batch)
        else:
            if index:
                tracer.add_span(LOADER_WAIT, resumed, start, index)
            tracer.step = index
            try:
                with tracer.span(STEP):
                    outcome = step(batch)
            finally:
                tracer.step = None
        end = perf_counter()
        run.starts.append(start)
        run.ends.append(end)
        run.samples.append(batch.size)
        run.losses.append(outcome.loss)
        run.outcomes.append(outcome)
        if index == 0:
            run.setup_s = end - began
            after_setup = calibrator.measure(SETUP_CALIBRATIONS)
            run.setup_calibration_s = (before_setup + after_setup) / 2
        if index + 1 == plan.eval_step:
            run.heldout_logloss = evaluate(trainer.model, inputs.held_out)["logloss"]
        run.calibrations.append(calibrator.measure())
        run.pauses.append(perf_counter() - end)
        steady_from = run.starts[plan.warmup] if run.steps > plan.warmup else end
        if run.steps >= min_steps and end - steady_from >= seconds:
            loader.stop = True
            usage = getrusage(RUSAGE_SELF)
            run.minor_faults = usage.ru_minflt - steady_usage.ru_minflt
            run.sys_s = usage.ru_stime - steady_usage.ru_stime
        resumed = perf_counter()
        return outcome

    trainer.run_step = run_step
    TrainingEngine(trainer).train(loader, epochs=MAX_EPOCHS)
    if hasattr(trainer, "replica_drift"):
        run.drift = trainer.replica_drift()
    return run


def nonfinite_steps(run: Run) -> int:
    """Number of steps whose loss is not finite."""
    return int(np.count_nonzero(~np.isfinite(np.asarray(run.losses, dtype=float))))
