"""Per-layer spans for the step benchmark, recorded from outside ``src/``.

The tracer wraps public calls into each layer for the duration of a traced
run.  It replaces the attribute where the caller looks it up — the class
for a method, the importing module for a function, the instance for a
per-model object — and restores every attribute when the run ends, so the
library itself carries no tracing code.

Spans nest per thread.  Each span's *self* time is its duration minus the
durations of its direct children, so the self times of one ``run_step``
tree add up to that step's wall time exactly.  Spans are kept in memory
and exported once, as Chrome trace-event JSON that opens in Perfetto.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.core.distributed
import repro.core.pipeline
import repro.models.dlrm
from repro.core.hotset import HotSetIndex
from repro.core.lookahead import CachedEmbeddingPipeline
from repro.core.reducer import GradientBucketReducer, SparseGradientExchange
from repro.core.schedule import ComposedSchedule
from repro.models.dlrm import DLRM
from repro.nn.embedding import EmbeddingBag, TieredEmbeddingStore
from repro.nn.interaction import DotInteractionKernel

#: Name of the span around each ``run_step`` call; its self time is the
#: trainer's own code (``trainer.self``).
STEP = "trainer.self"
#: Synthetic span covering the gap between consecutive ``run_step`` calls.
LOADER_WAIT = "data.loader.wait"
#: Layer classified on the loader's prefetch thread, off the step path.
CLASSIFY = "core.hotset.classify_prefetch"

_MISSING = object()


def _gather_rows(args, _result) -> dict[str, float]:
    return {"nn.embedding.gather_rows": float(args[1].size)}


def _scatter_nnz(_args, result) -> dict[str, float]:
    return {"nn.embedding.scatter_nnz": float(sum(grad.nnz for grad in result))}


def _dense_partials(args, _result) -> dict[str, float]:
    partials = args[1]
    return {
        "core.reducer.dense_partials": float(len(partials)),
        "core.reducer.dense_bytes": float(sum(p.nbytes for p in partials)),
    }


#: (layer, owner, attribute, counter) for every call wrapped at class or
#: module level.  Counters turn a call's arguments/result into per-step
#: work counts.
GLOBAL_PATCHES = (
    ("nn.embedding.gather", EmbeddingBag, "forward", _gather_rows),
    ("nn.embedding.tier", TieredEmbeddingStore, "touch", None),
    ("nn.embedding.scatter", EmbeddingBag, "backward_segments", _scatter_nnz),
    ("nn.interaction.dot", DotInteractionKernel, "forward", None),
    ("nn.interaction.dot", DotInteractionKernel, "backward", None),
    ("nn.loss.epilogue", repro.models.dlrm, "fused_bce_epilogue", None),
    ("models.dlrm.update", DLRM, "apply_sparse_updates", None),
    ("models.dlrm.update", DLRM, "apply_dense_update", None),
    ("core.reducer.dense_reduce", GradientBucketReducer, "reduce", _dense_partials),
    ("core.reducer.sparse_exchange", SparseGradientExchange, "exchange", None),
    ("core.reducer.sparse_exchange", SparseGradientExchange, "route", None),
    ("core.lookahead.observe", CachedEmbeddingPipeline, "observe", None),
    ("core.lookahead.observe", CachedEmbeddingPipeline, "begin_epoch", None),
    ("core.lookahead.defer", CachedEmbeddingPipeline, "defer", None),
    ("core.classifier.split", repro.core.pipeline, "split_minibatch", None),
    ("core.classifier.split", repro.core.distributed, "split_minibatch", None),
    (CLASSIFY, HotSetIndex, "classify", None),
    ("core.schedule.pricing", ComposedSchedule, "exposed_time", None),
    ("core.schedule.pricing", ComposedSchedule, "lane_exposures", None),
)

#: Methods wrapped on each model's packed bottom/top MLP instance.
PACKED_METHODS = ("forward", "forward_prelogits", "backward", "accumulate_segment")

#: Every layer the tracer can report, in display order (step-path layers
#: first, then the off-path ones).
LAYERS = (
    "nn.gemm.bottom_mlp",
    "nn.gemm.top_mlp",
    "nn.interaction.dot",
    "nn.loss.epilogue",
    "nn.embedding.gather",
    "nn.embedding.tier",
    "nn.embedding.scatter",
    "models.dlrm.update",
    "core.reducer.dense_reduce",
    "core.reducer.sparse_exchange",
    "core.lookahead.observe",
    "core.lookahead.defer",
    "core.classifier.split",
    "core.schedule.pricing",
    STEP,
    LOADER_WAIT,
    CLASSIFY,
)


@dataclass
class Span:
    """One finished span: where it ran, when, and how much was its own."""

    name: str
    tid: int
    start: float
    duration: float
    self_time: float
    step: int | None


@dataclass
class _Frame:
    name: str
    start: float
    child_time: float = 0.0


@dataclass
class Tracer:
    """Collects nested spans and per-step counters while patches are installed.

    ``step`` is the index of the ``run_step`` call in progress on the main
    thread (``None`` between steps).  Main-thread spans and all counters
    are tagged with it so the caller can keep only steady-state steps;
    spans on other threads are tagged ``None``.
    """

    spans: list[Span] = field(default_factory=list)
    counters: dict[int, dict[str, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )
    thread_names: dict[int, str] = field(default_factory=dict)
    step: int | None = None
    _local: threading.local = field(default_factory=threading.local)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self.thread_names[thread.ident] = thread.name
        return stack

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the enclosed block on the calling thread."""
        stack = self._stack()
        frame = _Frame(name, perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame.start
            if stack:
                stack[-1].child_time += duration
            tid = threading.get_ident()
            step = self.step if tid == threading.main_thread().ident else None
            self.spans.append(
                Span(name, tid, frame.start, duration, duration - frame.child_time, step)
            )

    def add_span(self, name: str, start: float, end: float, step: int | None) -> None:
        """Record a span measured by the caller (no nesting)."""
        self._stack()
        self.spans.append(
            Span(name, threading.get_ident(), start, end - start, end - start, step)
        )

    def count(self, values: dict[str, float]) -> None:
        """Add work counts to the current step's counters."""
        if self.step is None:
            return
        bucket = self.counters[self.step]
        for key, value in values.items():
            bucket[key] += value

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn, counter=None, *, off_main_only: bool = False):
        tracer = self
        main = threading.main_thread()

        def traced(*args, **kwargs):
            if off_main_only and threading.current_thread() is main:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None and threading.current_thread() is main:
                tracer.count(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        own = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._restore.append((owner, attr, own))
        setattr(
            owner,
            attr,
            self._wrap(name, getattr(owner, attr), counter, off_main_only=name == CLASSIFY),
        )

    def install(self) -> None:
        """Wrap every class- and module-level layer call."""
        for name, owner, attr, counter in GLOBAL_PATCHES:
            self.patch(owner, attr, name, counter)

    def instrument(self, trainer) -> None:
        """Wrap the per-instance layers of a constructed trainer.

        Each replica model's packed MLPs and the trainer's perf model are
        objects the trainer holds, so they are wrapped on the instance.
        """
        replicas = getattr(trainer, "replicas", None)
        models = [replica.model for replica in replicas] if replicas else [trainer.model]
        for model in models:
            for layer, packed in (
                ("nn.gemm.bottom_mlp", model._packed_bottom),
                ("nn.gemm.top_mlp", model._packed_top),
            ):
                for method in PACKED_METHODS:
                    self.patch(packed, method, layer)
        if trainer.perf_model is not None:
            self.patch(trainer.perf_model, "step_time", "core.schedule.pricing")

    def restore(self) -> None:
        """Put back every attribute :meth:`patch` replaced, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def chrome_trace(self, path: Path, steps: range) -> None:
        """Write the spans of ``steps`` as Chrome trace-event JSON.

        Off-main-thread spans are kept when they start inside the window
        the main thread's steps cover.  Events are complete events
        (``ph: "X"``) in microseconds, one ``tid`` per thread.
        """
        main = threading.main_thread().ident
        window = [s for s in self.spans if s.tid == main and s.step in steps]
        if not window:
            return
        lo = min(s.start for s in window)
        hi = max(s.start + s.duration for s in window)
        chosen = window + [
            s for s in self.spans if s.tid != main and lo <= s.start <= hi
        ]
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
            for tid, name in self.thread_names.items()
        ]
        events.extend(
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - lo) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": {"step": s.step, "self_us": s.self_time * 1e6},
            }
            for s in sorted(chosen, key=lambda s: (s.start, -s.duration))
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's global patches for the enclosed block."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()
