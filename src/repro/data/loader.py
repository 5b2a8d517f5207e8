"""Mini-batch loader over a synthetic click log.

Supports sequential epochs, optional shuffling, opt-in background-thread
prefetching (double-buffering batch assembly under the training step), the
sampling mode used by Hotline's learning phase (a uniformly sampled ~5 %
subset of mini-batches for online popularity profiling).  Data-parallel
trainers deal each mini-batch into contiguous per-shard views with
:meth:`~repro.data.batch.MiniBatch.shards`.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable, Iterator

import numpy as np

from repro.data.batch import MiniBatch
from repro.data.synthetic import SyntheticClickLog

#: Queue message tags used by the prefetch worker.
_ITEM, _DONE, _ERROR = range(3)


def _prefetched(producer: Iterator[MiniBatch], depth: int) -> Iterator[MiniBatch]:
    """Drain ``producer`` on a background thread through a bounded queue.

    The worker assembles up to ``depth`` batches ahead of the consumer, so
    batch materialisation overlaps the training step.  Exceptions raised by
    the producer are re-raised in the consumer; abandoning the iterator
    (early ``break`` or an explicit ``close()``) signals the worker, drains
    the queue it may be blocked on, and *joins* it — no
    ``minibatch-prefetch`` thread outlives the generator.
    """
    buffer: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()

    def put(message) -> bool:
        while not stop.is_set():
            try:
                buffer.put(message, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def worker() -> None:
        try:
            for item in producer:
                if not put((_ITEM, item)):
                    return
            put((_DONE, None))
        except BaseException as exc:  # propagated to the consumer
            put((_ERROR, exc))

    thread = threading.Thread(target=worker, name="minibatch-prefetch", daemon=True)
    thread.start()
    try:
        while True:
            tag, payload = buffer.get()
            if tag == _DONE:
                return
            if tag == _ERROR:
                raise payload
            yield payload
    finally:
        # Runs on exhaustion, error, and GeneratorExit (close / abandon)
        # alike.  The stop event alone is not enough: a worker blocked on
        # the full queue would only notice it on its next put timeout, and
        # nothing ever joined the thread — the leak this block fixes.
        # Draining unblocks the worker immediately; the join loop keeps
        # draining until the thread is really gone.
        stop.set()
        while thread.is_alive():
            try:
                while True:
                    buffer.get_nowait()
            except queue.Empty:
                pass
            thread.join(timeout=0.05)


class MiniBatchLoader:
    """Iterates a :class:`SyntheticClickLog` in fixed-size mini-batches.

    Args:
        log: The click log to iterate.
        batch_size: Samples per mini-batch.
        shuffle: Reshuffle the sample order every epoch.
        drop_last: Drop the trailing partial batch.
        seed: Seed of the epoch-shuffling RNG.
        prefetch: Default prefetch depth: ``0`` pins batch assembly
            synchronous (honoured by the training engine as an explicit
            opt-out); ``n >= 1`` assembles up to ``n`` batches ahead on a
            background thread.  The default of ``None`` expresses no
            preference — direct iteration stays synchronous, while the
            engine double-buffers.  Callers can override per epoch via
            :meth:`epoch`.
    """

    def __init__(
        self,
        log: SyntheticClickLog,
        batch_size: int,
        *,
        shuffle: bool = False,
        drop_last: bool = True,
        seed: int = 0,
        prefetch: int | None = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if prefetch is not None and prefetch < 0:
            raise ValueError("prefetch must be >= 0")
        self.log = log
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.seed = seed
        self.prefetch = prefetch
        self._rng = np.random.default_rng(seed)
        #: Sample order of the most recently started epoch (``None`` =
        #: sequential).  Drawn eagerly by :meth:`epoch`, so lookahead
        #: consumers (:mod:`repro.core.lookahead`) can mirror the in-flight
        #: epoch's batches without touching the shuffling RNG.
        self.last_epoch_order: np.ndarray | None = None

    def __len__(self) -> int:
        """Number of mini-batches per epoch."""
        full, remainder = divmod(self.log.num_samples, self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return full

    # ------------------------------------------------------------------ #
    # Epoch iteration
    # ------------------------------------------------------------------ #
    def _batch_at(self, order: np.ndarray | None, start: int, stop: int) -> MiniBatch:
        """Materialise the mini-batch covering ``[start, stop)`` of the epoch.

        Sequential epochs slice the log directly (basic slicing — views, no
        copy); shuffled epochs gather through the permutation.
        """
        if order is None:
            return MiniBatch(
                dense=self.log.dense[start:stop],
                sparse=self.log.sparse[start:stop],
                labels=self.log.labels[start:stop],
            )
        indices = order[start:stop]
        return MiniBatch(
            dense=self.log.dense[indices],
            sparse=self.log.sparse[indices],
            labels=self.log.labels[indices],
        )

    def batch_bounds(self) -> Iterator[tuple[int, int]]:
        """``[start, stop)`` sample bounds of each batch of one epoch.

        The single authority on the epoch's batching (including the
        ``drop_last`` rule): both batch materialisation and lookahead
        consumers (:func:`repro.core.lookahead.epoch_row_stream`) walk
        these bounds, so they can never disagree on which samples form
        batch ``j``.
        """
        for start in range(0, self.log.num_samples, self.batch_size):
            stop = min(start + self.batch_size, self.log.num_samples)
            if stop - start < self.batch_size and self.drop_last:
                break
            yield start, stop

    def _epoch_batches(self, order: np.ndarray | None) -> Iterator[MiniBatch]:
        """Yield one epoch of mini-batches for a fixed sample order."""
        for start, stop in self.batch_bounds():
            yield self._batch_at(order, start, stop)

    def epoch(
        self,
        prefetch: int | None = None,
        transform: Callable[[MiniBatch], MiniBatch] | None = None,
    ) -> Iterator[MiniBatch]:
        """One epoch of mini-batches, optionally prefetched.

        The shuffle order is drawn eagerly (before any background thread
        starts), so prefetching never changes which batches an epoch yields
        — only when they are assembled.

        ``transform`` is applied to every batch right after assembly — and,
        with prefetching enabled, *on the prefetch worker thread*, so work
        like the next batch's µ-batch classification overlaps the current
        training step instead of extending it.  The transform must return
        the (possibly annotated) batch and be safe to run concurrently
        with the consumer's step.
        """
        order: np.ndarray | None = None
        if self.shuffle:
            order = np.arange(self.log.num_samples)
            self._rng.shuffle(order)
        self.last_epoch_order = order
        producer = self._epoch_batches(order)
        if transform is not None:
            producer = (transform(batch) for batch in producer)
        depth = self.prefetch if prefetch is None else prefetch
        if depth is not None and depth > 0:
            return _prefetched(producer, depth)
        return producer

    def __iter__(self) -> Iterator[MiniBatch]:
        """Yield mini-batches for one epoch (honours the ``prefetch`` default)."""
        return self.epoch()

    # ------------------------------------------------------------------ #
    # Learning-phase sampling
    # ------------------------------------------------------------------ #
    def sample_batches(self, fraction: float, seed: int = 0) -> list[MiniBatch]:
        """Uniformly sample a fraction of this epoch's mini-batches.

        This is the input to Hotline's learning phase: the paper samples
        ~5 % of mini-batches to identify >90 % of frequently-accessed
        embeddings with <=5 % profiling overhead (Challenge 3).

        Sampling is side-effect free: it draws from fresh RNGs seeded by
        ``seed`` (for the choice of batches) and the loader's own seed (for
        the shuffled epoch order it mirrors), never from the loader's
        epoch-shuffling RNG — so profiling mid-run does not perturb the
        order of subsequent epochs.  Only the chosen batches are
        materialised; the log is sliced directly rather than enumerating
        every batch of the epoch.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        total = len(self)
        count = max(1, int(round(total * fraction)))
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(total, size=min(count, total), replace=False))
        order: np.ndarray | None = None
        if self.shuffle:
            # Mirror the first epoch order of a freshly-seeded loader without
            # touching self._rng.
            order = np.arange(self.log.num_samples)
            np.random.default_rng(self.seed).shuffle(order)
        return [
            self._batch_at(
                order,
                int(index) * self.batch_size,
                min((int(index) + 1) * self.batch_size, self.log.num_samples),
            )
            for index in chosen
        ]
