"""Common interface of all execution-mode performance models."""

from __future__ import annotations

import abc

from repro.hwsim.trace import Timeline
from repro.perf.costs import TrainingCostModel


class OutOfMemoryError(RuntimeError):
    """Raised when a mode cannot hold the model in the available memory.

    HugeCTR's GPU-only mode throws OOM for Criteo Terabyte on fewer than
    four V100s (Figure 22) and for SYN-M2 even on four nodes (Figure 30).
    """


class ExecutionModel(abc.ABC):
    """A training execution schedule evaluated on the shared cost model."""

    #: Human-readable mode name used in figure legends.
    name: str = "execution-model"

    def __init__(self, costs: TrainingCostModel):
        self.costs = costs

    # ------------------------------------------------------------------ #
    # Abstract schedule
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def step_timeline(self, batch_size: int) -> Timeline:
        """Event timeline of one training iteration on a ``batch_size`` batch."""

    def is_feasible(self) -> bool:
        """Whether this mode can hold the model at all (memory capacity)."""
        return self.costs.embedding_fits_cpu()

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def step_time(self, batch_size: int) -> float:
        """Wall-clock seconds of one training iteration."""
        return self.step_timeline(batch_size).makespan()

    def collective_time(self) -> float:
        """Per-iteration dense-gradient synchronisation time.

        The training engine uses this hook to carve the collective term out
        of :meth:`step_time`, so functional runs report a compute vs
        communication split consistent with :mod:`repro.hwsim.collectives`.
        Modes with a different synchronisation scheme (e.g. parameter
        servers) may override it.
        """
        return self.costs.dense_allreduce_time()

    def epoch_time(self, batch_size: int) -> float:
        """Wall-clock seconds for one epoch of the model's dataset."""
        steps = max(1, self.costs.model.dataset.samples_per_epoch // batch_size)
        return steps * self.step_time(batch_size)

    def epochs_per_hour(self, batch_size: int) -> float:
        """Training throughput in epochs per hour (Figure 21's metric)."""
        return 3600.0 / self.epoch_time(batch_size)

    def breakdown(self, batch_size: int) -> dict[str, float]:
        """Per-category time fractions of one iteration (Figures 3-5, 20)."""
        return self.step_timeline(batch_size).category_fractions()

    def speedup_over(self, other: ExecutionModel, batch_size: int) -> float:
        """This mode's speedup relative to ``other`` at equal batch size."""
        return other.step_time(batch_size) / self.step_time(batch_size)
