"""The layout-aware Hotline pipeline scheduler (Figure 12 of the paper).

Given the access-aware placement (popular rows replicated on GPU HBM, the
long tail in CPU DRAM), the scheduler turns every mini-batch into the
following steady-state pipeline:

1. The accelerator segregates the *next* mini-batch into popular and
   non-popular µ-batches while the GPUs train on the current one, so the
   segregation latency is hidden (unlike CPU-based segregation, Figure 7).
2. The popular µ-batch is dispatched to the GPUs immediately: its entire
   working set is already in HBM.
3. Concurrently, the accelerator gathers the non-popular µ-batch's working
   parameters — cold rows from CPU DRAM over DMA, hot rows from a GPU
   replica in round-robin — reduces them, and scatters the vectors to the
   GPUs.  This gather is exposed only if it takes longer than the popular
   µ-batch's execution (Figure 25 shows it stays hidden down to a 3:7
   popular ratio).
4. The non-popular µ-batch executes on the GPUs using the staged vectors.
5. Dense gradients are all-reduced; popular rows are updated in HBM,
   non-popular rows are written back to CPU DRAM by DMA (off the critical
   path).  No coherence traffic is ever needed because each row has exactly
   one home.

The scheduler is a *performance model*: it produces per-iteration timelines
and times.  The functional (accuracy) counterpart is
:class:`repro.core.distributed.ShardedHotlineTrainer`, on one GPU
:class:`repro.core.pipeline.HotlineTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import ExecutionModel
from repro.core.accelerator import HotlineAccelerator
from repro.hwsim.trace import Timeline
from repro.perf.costs import TrainingCostModel


@dataclass(frozen=True)
class HotlineStepPlan:
    """Derived quantities of one Hotline iteration.

    Attributes:
        batch_size: Mini-batch size.
        popular_size: Inputs in the popular µ-batch.
        non_popular_size: Inputs in the non-popular µ-batch.
        cold_rows: Non-popular rows gathered from CPU DRAM.
        hot_rows: Rows of the non-popular µ-batch read from a GPU replica.
        popular_exec_time: GPU time of the popular µ-batch.
        gather_time: Accelerator time to gather + reduce + scatter the
            non-popular working parameters.
        exposed_gather_time: Portion of the gather not hidden under the
            popular µ-batch's execution.
        non_popular_exec_time: GPU time of the non-popular µ-batch.
        sync_time: All-reduce + optimizer time.
        step_time: Total iteration time.
    """

    batch_size: int
    popular_size: int
    non_popular_size: int
    cold_rows: int
    hot_rows: int
    popular_exec_time: float
    gather_time: float
    exposed_gather_time: float
    non_popular_exec_time: float
    sync_time: float
    step_time: float

    @property
    def popular_fraction(self) -> float:
        """Fraction of the mini-batch executed directly from HBM."""
        return self.popular_size / self.batch_size if self.batch_size else 0.0

    @property
    def gather_hidden(self) -> bool:
        """Whether the non-popular gather is fully hidden."""
        return self.exposed_gather_time <= 1e-12


class HotlineScheduler(ExecutionModel):
    """Hotline's data- and model-aware pipeline schedule."""

    name = "Hotline"

    def __init__(
        self,
        costs: TrainingCostModel,
        accelerator: HotlineAccelerator | None = None,
        *,
        online_profiling_overhead: float = 0.02,
    ):
        super().__init__(costs)
        self.accelerator = accelerator or HotlineAccelerator(
            costs.model.dataset.rows_per_table, row_bytes=costs.model.bytes_per_lookup()
        )
        self.online_profiling_overhead = online_profiling_overhead

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan_step(
        self, batch_size: int, hot_fraction: float | None = None
    ) -> HotlineStepPlan:
        """Compute the phase durations of one steady-state iteration."""
        costs = self.costs
        hot_fraction = costs.hot_fraction if hot_fraction is None else hot_fraction
        num_gpus = costs.num_gpus
        popular_size = int(round(batch_size * hot_fraction))
        non_popular_size = batch_size - popular_size

        samples_per_gpu = max(1, batch_size // num_gpus)
        non_popular_per_gpu = max(1, non_popular_size // num_gpus) if non_popular_size else 0

        # The GPUs execute the same total MLP work as the baseline — the two
        # µ-batches are just two segments of it — so the MLP cost is priced
        # once for the full per-GPU share and apportioned by µ-batch size.
        mlp_total = costs.mlp_forward_time(samples_per_gpu) + costs.mlp_backward_time(
            samples_per_gpu
        )
        popular_share = popular_size / batch_size if batch_size else 0.0

        # Popular µ-batch: everything from HBM.
        popular_exec = 0.0
        if popular_size:
            popular_exec = (
                costs.gpu_embedding_lookup_time(max(1, popular_size // num_gpus))
                + mlp_total * popular_share
            )

        # Non-popular µ-batch working-set gather by the accelerator.
        cold_rows = 0
        hot_rows = 0
        gather = 0.0
        exposed_gather = 0.0
        non_popular_exec = 0.0
        if non_popular_size:
            lookups = costs.lookups(non_popular_size)
            cold_rows = int(round(lookups * (1.0 - costs.hot_lookup_fraction)))
            hot_rows = lookups - cold_rows
            # Only the CPU-resident (cold) rows travel through the
            # accelerator; hot rows of the non-popular µ-batch are read by
            # the GPUs directly from their local replica.  In a multi-node
            # cluster every node's accelerator gathers its own share of the
            # mini-batch concurrently.
            num_nodes = costs.cluster.num_nodes
            cold_rows_per_node = max(1, cold_rows // num_nodes)
            gpus_per_node = costs.cluster.node.num_gpus
            gather = self.accelerator.gather_time(
                cold_rows_per_node, 0, dim=costs.model.embedding_dim
            ) + self.accelerator.scatter_time(cold_rows_per_node, gpus_per_node)
            exposed_gather = max(0.0, gather - popular_exec)
            non_popular_exec = (
                mlp_total * (1.0 - popular_share)
                + costs.gpu_embedding_lookup_time(non_popular_per_gpu) * costs.hot_lookup_fraction
            )

        # Synchronisation + optimizer.  Popular rows update in HBM; cold-row
        # write-back happens by DMA off the critical path.
        sync = (
            costs.dense_allreduce_time()
            + costs.dense_optimizer_time()
            + costs.gpu_embedding_update_time(samples_per_gpu)
        )

        # The accelerator takes over segregation and parameter gathering but
        # the host still pays its per-iteration data-loading overhead.
        overhead = costs.overheads.gpu_iteration_overhead_s

        step_time = overhead + popular_exec + exposed_gather + non_popular_exec + sync
        return HotlineStepPlan(
            batch_size=batch_size,
            popular_size=popular_size,
            non_popular_size=non_popular_size,
            cold_rows=cold_rows,
            hot_rows=hot_rows,
            popular_exec_time=popular_exec,
            gather_time=gather,
            exposed_gather_time=exposed_gather,
            non_popular_exec_time=non_popular_exec,
            sync_time=sync,
            step_time=step_time,
        )

    # ------------------------------------------------------------------ #
    # ExecutionModel interface
    # ------------------------------------------------------------------ #
    def step_timeline(self, batch_size: int) -> Timeline:
        """Event timeline of one steady-state Hotline iteration."""
        costs = self.costs
        plan = self.plan_step(batch_size)
        timeline = Timeline()
        now = 0.0

        overhead = costs.overheads.gpu_iteration_overhead_s
        timeline.add("cpu", "overhead", now, overhead, "read mini-batch")
        now += overhead

        # Segregation of the *next* mini-batch runs on the accelerator lane,
        # concurrent with GPU execution (it never extends the makespan
        # because it is far shorter than the popular µ-batch's execution).
        segregation = self.accelerator.segregation_time(
            batch_size, costs.model.dataset.lookups_per_sample()
        )
        timeline.add("accel", "overhead", now, segregation, "segregate next mini-batch")

        timeline.add("gpu", "mlp", now, plan.popular_exec_time, "popular µ-batch fwd+bwd")
        timeline.add(
            "accel", "embedding", now, plan.gather_time, "gather non-popular parameters"
        )
        now += plan.popular_exec_time + plan.exposed_gather_time

        timeline.add("gpu", "mlp", now, plan.non_popular_exec_time, "non-popular µ-batch fwd+bwd")
        now += plan.non_popular_exec_time

        allreduce = costs.dense_allreduce_time()
        timeline.add("gpu", "comm", now, allreduce, "dense all-reduce")
        now += allreduce

        optimizer = plan.sync_time - allreduce
        timeline.add("gpu", "optimizer", now, optimizer, "HBM embedding + dense update")
        # Cold-row write-back happens on the accelerator/PCIe lane and is off
        # the critical path.
        writeback = self.accelerator.writeback_time(plan.cold_rows)
        timeline.add("accel", "optimizer", now, writeback, "DMA write-back of cold rows")
        now += optimizer
        return timeline

    def epoch_time(self, batch_size: int) -> float:
        """Epoch time including the (mostly hidden) online-profiling overhead."""
        base = super().epoch_time(batch_size)
        return base * (1.0 + self.online_profiling_overhead)
