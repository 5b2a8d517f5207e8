"""Registry of timing-model experiments (the paper's performance figures).

Each experiment is a named, parameter-free callable returning plain Python
data (dicts / lists) ready for tabulation or plotting.  The heavy functional
experiments (full model training at paper scale) live in the benchmark
harness; the functional experiments registered here — ``fig30f`` (sharded
scaling), ``fig30r`` (reducer-mode sweep), and ``fig30s`` (stale-k ×
lookahead-window convergence-vs-exposure sweep) — are deliberately sized to
finish in seconds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.breakdown import normalised_breakdown
from repro.baselines import (
    FAE,
    HotlineCPU,
    HugeCTRGPUOnly,
    HybridCPUGPU,
    ScratchPipeIdeal,
    XDLParameterServer,
)
from repro.core import HotlineScheduler
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.reducer import GradientBucketReducer
from repro.core.schedule import CommOp, StepSchedule, allreduce_ops, pipeline_makespan
from repro.data import MiniBatchLoader, generate_click_log
from repro.hwsim import DMAEngine, HierarchicalTopology, multi_node, single_node
from repro.models import RM1, RM2, RM3, RM4, SYN_M1, SYN_M2
from repro.models.dlrm import DLRM
from repro.perf import TrainingCostModel

#: The four real-world workloads in figure order.
_WORKLOADS = [
    ("Criteo Kaggle", RM2),
    ("Taobao Alibaba", RM1),
    ("Criteo Terabyte", RM3),
    ("Avazu", RM4),
]

_BATCH_PER_GPU = 1024


def _costs(config, gpus: int = 4, nodes: int = 1) -> TrainingCostModel:
    cluster = single_node(gpus) if nodes == 1 else multi_node(nodes, gpus)
    return TrainingCostModel(config, cluster=cluster)


@dataclass(frozen=True)
class Experiment:
    """One regenerable experiment.

    Attributes:
        id: Short identifier (e.g. ``"fig19"``).
        title: Human-readable description.
        run: Zero-argument callable producing the experiment's data.
    """

    id: str
    title: str
    run: Callable[[], dict]


# --------------------------------------------------------------------------- #
# Individual experiments
# --------------------------------------------------------------------------- #
def _fig3_hybrid_breakdown() -> dict:
    return {
        label: normalised_breakdown(
            HybridCPUGPU(_costs(config)).step_timeline(4 * _BATCH_PER_GPU)
        )
        for label, config in _WORKLOADS
    }


def _fig4_gpu_only_breakdown() -> dict:
    result = {}
    for label, config in _WORKLOADS:
        mode = HugeCTRGPUOnly(_costs(config))
        if mode.is_feasible():
            result[label] = normalised_breakdown(mode.step_timeline(4 * _BATCH_PER_GPU))
    return result


def _fig5_multinode_breakdown() -> dict:
    result = {}
    for label, config in [("Criteo Kaggle", RM2), ("Criteo Terabyte", RM3)]:
        for nodes in (1, 2, 4):
            mode = HugeCTRGPUOnly(_costs(config, nodes=nodes))
            if mode.is_feasible():
                batch = 4 * nodes * _BATCH_PER_GPU
                result[f"{label} / {nodes} node(s)"] = normalised_breakdown(
                    mode.step_timeline(batch)
                )
    return result


def _fig19_speedups() -> dict:
    result = {}
    for label, config in _WORKLOADS:
        for gpus in (1, 2, 4):
            costs = _costs(config, gpus=gpus)
            batch = gpus * _BATCH_PER_GPU
            hotline = HotlineScheduler(costs)
            result[f"{label} / {gpus} GPU"] = {
                "over_xdl": hotline.speedup_over(XDLParameterServer(costs), batch),
                "over_dlrm": hotline.speedup_over(HybridCPUGPU(costs), batch),
                "over_fae": hotline.speedup_over(FAE(costs), batch),
            }
    return result


def _fig21_throughput() -> dict:
    result = {}
    for label, config in _WORKLOADS:
        costs = _costs(config)
        result[label] = {
            "hotline_epochs_per_hour": HotlineScheduler(costs).epochs_per_hour(4096),
            "dlrm_epochs_per_hour": HybridCPUGPU(costs).epochs_per_hour(4096),
        }
    return result


def _fig22_hugectr() -> dict:
    result = {}
    for label, config in [("Criteo Kaggle", RM2), ("Criteo Terabyte", RM3)]:
        for gpus in (1, 2, 4):
            costs = _costs(config, gpus=gpus)
            batch = gpus * _BATCH_PER_GPU
            hugectr = HugeCTRGPUOnly(costs)
            key = f"{label} / {gpus} GPU"
            if hugectr.is_feasible():
                result[key] = HotlineScheduler(costs).speedup_over(hugectr, batch)
            else:
                result[key] = "OOM"
    return result


def _fig23_hotline_cpu() -> dict:
    return {
        f"{label} / {gpus} GPU": HotlineScheduler(_costs(config, gpus=gpus)).speedup_over(
            HotlineCPU(_costs(config, gpus=gpus)), gpus * _BATCH_PER_GPU
        )
        for label, config in _WORKLOADS
        for gpus in (1, 2, 4)
    }


def _fig24_scratchpipe() -> dict:
    return {
        f"{label} / {gpus} GPU": HotlineScheduler(_costs(config, gpus=gpus)).speedup_over(
            ScratchPipeIdeal(_costs(config, gpus=gpus)), gpus * _BATCH_PER_GPU
        )
        for label, config in _WORKLOADS
        for gpus in (1, 2, 4)
    }


def _fig25_ratio_sweep() -> dict:
    scheduler = HotlineScheduler(_costs(RM3))
    result = {}
    for ratio in (0.2, 0.3, 0.4, 0.6, 0.8, 0.9):
        plan = scheduler.plan_step(4096, hot_fraction=ratio)
        result[ratio] = {
            "popular_exec_ms": plan.popular_exec_time * 1e3,
            "gather_ms": plan.gather_time * 1e3,
            "exposed_ms": plan.exposed_gather_time * 1e3,
            "hidden": plan.gather_hidden,
        }
    return result


def _fig26_batch_sweep() -> dict:
    result = {}
    for label, config in _WORKLOADS:
        costs = _costs(config)
        hotline = HotlineScheduler(costs)
        hybrid = HybridCPUGPU(costs)
        result[label] = {
            batch: hotline.speedup_over(hybrid, batch)
            for batch in (1024, 2048, 4096, 8192, 16384)
        }
    return result


def _fig28_synthetic_models() -> dict:
    result = {}
    for config in (SYN_M1, SYN_M2):
        costs = _costs(config)
        result[config.name] = {
            "speedup_over_dlrm": HotlineScheduler(costs).speedup_over(
                HybridCPUGPU(costs), 4096
            ),
            "embedding_gb": config.embedding_gigabytes,
        }
    return result


def _fig30_multinode() -> dict:
    result = {}
    for config in (SYN_M1, SYN_M2):
        for nodes in (1, 2, 4):
            costs = _costs(config, nodes=nodes)
            batch = 4 * nodes * _BATCH_PER_GPU
            hugectr = HugeCTRGPUOnly(costs)
            key = f"{config.name} / {nodes} node(s)"
            if hugectr.is_feasible():
                result[key] = HotlineScheduler(costs).speedup_over(hugectr, batch)
            else:
                result[key] = "OOM"
    return result


def _fig30_functional() -> dict:
    """Multi-node scaling from a *functional* sharded run (fig30 companion).

    Unlike ``fig30`` (pure timing model), this trains a real (scaled-down)
    DLRM with :class:`~repro.core.distributed.ShardedHotlineTrainer` in
    sync mode at 4 shards per node and reports simulated per-shard compute
    plus the hierarchical all-reduce term from
    :mod:`repro.hwsim.collectives` (the default 4 MiB bucket holds the
    whole dense gradient, so the term is one unbucketed collective).  The
    recorded losses are numerically identical across node counts (Eq. 5
    across shards), so the scaling curve is backed by an actual training
    result rather than a simulation alone.  ``fig30r`` sweeps the
    reducer modes.
    """
    config = RM2.scaled(max_rows_per_table=600, samples_per_epoch=1024)
    log = generate_click_log(config.dataset, 1024, seed=23)
    loader = MiniBatchLoader(log, batch_size=256)
    result = {}
    for nodes in (1, 2, 4):
        shards = 4 * nodes
        cluster = single_node(4) if nodes == 1 else multi_node(nodes, 4)
        trainer = ShardedHotlineTrainer(
            DLRM(config, seed=5),
            shards,
            cluster=cluster,
            lr=0.1,
            sample_fraction=0.25,
            perf_model=HotlineScheduler(TrainingCostModel(config, cluster=cluster)),
        )
        run = trainer.train(loader, epochs=1)
        result[f"{nodes} node(s)"] = {
            "shards": shards,
            "final_loss": run.losses[-1],
            "simulated_time_s": run.simulated_time_s,
            "compute_time_s": run.compute_time_s,
            "communication_time_s": run.communication_time_s,
            "mean_popular_fraction": run.mean_popular_fraction,
        }
    return result


def _fig30_replicated() -> dict:
    """Staleness/overlap sweep over truly independent replicas (fig30r).

    Where ``fig30f`` trained one shared numeric replica, this sweep runs
    :class:`~repro.core.distributed.ShardedHotlineTrainer` with K genuinely
    separate model replicas, row-partitioned embedding tables, and a small
    bucket size (64 KiB) so the dense all-reduce spans several buckets.  For
    every node count it reports the three reducer modes side by side:

    * ``sync`` — all bucket wire time exposed after backward;
    * ``overlap`` — buckets pipeline behind backward, only the tail is
      exposed (numerics identical to ``sync``);
    * ``stale-1`` — the reduce hides under the next step's compute window;
      only wire time beyond that window is exposed (here the window dwarfs
      the wire time, so nothing is), and the reduced dense gradient lands
      one step late (the only mode that changes the losses).

    Per-bucket wire time comes straight from
    :attr:`~repro.core.engine.TrainingResult.bucket_comm_s`, and the
    reported ``replica_drift`` is exactly ``0.0`` — identical updates keep
    the K replicas bit-identical even under staleness.
    """
    config = RM2.scaled(max_rows_per_table=600, samples_per_epoch=1024)
    log = generate_click_log(config.dataset, 1024, seed=23)
    loader = MiniBatchLoader(log, batch_size=256)
    result = {}
    for nodes in (1, 2):
        shards = 4 * nodes
        cluster = single_node(4) if nodes == 1 else multi_node(nodes, 4)
        for mode in ("sync", "overlap", "stale-1"):
            trainer = ShardedHotlineTrainer(
                DLRM(config, seed=5),
                shards,
                cluster=cluster,
                lr=0.1,
                sample_fraction=0.25,
                bucket_bytes=64 * 1024,
                mode=mode,
                partition_embeddings=True,
                perf_model=HotlineScheduler(TrainingCostModel(config, cluster=cluster)),
            )
            run = trainer.train(loader, epochs=1)
            result[f"{nodes} node(s) / {mode}"] = {
                "shards": shards,
                "final_loss": run.losses[-1],
                "simulated_time_s": run.simulated_time_s,
                "compute_time_s": run.compute_time_s,
                "exposed_communication_s": run.communication_time_s,
                "per_bucket_comm_s": list(run.bucket_comm_s),
                "num_buckets": len(run.bucket_comm_s),
                "remote_lookups_last_step": trainer.last_remote_lookups,
                "replica_drift": trainer.replica_drift(),
            }
    return result


class _FixedComputeModel:
    """Constant-compute stand-in perf model for the staleness sweep.

    The convergence-vs-exposure story needs a compute window comparable to
    the dense wire time (otherwise every staleness depth hides everything
    and the exposure curve is flat); pinning the window to a chosen
    fraction of the wire time makes the ``max(0, wire - k * window)``
    shrinkage visible across k ∈ {0, 1, 2, 4}.
    """

    def __init__(self, step_s: float):
        self.step_s = step_s

    def step_time(self, batch_size: int) -> float:
        return self.step_s

    def collective_time(self) -> float:
        return 0.0


def _fig30_stale_lookahead() -> dict:
    """Convergence-vs-exposure sweep of stale-k × lookahead window (fig30s).

    Trains the true multi-replica trainer with the bounded-staleness knobs
    of this PR: the dense all-reduce runs ``stale-k`` (a k-deep pipeline of
    in-flight reduces; ``stale-0`` ≡ ``sync``) and the BagPipe-style
    :class:`~repro.core.lookahead.CachedEmbeddingPipeline` walks the epoch
    W batches ahead, prefetching rows and deferring sparse write-backs
    under the same bound k.  The compute window is pinned to a third of the
    per-step wire time, so exposure shrinks visibly (and monotonically)
    with k while the final loss degrades monotonically — the
    convergence-vs-exposure trade the sweep exists to plot.  Cache
    hit-rates grow with W; replicas never drift (staleness is uniform).
    """
    config = RM2.scaled(max_rows_per_table=600, samples_per_epoch=1024)
    log = generate_click_log(config.dataset, 1024, seed=23)
    cluster = single_node(4)
    bucket_bytes = 4 * 1024
    wire = sum(
        GradientBucketReducer(4, bucket_bytes=bucket_bytes, cluster=cluster).bucket_times(
            DLRM(config, seed=5).num_dense_parameters
        )
    )
    perf_model = _FixedComputeModel(wire / 3.0)
    result = {}
    for staleness in (0, 1, 2, 4):
        for window in (2, 8):
            trainer = ShardedHotlineTrainer(
                DLRM(config, seed=5),
                4,
                cluster=cluster,
                lr=0.3,
                sample_fraction=0.25,
                bucket_bytes=bucket_bytes,
                mode=f"stale-{staleness}",
                lookahead_window=window,
                perf_model=perf_model,
            )
            run = trainer.train(
                MiniBatchLoader(log, batch_size=128),
                epochs=2,
                eval_batch=log.batch(0, 512),
            )
            result[f"k={staleness} / W={window}"] = {
                "staleness": staleness,
                "window": window,
                "final_loss": run.losses[-1],
                "final_logloss": run.final_metrics["logloss"],
                "simulated_time_s": run.simulated_time_s,
                "exposed_communication_s": run.communication_time_s,
                "cache_hit_rate": run.cache_hit_rate,
                "cache_fill_rows": run.cache_fill_rows,
                "stale_rows": run.stale_rows,
                "prefetch_time_s": run.prefetch_time_s,
                "replica_drift": trainer.replica_drift(),
            }
    return result


def _fig30_nested_pipeline() -> dict:
    """Hotline split vs nested µ-batch × stage pipelining at scale (fig30n).

    Sweeps 8 → 1,536 simulated devices on a :class:`HierarchicalTopology`
    (4 GPUs per NIC, 2 NICs per node, 4:1 oversubscribed spine) and prices
    two execution arms with the same schedule layer:

    * **Hotline** — the paper's popular/non-popular split, data-parallel
      across *all* devices.  The popular µ-batch computes while the cold
      rows of the non-popular µ-batch stream over PCIe (a ``fill``
      :class:`CommOp` hidden ``staged(1)`` behind the popular window);
      the price of admission is a full dense-gradient all-reduce whose
      spine ring spans every node, so its latency term grows linearly
      with the node count and its bandwidth term pays the 4:1 derate.

    * **NestPipe** — intra-node µ-batch pipelining nested inside
      inter-node stage pipelining.  Each pipeline replica spans
      ``S = min(8, nodes)`` node-stages (a node's 8 GPUs work one
      µ-batch's share data-parallel; the model's layers split across the
      S stages), ``M = 4·S`` µ-batches fill the pipe, and activations hop
      nearest-neighbour over the NIC tier — never the spine.  Only
      ``R = nodes / S`` replica peers ring over the spine, and each
      syncs just its own stage's ``1/S`` slice of the dense gradient, so
      the spine term is roughly ``S × R``-fold smaller.  The cost is the
      classic fill/drain bubble, ``(M + S - 1) / M ≈ 1.22`` of pure
      compute, plus per-µ-batch activation hops.

    Both arms pay identical embedding-lookup work (it cancels in the
    comparison and is omitted); they differ only in execution schedule and
    dense synchronisation.  At small scale the bubble makes NestPipe lose;
    past the crossover the Hotline arm's whole-cluster spine ring costs
    more than the bubble, which is the scale where the popular/non-popular
    split stops paying.  The reported ``crossover_devices`` is the first
    sweep point where NestPipe wins.
    """
    costs = TrainingCostModel(RM2)
    model = costs.model
    overhead = costs.overheads.gpu_iteration_overhead_s
    dense_bytes = model.dense_parameter_count * 4.0
    row_bytes = model.bytes_per_lookup()
    batch = _BATCH_PER_GPU
    # Only the pooled interaction vector crosses a stage boundary — the
    # per-sample feature the top MLP consumes — not raw activations.
    act_bytes_per_sample = 64.0

    def _mlp(samples_per_gpu: float) -> float:
        samples = max(1, int(samples_per_gpu))
        return costs.mlp_forward_time(samples) + costs.mlp_backward_time(samples)

    result: dict = {"sweep": {}, "crossover_devices": None}
    for devices in (8, 32, 128, 512, 1024, 1536):
        nodes = devices // 8
        topo = HierarchicalTopology(
            gpus_per_nic=4, nics_per_node=2, num_nodes=nodes, oversubscription=4.0
        )

        # --- Hotline arm: popular/non-popular split, all-device sync --- #
        popular = costs.hot_fraction * batch
        non_popular = batch - popular
        popular_exec = _mlp(popular)
        non_popular_exec = _mlp(non_popular)
        cold_rows = (1.0 - costs.hot_lookup_fraction) * costs.lookups(int(non_popular))
        gather = StepSchedule.price(
            (CommOp("fill", tier="pcie", rows=cold_rows, row_bytes=row_bytes),),
            topo,
            mode="staged",
            stages=1,
            dma=DMAEngine(),
            label="cold-gather",
        )
        exposed_gather = gather.exposed_time(popular_exec)
        hotline_dense = StepSchedule.price(
            allreduce_ops(topo, dense_bytes, devices), topo, label="dense-allreduce"
        )
        hotline_step = (
            overhead
            + popular_exec
            + exposed_gather
            + non_popular_exec
            + hotline_dense.total_s
        )

        # --- NestPipe arm: µ-batch pipelining inside stage pipelining --- #
        stages = min(8, nodes)
        replicas = max(1, nodes // stages)
        microbatches = 4 * stages
        # Each replica spans S nodes and owns their combined batch; a
        # µ-batch therefore carries a fixed 2 × 8 × _BATCH_PER_GPU / 8
        # samples regardless of depth.
        microbatch_samples = topo.gpus_per_node * stages * batch / microbatches
        stage_compute = _mlp(microbatch_samples / topo.gpus_per_node) / stages
        if stages > 1:
            act_time = topo.link("nic").transfer_time(
                2.0 * microbatch_samples * act_bytes_per_sample
            )
        else:
            act_time = 0.0
        makespan = pipeline_makespan(max(stage_compute, act_time), stages, microbatches)
        nested_ops = [
            CommOp(
                "allreduce",
                tier="gpu",
                num_bytes=dense_bytes / stages,
                participants=topo.gpus_per_node,
            )
        ]
        if replicas > 1:
            nested_ops.append(
                CommOp(
                    "allreduce",
                    tier="spine",
                    num_bytes=dense_bytes / stages,
                    participants=replicas,
                )
            )
        nested_dense = StepSchedule.price(nested_ops, topo, label="stage-allreduce")
        nested_step = overhead + makespan + nested_dense.total_s

        result["sweep"][devices] = {
            "devices": devices,
            "nodes": nodes,
            "hotline_step_s": hotline_step,
            "hotline_dense_sync_s": hotline_dense.total_s,
            "hotline_exposed_gather_s": exposed_gather,
            "nested_step_s": nested_step,
            "nested_dense_sync_s": nested_dense.total_s,
            "nested_makespan_s": makespan,
            "pipeline_stages": stages,
            "pipeline_replicas": replicas,
            "microbatches": microbatches,
            "nested_speedup": hotline_step / nested_step,
        }
        if result["crossover_devices"] is None and nested_step < hotline_step:
            result["crossover_devices"] = devices
    return result


_EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("fig3", "Hybrid CPU-GPU training-time breakdown", _fig3_hybrid_breakdown),
    Experiment("fig4", "Single-node GPU-only training-time breakdown", _fig4_gpu_only_breakdown),
    Experiment("fig5", "Multi-node GPU-only training-time breakdown", _fig5_multinode_breakdown),
    Experiment("fig19", "Hotline speedup over XDL / Intel DLRM / FAE", _fig19_speedups),
    Experiment("fig21", "Training throughput (epochs/hour) at 4 GPUs", _fig21_throughput),
    Experiment("fig22", "Hotline vs HugeCTR (GPU-only), incl. OOM boundaries", _fig22_hugectr),
    Experiment("fig23", "Hotline accelerator vs CPU-driven Hotline", _fig23_hotline_cpu),
    Experiment("fig24", "Hotline vs ScratchPipe-Ideal", _fig24_scratchpipe),
    Experiment("fig25", "Popular:non-popular µ-batch ratio sweep", _fig25_ratio_sweep),
    Experiment("fig26", "Speedup vs mini-batch size", _fig26_batch_sweep),
    Experiment("fig28", "Large multi-hot synthetic models", _fig28_synthetic_models),
    Experiment("fig30", "Multi-node scaling on synthetic models", _fig30_multinode),
    Experiment(
        "fig30f",
        "Multi-node scaling from a functional sharded-Hotline run",
        _fig30_functional,
    ),
    Experiment(
        "fig30r",
        "Staleness/overlap sweep over truly independent replicas",
        _fig30_replicated,
    ),
    Experiment(
        "fig30s",
        "Convergence-vs-exposure sweep: stale-k × cached lookahead window",
        _fig30_stale_lookahead,
    ),
    Experiment(
        "fig30n",
        "Nested µ-batch × stage pipelining vs Hotline split, swept to 1,536 devices",
        _fig30_nested_pipeline,
    ),
)


def list_experiments() -> tuple[Experiment, ...]:
    """All registered experiments in figure order."""
    return _EXPERIMENTS


def run_experiment(experiment_id: str) -> dict:
    """Run one experiment by id (e.g. ``"fig19"``) and return its data."""
    for experiment in _EXPERIMENTS:
        if experiment.id == experiment_id:
            return experiment.run()
    known = ", ".join(exp.id for exp in _EXPERIMENTS)
    raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")


def run_all() -> dict[str, dict]:
    """Run every registered experiment; returns {id: data}."""
    return {experiment.id: experiment.run() for experiment in _EXPERIMENTS}
