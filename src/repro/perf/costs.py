"""Per-phase cost primitives for recommendation-model training.

Every execution mode in the paper — hybrid CPU-GPU (Intel-optimized DLRM),
parameter-server (XDL), FAE, GPU-only (HugeCTR), ScratchPipe, CPU-based
Hotline, and Hotline itself — performs the same logical work per iteration:

    read mini-batch -> embedding lookups -> bottom MLP -> interaction ->
    top MLP -> backward -> gradient all-reduce -> optimizer updates

What differs is *where* each phase runs (CPU DRAM vs GPU HBM), *what* moves
over which link, and *how much overlap* the schedule achieves.  This module
prices the individual phases; schedules compose them.

The absolute constants are calibrated to first-order numbers of the paper's
testbed (V100 + Xeon Silver, Table III) plus software-efficiency factors
representative of PyTorch/TensorFlow CPU embedding kernels.  Figures are
reproduced as *shapes and ratios*, not absolute milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hwsim.cluster import Cluster, single_node
from repro.hwsim.collectives import allreduce_time, alltoall_time, hierarchical_allreduce_time
from repro.hwsim.units import MS
from repro.models.configs import ModelConfig


@dataclass(frozen=True)
class SoftwareOverheads:
    """Software-efficiency constants of the training frameworks.

    Attributes:
        cpu_bag_overhead_s: Per-bag (per sample, per table) CPU cost of the
            EmbeddingBag forward — kernel dispatch, offset handling, output
            write — in the Intel-optimized CPU path.
        cpu_lookup_overhead_s: Additional per-row-lookup CPU cost of the
            EmbeddingBag forward (hash + gather of one row).
        cpu_update_bag_overhead_s: Per-bag CPU cost of the sparse optimizer.
        cpu_update_overhead_s: Additional per-row CPU cost of the sparse
            optimizer (read-modify-write of a row plus bookkeeping).
        gpu_iteration_overhead_s: Fixed per-iteration host-side overhead
            (kernel launches, Python dispatch, data-loader hand-off).
        cpu_segregation_serial_s: Per-lookup serial cost of CPU-based
            mini-batch segregation (dependent hash-table walks, Figure 7).
        cpu_segregation_parallel_s: Per-lookup parallelisable cost of
            CPU-based segregation (scales with cores up to the memory-level
            parallelism limit, Figure 8).
        cpu_segregation_fixed_s: Fixed multiprocess fork/merge overhead of
            CPU-based segregation.
        collective_overhead_s: Fixed software cost of launching one
            collective (NCCL kernel launch + synchronisation).
        ps_overhead_factor: Multiplier on embedding/communication phases for
            the XDL parameter-server path (TensorFlow-1.2 runtime).
        fae_profile_overhead: Fractional training-time overhead of FAE's
            offline profiler (the paper measures ~15 %).
        fae_sync_bytes_fraction: Fraction of the hot-embedding footprint FAE
            synchronises between CPU and GPU at each popular/non-popular
            transition (its coherence overhead).
    """

    cpu_bag_overhead_s: float = 400e-9
    cpu_lookup_overhead_s: float = 50e-9
    cpu_update_bag_overhead_s: float = 450e-9
    cpu_update_overhead_s: float = 100e-9
    gpu_iteration_overhead_s: float = 1.0 * MS
    cpu_segregation_serial_s: float = 30e-9
    cpu_segregation_parallel_s: float = 60e-9
    cpu_segregation_fixed_s: float = 1.0 * MS
    collective_overhead_s: float = 0.10 * MS
    ps_overhead_factor: float = 1.6
    fae_profile_overhead: float = 0.15
    fae_sync_bytes_fraction: float = 0.05


@dataclass
class TrainingCostModel:
    """Prices the phases of one training iteration for a model on a cluster.

    Attributes:
        model: The model configuration (Table II entry).
        cluster: Hardware topology (nodes x GPUs).
        overheads: Software-efficiency constants.
        hot_fraction: Fraction of inputs that are popular (paper: ~0.75).
        hot_lookup_fraction: Fraction of the *non-popular* µ-batch's lookups
            that still hit GPU-resident hot rows (most lookups are hot even
            in non-popular inputs).
    """

    model: ModelConfig
    cluster: Cluster = field(default_factory=single_node)
    overheads: SoftwareOverheads = field(default_factory=SoftwareOverheads)
    hot_fraction: float = 0.75
    hot_lookup_fraction: float = 0.80

    # ------------------------------------------------------------------ #
    # Convenience quantities
    # ------------------------------------------------------------------ #
    @property
    def num_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return self.cluster.total_gpus

    @property
    def gpu(self):
        """The GPU spec."""
        return self.cluster.node.gpu

    @property
    def cpu(self):
        """The CPU spec."""
        return self.cluster.node.cpu

    def lookups(self, samples: int) -> int:
        """Total embedding-row lookups for ``samples`` inputs."""
        return samples * self.model.dataset.lookups_per_sample()

    def bags(self, samples: int) -> int:
        """Total EmbeddingBag invocations (one per sample per table)."""
        return samples * self.model.num_sparse_features

    def lookup_bytes(self, samples: int) -> float:
        """Bytes of embedding rows gathered for ``samples`` inputs."""
        return self.lookups(samples) * self.model.bytes_per_lookup()

    def pooled_bytes(self, samples: int) -> float:
        """Bytes of *pooled* embedding vectors (one per table per sample)."""
        return samples * self.model.num_sparse_features * self.model.bytes_per_lookup()

    # ------------------------------------------------------------------ #
    # Dense (MLP) phases — executed on the GPU in every mode
    # ------------------------------------------------------------------ #
    def mlp_forward_time(self, samples_per_gpu: int) -> float:
        """Forward time of bottom+top MLPs for one GPU's share of the batch.

        Time-series models (TBSM) launch their per-step kernels once per
        history step, which is what makes the Taobao workload
        neural-network-dominated despite its tiny MLPs (Figure 3).
        """
        flops = self.model.mlp_flops_per_sample * samples_per_gpu
        num_layers = self.model.bottom_mlp.count("-") + self.model.top_mlp.count("-")
        steps = self.model.dataset.time_series_length if self.model.uses_attention else 1
        return self.gpu.dense_compute_time(flops, kernels=max(1, num_layers) * steps)

    def mlp_backward_time(self, samples_per_gpu: int) -> float:
        """Backward time of the MLPs (about twice the forward FLOPs)."""
        return 2.0 * self.mlp_forward_time(samples_per_gpu)

    def dense_optimizer_time(self) -> float:
        """GPU-side dense-parameter update (streams the parameters 3x)."""
        param_bytes = self.model.dense_parameter_count * 4.0
        return self.gpu.hbm_stream_time(3.0 * param_bytes)

    # ------------------------------------------------------------------ #
    # Embedding phases
    # ------------------------------------------------------------------ #
    def _cpu_parallel_efficiency(self, lookups: int, cores: int | None) -> int:
        """Effective number of cores usable by a CPU embedding kernel.

        Small batches cannot keep every core busy (thread-spawn and
        work-partitioning overheads dominate), which is why the hybrid
        baseline's CPU phases scale sub-linearly with mini-batch size and
        why the paper's 1-GPU speedups exceed its 4-GPU speedups.
        """
        cores = cores or self.cpu.cores
        batch_limited = max(1, lookups // 2048)
        return max(1, min(cores, self.cpu.memory_parallelism, batch_limited))

    def cpu_embedding_lookup_time(self, samples: int, cores: int | None = None) -> float:
        """CPU EmbeddingBag forward over DDR4 (hybrid mode's lookup phase).

        The software cost has a per-bag component (kernel dispatch and output
        handling, once per sample per table) plus a per-row component, so
        multi-hot bags amortise the dispatch cost — matching how the
        Intel-optimized EmbeddingBag operator behaves.
        """
        lookups = self.lookups(samples)
        gather = self.cpu.random_gather_time(lookups, self.model.bytes_per_lookup(), cores)
        software_work = (
            self.bags(samples) * self.overheads.cpu_bag_overhead_s
            + lookups * self.overheads.cpu_lookup_overhead_s
        )
        software = software_work / self._cpu_parallel_efficiency(lookups, cores)
        return gather + software

    def cpu_embedding_update_time(self, samples: int, cores: int | None = None) -> float:
        """CPU sparse-optimizer update (read-modify-write of touched rows)."""
        lookups = self.lookups(samples)
        gather = 2.0 * self.cpu.random_gather_time(lookups, self.model.bytes_per_lookup(), cores)
        software_work = (
            self.bags(samples) * self.overheads.cpu_update_bag_overhead_s
            + lookups * self.overheads.cpu_update_overhead_s
        )
        software = software_work / self._cpu_parallel_efficiency(lookups, cores)
        return gather + software

    def gpu_embedding_lookup_time(self, samples_per_gpu: int) -> float:
        """HBM gather of one GPU's share of the embedding lookups."""
        return self.gpu.hbm_gather_time(self.lookup_bytes(samples_per_gpu))

    def gpu_embedding_update_time(self, samples_per_gpu: int) -> float:
        """HBM read-modify-write update of one GPU's share of rows."""
        return self.gpu.hbm_gather_time(2.0 * self.lookup_bytes(samples_per_gpu))

    # ------------------------------------------------------------------ #
    # Communication phases
    # ------------------------------------------------------------------ #
    def cpu_to_gpu_embedding_transfer_time(self, samples_per_gpu: int) -> float:
        """PCIe transfer of pooled embeddings from CPU to each GPU (hybrid)."""
        return self.cluster.node.pcie.transfer_time(self.pooled_bytes(samples_per_gpu))

    def gpu_to_cpu_gradient_transfer_time(self, samples_per_gpu: int) -> float:
        """PCIe transfer of embedding gradients back to the CPU (hybrid)."""
        return self.cluster.node.pcie.transfer_time(self.pooled_bytes(samples_per_gpu))

    def dense_allreduce_time(self) -> float:
        """Gradient all-reduce of the dense parameters across all GPUs."""
        if self.num_gpus <= 1:
            return 0.0
        param_bytes = self.model.dense_parameter_count * 4.0
        if self.cluster.num_nodes == 1:
            collective = allreduce_time(param_bytes, self.num_gpus, self.cluster.node.gpu_link)
        else:
            collective = hierarchical_allreduce_time(
                param_bytes,
                self.cluster.node.num_gpus,
                self.cluster.num_nodes,
                self.cluster.node.gpu_link,
                self.cluster.inter_link,
            )
        return self.overheads.collective_overhead_s + collective

    def embedding_alltoall_time(self, samples_per_gpu: int) -> float:
        """All-to-all exchange of looked-up embeddings (GPU-only mode).

        Each GPU holds a shard of the tables and must send the pooled
        vectors it produced to the GPUs that own the corresponding samples;
        the exchange happens forward and again (for gradients) backward.
        The inter-node link dominates when the cluster spans nodes.
        """
        if self.num_gpus <= 1:
            return 0.0
        per_device_bytes = self.pooled_bytes(samples_per_gpu)
        # Each table's exchange launches its own set of messages, so the
        # software overhead scales (sub-linearly) with the table count.
        launch = self.overheads.collective_overhead_s * (
            1.0 + 0.05 * self.model.num_sparse_features
        )
        if self.cluster.num_nodes == 1:
            return launch + alltoall_time(
                per_device_bytes, self.num_gpus, self.cluster.node.gpu_link
            )
        intra = alltoall_time(
            per_device_bytes, self.cluster.node.num_gpus, self.cluster.node.gpu_link
        )
        # Cross-node traffic from all of a node's GPUs funnels through the
        # node's single InfiniBand NIC, which is what makes the collective
        # exceed 50 % of multi-node training time (Figure 5).
        per_node_bytes = per_device_bytes * self.cluster.node.num_gpus
        inter = alltoall_time(per_node_bytes, self.cluster.num_nodes, self.cluster.inter_link)
        return launch + intra + inter

    # ------------------------------------------------------------------ #
    # CPU-based segregation (Figures 7 and 8)
    # ------------------------------------------------------------------ #
    def cpu_segregation_time(self, batch_size: int, cores: int | None = None) -> float:
        """Time for the CPU to split a mini-batch into popular/non-popular.

        Each lookup requires dependent hash-table probes against the hot-set
        structure; part of the work is serial (per-input classification and
        result merging), part scales with cores but saturates at the CPU's
        memory-level parallelism — reproducing the plateau of Figure 8.
        """
        lookups = self.lookups(batch_size)
        cores = cores or self.cpu.cores
        effective = max(1, min(cores, self.cpu.memory_parallelism))
        serial = lookups * self.overheads.cpu_segregation_serial_s
        parallel = lookups * self.overheads.cpu_segregation_parallel_s / effective
        return self.overheads.cpu_segregation_fixed_s + serial + parallel

    # ------------------------------------------------------------------ #
    # Memory-capacity checks
    # ------------------------------------------------------------------ #
    def embedding_fits_gpu_only(self) -> bool:
        """Whether the full embedding tables fit in aggregate HBM (HugeCTR).

        The check mirrors the paper's observation that Criteo Terabyte
        (RM3, 63 GB of embeddings) needs at least four 16 GB V100s.
        """
        return self.model.embedding_bytes <= self.cluster.total_hbm_bytes

    def embedding_fits_cpu(self) -> bool:
        """Whether the full embedding tables fit in aggregate CPU DRAM."""
        return self.model.embedding_bytes <= self.cluster.total_dram_bytes
