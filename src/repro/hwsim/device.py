"""Compute-device models: server CPU and data-centre GPU.

Specs follow Table III of the paper (Intel Xeon Silver 4116, NVIDIA Tesla
V100 16 GB).  The efficiency factors capture that dense training kernels do
not reach peak FLOPS and memory-bound kernels do not reach peak bandwidth;
they are calibrated so the baseline step-time breakdown matches the shape of
Figures 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwsim.memory import DDR4_SERVER, HBM2, MemorySpec
from repro.hwsim.units import GIB


@dataclass(frozen=True)
class CPUSpec:
    """A multi-core server CPU with attached DRAM.

    Attributes:
        name: Human-readable part name.
        cores: Number of physical cores.
        frequency_hz: Nominal core clock.
        flops_per_core_per_cycle: Sustained FP32 FLOPs per core per cycle
            (vector units included, calibrated for GEMM-like kernels).
        memory: Attached main-memory specification.
        memory_capacity_bytes: Installed DRAM capacity.
        memory_parallelism: Effective number of concurrent memory streams;
            random-gather workloads (embedding lookups) plateau once this
            many cores issue requests (paper Fig. 8 observation).
    """

    name: str
    cores: int
    frequency_hz: float
    flops_per_core_per_cycle: float
    memory: MemorySpec
    memory_capacity_bytes: float
    memory_parallelism: int = 24

    @property
    def peak_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s across all cores."""
        return self.cores * self.frequency_hz * self.flops_per_core_per_cycle

    def random_gather_time(
        self, num_accesses: int, bytes_per_access: int, cores: int | None = None
    ) -> float:
        """Time for ``num_accesses`` random DRAM reads of ``bytes_per_access``.

        Random gathers are limited by memory-level parallelism rather than
        core count: beyond ``memory_parallelism`` cores the time plateaus,
        which reproduces the paper's Fig. 8 observation that CPU-based
        segregation stops scaling past ~24 cores.
        """
        active = self.cores if cores is None else max(1, min(cores, self.cores))
        effective_streams = min(active, self.memory_parallelism)
        per_access = self.memory.random_access_time(bytes_per_access)
        return num_accesses * per_access / effective_streams


@dataclass(frozen=True)
class GPUSpec:
    """A data-parallel accelerator with high-bandwidth memory.

    Attributes:
        name: Human-readable part name.
        peak_flops: Peak FP32 throughput (FLOP/s).
        memory: HBM specification.
        memory_capacity_bytes: HBM capacity.
        compute_efficiency: Fraction of peak reached by the MLP kernels of a
            recommendation model (small GEMMs, so well below peak).
        kernel_launch_overhead_s: Fixed per-kernel launch latency.
    """

    name: str
    peak_flops: float
    memory: MemorySpec
    memory_capacity_bytes: float
    compute_efficiency: float = 0.12
    kernel_launch_overhead_s: float = 20e-6

    def dense_compute_time(self, flops: float, kernels: int = 1) -> float:
        """Time to execute ``flops`` of dense compute as ``kernels`` launches."""
        return flops / (self.peak_flops * self.compute_efficiency) + (
            kernels * self.kernel_launch_overhead_s
        )

    def hbm_gather_time(self, num_bytes: float) -> float:
        """Time to gather ``num_bytes`` of embedding rows from HBM."""
        return self.memory.gather_time(num_bytes)

    def hbm_stream_time(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` through HBM sequentially."""
        return self.memory.stream_time(num_bytes)

XEON_SILVER_4116 = CPUSpec(
    name="Intel Xeon Silver 4116",
    cores=24,
    frequency_hz=2.1e9,
    flops_per_core_per_cycle=16.0,
    memory=DDR4_SERVER,
    memory_capacity_bytes=192 * GIB,
    memory_parallelism=24,
)

TESLA_V100 = GPUSpec(
    name="NVIDIA Tesla V100 16GB",
    peak_flops=14e12,
    memory=HBM2,
    memory_capacity_bytes=16 * GIB,
)

TESLA_V100_32GB = GPUSpec(
    name="NVIDIA Tesla V100 32GB",
    peak_flops=14e12,
    memory=HBM2,
    memory_capacity_bytes=32 * GIB,
)
