"""Unit tests for the CPU/GPU device models."""

import pytest

from repro.hwsim.device import TESLA_V100, TESLA_V100_32GB, XEON_SILVER_4116
from repro.hwsim.units import GIB


def test_paper_testbed_specs():
    """Table III: Xeon Silver 4116 (24 cores), V100 16 GB HBM2."""
    assert XEON_SILVER_4116.cores == 24
    assert XEON_SILVER_4116.memory_capacity_bytes == 192 * GIB
    assert TESLA_V100.memory_capacity_bytes == 16 * GIB
    assert TESLA_V100_32GB.memory_capacity_bytes == 32 * GIB


def test_cpu_peak_flops_positive():
    assert XEON_SILVER_4116.peak_flops > 1e11
    assert XEON_SILVER_4116.peak_flops < TESLA_V100.peak_flops


def test_cpu_random_gather_plateaus_beyond_memory_parallelism():
    """Figure 8: adding cores past the MLP limit does not help gathers."""
    at_24 = XEON_SILVER_4116.random_gather_time(100_000, 64, cores=24)
    at_32 = XEON_SILVER_4116.random_gather_time(100_000, 64, cores=32)
    at_8 = XEON_SILVER_4116.random_gather_time(100_000, 64, cores=8)
    assert at_24 == pytest.approx(at_32)
    assert at_8 > at_24


def test_gpu_faster_than_cpu_for_dense_compute():
    """The GPU at its kernel efficiency beats the CPU even at the CPU's peak."""
    flops = 1e10
    assert TESLA_V100.dense_compute_time(flops) < flops / XEON_SILVER_4116.peak_flops


def test_gpu_hbm_gather_faster_than_cpu_stream():
    num_bytes = 100e6
    assert TESLA_V100.hbm_gather_time(num_bytes) < XEON_SILVER_4116.memory.stream_time(num_bytes)


def test_gpu_kernel_launch_overhead_additive():
    single = TESLA_V100.dense_compute_time(1e9, kernels=1)
    many = TESLA_V100.dense_compute_time(1e9, kernels=10)
    assert many - single == pytest.approx(9 * TESLA_V100.kernel_launch_overhead_s)
