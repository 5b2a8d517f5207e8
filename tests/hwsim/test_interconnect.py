"""Unit tests for the interconnect (link) models."""

import pytest

from repro.hwsim.interconnect import INFINIBAND_100G, NVLINK2, PCIE_GEN3_X16
from repro.hwsim.units import MB, gbit_per_s


def test_relative_link_speeds():
    """NVLink >> PCIe > InfiniBand per the paper's Section II-A3."""
    assert NVLINK2.bandwidth > PCIE_GEN3_X16.bandwidth > 0
    assert NVLINK2.bandwidth > INFINIBAND_100G.bandwidth


def test_infiniband_matches_100gbit():
    assert INFINIBAND_100G.bandwidth <= gbit_per_s(100)
    assert INFINIBAND_100G.bandwidth >= 0.8 * gbit_per_s(100)


def test_transfer_time_includes_latency():
    assert PCIE_GEN3_X16.transfer_time(0, messages=1) == PCIE_GEN3_X16.latency_s
    assert PCIE_GEN3_X16.transfer_time(0, messages=0) == 0.0


def test_transfer_time_scales_with_bytes():
    small = PCIE_GEN3_X16.transfer_time(1 * MB)
    large = PCIE_GEN3_X16.transfer_time(100 * MB)
    assert large > small


def test_transfer_multiple_messages_adds_latency():
    one = NVLINK2.transfer_time(10 * MB, messages=1)
    ten = NVLINK2.transfer_time(10 * MB, messages=10)
    assert ten - one == pytest.approx(9 * NVLINK2.latency_s)


def test_gbit_per_s_conversion():
    assert gbit_per_s(8) == pytest.approx(1e9)
