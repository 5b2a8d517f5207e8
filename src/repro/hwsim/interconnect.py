"""Interconnect (link) models: PCIe, NVLink, InfiniBand.

The paper's system (Section VI-D) connects GPUs and the Hotline accelerator
over PCIe Gen3 x16, GPUs to each other over NVLink-2.0 (quoted at
2400 Gbit/s aggregate for V100) and nodes over 100 Gbit/s InfiniBand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwsim.units import GB, US, gbit_per_s


@dataclass(frozen=True)
class Link:
    """A point-to-point or switched link.

    Attributes:
        name: Link name.
        bandwidth: Effective unidirectional bandwidth in bytes/second.
        latency_s: Per-message latency in seconds.
        duplex: Whether transfers in both directions proceed at full rate.
    """

    name: str
    bandwidth: float
    latency_s: float
    duplex: bool = True

    def transfer_time(self, num_bytes: float, messages: int = 1) -> float:
        """Time to move ``num_bytes`` split over ``messages`` messages."""
        if num_bytes <= 0:
            return messages * self.latency_s if messages else 0.0
        return messages * self.latency_s + num_bytes / self.bandwidth

PCIE_GEN3_X16 = Link(
    name="PCIe Gen3 x16",
    bandwidth=12.0 * GB,  # ~15.75 GB/s raw, ~12 GB/s achievable
    latency_s=5 * US,
)

NVLINK2 = Link(
    name="NVLink 2.0 (V100)",
    bandwidth=gbit_per_s(2400) * 0.8,  # paper quotes 2400 Gbit/s; 80% achievable
    latency_s=2 * US,
)

INFINIBAND_100G = Link(
    name="InfiniBand EDR 100 Gbit/s",
    bandwidth=gbit_per_s(100) * 0.9,
    latency_s=3 * US,
)
