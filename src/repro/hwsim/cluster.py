"""Cluster topology: nodes of CPU + GPUs, connected by InfiniBand.

Reproduces the paper's system (Section IV / VI-D): each node is a Dell EMC
C4140-class server with one Xeon CPU, four V100 GPUs on NVLink, one Hotline
accelerator on a spare low-profile PCIe slot, and a 100 Gbit/s InfiniBand
NIC for inter-node traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hwsim.device import TESLA_V100, XEON_SILVER_4116, CPUSpec, GPUSpec
from repro.hwsim.interconnect import (
    INFINIBAND_100G,
    NVLINK2,
    PCIE_GEN3_X16,
    Link,
)


@dataclass(frozen=True)
class Node:
    """One server: a CPU, ``num_gpus`` GPUs, and intra-node links.

    Attributes:
        cpu: CPU specification.
        gpu: GPU specification (all GPUs in a node are identical).
        num_gpus: Number of GPUs installed.
        gpu_link: GPU-to-GPU link (NVLink).
        pcie: CPU-to-GPU / accelerator link.
        has_accelerator: Whether a Hotline accelerator occupies a PCIe slot.
    """

    cpu: CPUSpec = XEON_SILVER_4116
    gpu: GPUSpec = TESLA_V100
    num_gpus: int = 4
    gpu_link: Link = NVLINK2
    pcie: Link = PCIE_GEN3_X16
    has_accelerator: bool = True

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError(
                f"a node needs at least one GPU, got num_gpus={self.num_gpus}"
            )

    @property
    def total_hbm_bytes(self) -> float:
        """Aggregate HBM capacity across the node's GPUs."""
        return self.num_gpus * self.gpu.memory_capacity_bytes

    @property
    def total_dram_bytes(self) -> float:
        """CPU DRAM capacity of the node."""
        return self.cpu.memory_capacity_bytes


@dataclass(frozen=True)
class Cluster:
    """A collection of identical nodes connected by an inter-node link."""

    node: Node = field(default_factory=Node)
    num_nodes: int = 1
    inter_link: Link = INFINIBAND_100G

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(
                f"a cluster needs at least one node, got num_nodes={self.num_nodes}"
            )

    def link(self, tier: str) -> Link:
        """Resolve a named link tier for :class:`~repro.core.schedule.CommOp`
        pricing.

        A flat cluster has only two fabrics, so the hierarchical tier
        names collapse onto them: ``"gpu"`` is the intra-node GPU link,
        ``"nic"``/``"node"``/``"spine"`` all resolve to the single
        inter-node link, and ``"pcie"`` is the node's host link.
        """
        if tier == "gpu":
            return self.node.gpu_link
        if tier in ("nic", "node", "spine"):
            return self.inter_link
        if tier == "pcie":
            return self.node.pcie
        raise ValueError(f"unknown link tier {tier!r}")

    @property
    def total_gpus(self) -> int:
        """Total number of GPUs in the cluster."""
        return self.num_nodes * self.node.num_gpus

    @property
    def total_hbm_bytes(self) -> float:
        """Aggregate HBM capacity of the cluster."""
        return self.num_nodes * self.node.total_hbm_bytes

    @property
    def total_dram_bytes(self) -> float:
        """Aggregate CPU DRAM capacity of the cluster."""
        return self.num_nodes * self.node.total_dram_bytes


@dataclass(frozen=True)
class HierarchicalTopology:
    """A three-tier fat-tree topology for 1,000+-device sweeps.

    The flat :class:`Cluster` models the paper's testbed: one GPU fabric
    per node, one inter-node link, no contention.  Scaling the fig30
    family past single-digit node counts needs the structure real
    clusters have — GPUs grouped under NICs, several NICs per node, and a
    spine whose aggregate bandwidth is *oversubscribed* relative to the
    sum of the leaf NICs (a 4:1 fat-tree taper is typical).  This class
    names those three levels and resolves the schedule layer's link tiers
    against them:

    * ``"gpu"`` — the NVLink island under one NIC (``gpus_per_nic``
      devices);
    * ``"nic"`` — the intra-node hop between a node's NIC groups
      (``nics_per_node`` participants);
    * ``"spine"`` — the inter-node fabric, priced on a *derated* copy of
      ``nic_link`` whose bandwidth is divided by ``oversubscription``
      (latency is unchanged: the taper removes capacity, not hops).

    A :class:`~repro.core.schedule.CommOp` priced per tier therefore
    costs what it would on the corresponding level of a real fat-tree,
    and :func:`~repro.core.schedule.allreduce_ops` decomposes one logical
    all-reduce into the three-level ring NCCL would run.

    Attributes:
        gpus_per_nic: Devices sharing one NIC (an NVLink island).
        nics_per_node: NIC groups per node.
        num_nodes: Nodes under the spine.
        gpu_link: Intra-island link.
        nic_link: Leaf link between NIC groups and into the spine.
        pcie: Host link of each island.
        oversubscription: Spine taper ratio (``>= 1``); ``1.0`` is a
            non-blocking fabric.
    """

    gpus_per_nic: int = 4
    nics_per_node: int = 1
    num_nodes: int = 1
    gpu_link: Link = NVLINK2
    nic_link: Link = INFINIBAND_100G
    pcie: Link = PCIE_GEN3_X16
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.gpus_per_nic <= 0:
            raise ValueError(
                f"gpus_per_nic must be positive, got {self.gpus_per_nic}"
            )
        if self.nics_per_node <= 0:
            raise ValueError(
                f"nics_per_node must be positive, got {self.nics_per_node}"
            )
        if self.num_nodes <= 0:
            raise ValueError(
                f"a topology needs at least one node, got num_nodes={self.num_nodes}"
            )
        if self.oversubscription <= 0:
            raise ValueError(
                "oversubscription must be a positive taper ratio, got "
                f"{self.oversubscription}"
            )

    @property
    def gpus_per_node(self) -> int:
        """Devices per node across all of its NIC groups."""
        return self.gpus_per_nic * self.nics_per_node

    @property
    def total_gpus(self) -> int:
        """Total devices under the spine."""
        return self.gpus_per_node * self.num_nodes

    @property
    def spine_link(self) -> Link:
        """The leaf link derated by the spine's oversubscription ratio."""
        if self.oversubscription == 1.0:
            return self.nic_link
        return Link(
            name=f"{self.nic_link.name} ({self.oversubscription:g}:1 spine)",
            bandwidth=self.nic_link.bandwidth / self.oversubscription,
            latency_s=self.nic_link.latency_s,
            duplex=self.nic_link.duplex,
        )

    def link(self, tier: str) -> Link:
        """Resolve a named link tier for :class:`~repro.core.schedule.CommOp`
        pricing."""
        if tier == "gpu":
            return self.gpu_link
        if tier in ("nic", "node"):
            return self.nic_link
        if tier == "spine":
            return self.spine_link
        if tier == "pcie":
            return self.pcie
        raise ValueError(f"unknown link tier {tier!r}")


def single_node(num_gpus: int = 4, *, has_accelerator: bool = True) -> Cluster:
    """Build the paper's single-node testbed with ``num_gpus`` V100s."""
    return Cluster(node=Node(num_gpus=num_gpus, has_accelerator=has_accelerator), num_nodes=1)


def multi_node(num_nodes: int, gpus_per_node: int = 4, *, has_accelerator: bool = True) -> Cluster:
    """Build the paper's multi-node testbed (4 GPUs/node, InfiniBand)."""
    return Cluster(
        node=Node(num_gpus=gpus_per_node, has_accelerator=has_accelerator),
        num_nodes=num_nodes,
    )
