"""Hardware timing and energy simulation substrate.

The paper evaluates Hotline on a real server (Intel Xeon Silver 4116,
4x NVIDIA V100, PCIe Gen3 x16, NVLink-2.0, 100 Gbps InfiniBand).  This
package provides an analytic/discrete-event model of that hardware so the
performance experiments (Figs. 3-5, 7-8, 19-26, 28-30) can be reproduced
without the physical testbed.

The model is intentionally simple and calibrated to first-order effects:
bandwidth-bound transfers, compute-bound dense layers, and collective
communication costs.  All figures in the paper are ratio/shape claims, which
this level of modelling preserves.
"""

from repro.hwsim.cluster import (
    Cluster,
    HierarchicalTopology,
    Node,
    multi_node,
    single_node,
)
from repro.hwsim.collectives import (
    allreduce_time,
    alltoall_time,
    broadcast_time,
    comm_op_time,
    embedding_alltoall_time,
    hierarchical_allreduce_time,
    tree_allreduce_time,
)
from repro.hwsim.device import (
    TESLA_V100,
    TESLA_V100_32GB,
    XEON_SILVER_4116,
    CPUSpec,
    GPUSpec,
)
from repro.hwsim.dma import DMAEngine
from repro.hwsim.energy import (
    HOTLINE_ENERGY_MODEL,
    AcceleratorEnergyModel,
    ComponentEnergy,
)
from repro.hwsim.interconnect import (
    INFINIBAND_100G,
    NVLINK2,
    PCIE_GEN3_X16,
    Link,
)
from repro.hwsim.memory import DDR4_SERVER, EDRAM, HBM2, SRAM_ON_CHIP, MemorySpec
from repro.hwsim.trace import Event, Timeline

__all__ = [
    "CPUSpec",
    "GPUSpec",
    "XEON_SILVER_4116",
    "TESLA_V100",
    "TESLA_V100_32GB",
    "MemorySpec",
    "DDR4_SERVER",
    "HBM2",
    "EDRAM",
    "SRAM_ON_CHIP",
    "Link",
    "PCIE_GEN3_X16",
    "NVLINK2",
    "INFINIBAND_100G",
    "DMAEngine",
    "allreduce_time",
    "alltoall_time",
    "broadcast_time",
    "comm_op_time",
    "embedding_alltoall_time",
    "hierarchical_allreduce_time",
    "tree_allreduce_time",
    "Node",
    "Cluster",
    "HierarchicalTopology",
    "single_node",
    "multi_node",
    "Event",
    "Timeline",
    "ComponentEnergy",
    "AcceleratorEnergyModel",
    "HOTLINE_ENERGY_MODEL",
]
