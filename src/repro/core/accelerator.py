"""The assembled Hotline accelerator device model.

Combines the EAL, the Lookup Engine array's cycle model and the Reducer's
into a single device with the specification of Table IV:

    Frequency 350 MHz, EAL 4 MB, 64 lookup engines, 16 reducer ALUs,
    2.5 MB input eDRAM, 0.5 kB embedding vector buffer,
    7.01 mm^2 total area, 132 mJ average energy.

The paper's Data Dispatcher (Section V-A) and its six-instruction ISA
(Table I) are not modelled as objects: what the figures read of them is
the gather, scatter and write-back timing below and the dispatcher's
area/power row in :mod:`repro.hwsim.energy`.

The timing methods answer the two questions the pipeline scheduler needs:

* how long does it take to *segregate* a mini-batch into µ-batches?
  (cycle-counted on the lookup-engine array — this is what replaces the slow
  CPU-based segregation of Figures 7/8);
* how long does it take to *gather* the working parameters of the
  non-popular µ-batch from CPU DRAM + GPU HBM over PCIe/DMA?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.eal import EALConfig, EmbeddingAccessLogger
from repro.core.lookup_engine import LookupEngineArray
from repro.core.reducer import Reducer
from repro.hwsim.dma import DMAEngine
from repro.hwsim.energy import HOTLINE_ENERGY_MODEL, AcceleratorEnergyModel
from repro.hwsim.interconnect import PCIE_GEN3_X16, Link
from repro.hwsim.units import MIB


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static accelerator parameters (Table IV)."""

    frequency_hz: float = 350e6
    eal_size_bytes: int = 4 * MIB
    num_lookup_engines: int = 64
    num_reducer_alus: int = 16
    input_edram_bytes: int = int(2.5 * MIB)
    embedding_vector_buffer_bytes: int = 512
    total_area_mm2: float = 7.01
    average_energy_joules: float = 0.132

    @property
    def cycle_time_s(self) -> float:
        """Duration of one accelerator cycle."""
        return 1.0 / self.frequency_hz


HOTLINE_ACCELERATOR_SPEC = AcceleratorSpec()


class HotlineAccelerator:
    """Behavioural + timing model of the Hotline accelerator.

    ``rows_per_table`` are the table sizes of the model it accelerates: its
    EAL tracks rows by their keys in that model's flat key space, 5 bytes
    per entry (see :class:`~repro.core.eal.EmbeddingAccessLogger`), and
    rejects an id outside its table.
    """

    def __init__(
        self,
        rows_per_table,
        spec: AcceleratorSpec | None = None,
        *,
        row_bytes: int = 64,
        pcie: Link = PCIE_GEN3_X16,
        eal_config: EALConfig | None = None,
        energy_model: AcceleratorEnergyModel = HOTLINE_ENERGY_MODEL,
        seed: int = 0,
    ):
        self.spec = spec or HOTLINE_ACCELERATOR_SPEC
        self.row_bytes = row_bytes
        self.eal = EmbeddingAccessLogger(
            rows_per_table, eal_config or EALConfig(size_bytes=self.spec.eal_size_bytes), seed=seed
        )
        self.lookup_engines = LookupEngineArray(self.spec.num_lookup_engines)
        self.reducer = Reducer(self.spec.num_reducer_alus)
        self.dma = DMAEngine(link=pcie)
        self.energy_model = energy_model
        self.pcie = pcie

    # ------------------------------------------------------------------ #
    # Learning phase
    # ------------------------------------------------------------------ #
    def learn_from_batch(self, sparse: np.ndarray) -> int:
        """Feed one sampled mini-batch's accesses into the EAL.

        Returns the number of EAL hits (used to monitor convergence of the
        hot set during the learning phase).
        """
        return self.eal.access_batch(sparse)

    def hot_sets(self, num_tables: int) -> list[np.ndarray]:
        """The currently tracked frequently-accessed rows per table."""
        return self.eal.hot_indices(num_tables)

    def recalibrate(self) -> None:
        """Drop the tracked set before re-entering the learning phase.

        The paper re-enters the learning phase periodically (twice per epoch
        in the evaluation) to follow evolving access skews (Figure 9).
        """
        self.eal.clear()

    # ------------------------------------------------------------------ #
    # Acceleration phase timing
    # ------------------------------------------------------------------ #
    def segregation_time(self, batch_size: int, lookups_per_input: int) -> float:
        """Seconds to classify a mini-batch into popular/non-popular µ-batches."""
        cycles = self.lookup_engines.segregation_cycles(batch_size, lookups_per_input)
        return cycles * self.spec.cycle_time_s

    def gather_time(
        self,
        num_cold_rows: int,
        num_hot_rows: int,
        *,
        pooling: int = 1,
        dim: int | None = None,
    ) -> float:
        """Seconds to gather a non-popular µ-batch's working parameters.

        Cold rows come from CPU DRAM over DMA/PCIe; hot rows are read from a
        GPU replica over PCIe (round-robin across GPUs to balance HBM load).
        The reducer pools rows as they arrive, and its cycles overlap with
        the transfers, so the reduce cost only shows up if it exceeds the
        transfer time.
        """
        if num_cold_rows <= 0 and num_hot_rows <= 0:
            return 0.0
        dim = dim or (self.row_bytes // 4)
        cold_bytes = num_cold_rows * self.row_bytes
        hot_bytes = num_hot_rows * self.row_bytes
        dma_time = self.dma.read_time(cold_bytes, scattered=True)
        gpu_read_time = self.pcie.transfer_time(hot_bytes)
        reduce_cycles = self.reducer.cycles_for(num_cold_rows + num_hot_rows, dim)
        reduce_time = reduce_cycles * self.spec.cycle_time_s
        transfer_time = dma_time + gpu_read_time
        return max(transfer_time, reduce_time)

    def scatter_time(self, num_rows: int, num_gpus: int) -> float:
        """Seconds to push the reduced embedding vectors to the GPUs."""
        total_bytes = num_rows * self.row_bytes
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        return self.pcie.transfer_time(total_bytes / num_gpus) * num_gpus

    def writeback_time(self, num_cold_rows: int) -> float:
        """Seconds to DMA updated non-popular rows back to CPU DRAM."""
        return self.dma.write_time(num_cold_rows * self.row_bytes, scattered=True)

    # ------------------------------------------------------------------ #
    # Physical characteristics
    # ------------------------------------------------------------------ #
    @property
    def area_mm2(self) -> float:
        """Total accelerator silicon area."""
        return self.energy_model.total_area_mm2

    @property
    def power_w(self) -> float:
        """Average accelerator power."""
        return self.energy_model.total_power_w
