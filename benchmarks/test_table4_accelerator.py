"""Table IV — Hotline accelerator specification.

Regenerates the accelerator parameter table and the derived per-mini-batch
segregation latency, confirming it is orders of magnitude below the CPU's
(the property that lets Hotline hide segregation entirely).
"""

import pytest

from benchmarks.figutils import cost_model
from repro.analysis.report import format_table
from repro.core import HOTLINE_ACCELERATOR_SPEC, HotlineAccelerator
from repro.models import RM3


def build_spec_rows():
    spec = HOTLINE_ACCELERATOR_SPEC
    return [
        ("Frequency", f"{spec.frequency_hz / 1e6:.0f} MHz"),
        ("EAL size", f"{spec.eal_size_bytes // (1024 * 1024)} MB"),
        ("No of Lookup Engines", spec.num_lookup_engines),
        ("No of Reducer ALU Units", spec.num_reducer_alus),
        ("Input eDRAM size", f"{spec.input_edram_bytes / (1024 * 1024):.1f} MB"),
        ("Embedding Vector Buffer", f"{spec.embedding_vector_buffer_bytes / 1024:.1f} kB"),
        ("Total Area", f"{spec.total_area_mm2} mm2"),
        ("Average Energy", f"{spec.average_energy_joules * 1e3:.0f} mJ"),
    ]


def test_table4_accelerator_spec(benchmark):
    rows = benchmark(build_spec_rows)
    print()
    print(
        format_table(
            ["parameter", "setting"], rows, title="Table IV: Accelerator Specifications"
        )
    )
    spec = HOTLINE_ACCELERATOR_SPEC
    assert spec.frequency_hz == pytest.approx(350e6)
    assert spec.total_area_mm2 == pytest.approx(7.01)
    assert spec.average_energy_joules == pytest.approx(0.132)
    assert spec.num_lookup_engines == 64
    assert spec.num_reducer_alus == 16


def test_accelerator_segregation_vs_cpu(benchmark):
    """The accelerator segregates a 4K Terabyte mini-batch >20x faster than
    the 24-core CPU (the enabler of Figures 7/12)."""
    costs = cost_model(RM3, gpus=4)
    accel = HotlineAccelerator(RM3.dataset.rows_per_table, row_bytes=RM3.bytes_per_lookup())

    def measure():
        return (
            accel.segregation_time(4096, RM3.dataset.lookups_per_sample()),
            costs.cpu_segregation_time(4096),
        )

    accel_time, cpu_time = benchmark(measure)
    print(f"\naccelerator segregation: {accel_time * 1e6:.1f} us, CPU: {cpu_time * 1e3:.2f} ms")
    assert cpu_time > 20 * accel_time
