"""Unit tests for the assembled Hotline accelerator device model."""

import numpy as np
import pytest

from repro.core.accelerator import (
    HOTLINE_ACCELERATOR_SPEC,
    AcceleratorSpec,
    HotlineAccelerator,
)
from repro.core.eal import EALConfig


def test_table4_specification():
    spec = HOTLINE_ACCELERATOR_SPEC
    assert spec.frequency_hz == pytest.approx(350e6)
    assert spec.eal_size_bytes == 4 * 1024 * 1024
    assert spec.num_lookup_engines == 64
    assert spec.num_reducer_alus == 16
    assert spec.input_edram_bytes == pytest.approx(2.5 * 1024 * 1024)
    assert spec.embedding_vector_buffer_bytes == 512
    assert spec.total_area_mm2 == pytest.approx(7.01)
    assert spec.average_energy_joules == pytest.approx(0.132)


def test_cycle_time():
    assert AcceleratorSpec().cycle_time_s == pytest.approx(1.0 / 350e6)


def make_accelerator():
    return HotlineAccelerator(
        (16, 16), row_bytes=64, eal_config=EALConfig(size_bytes=8192, ways=8), seed=0
    )


def test_learning_phase_populates_hot_sets():
    accel = make_accelerator()
    rng = np.random.default_rng(0)
    sparse = rng.integers(0, 16, size=(64, 2, 1))
    accel.learn_from_batch(sparse)
    hot = accel.hot_sets(num_tables=2)
    assert sum(h.size for h in hot) > 0


def test_recalibrate_clears_tracked_set():
    accel = make_accelerator()
    accel.learn_from_batch(np.zeros((4, 2, 1), dtype=np.int64))
    accel.recalibrate()
    hot = accel.hot_sets(num_tables=2)
    assert all(h.size == 0 for h in hot)


def test_segregation_time_scales_with_batch_and_is_fast():
    accel = make_accelerator()
    small = accel.segregation_time(1024, 26)
    large = accel.segregation_time(4096, 26)
    assert large > small
    # Accelerator segregation of a 4K mini-batch takes well under 1 ms
    # (vs tens of ms on the CPU, Figure 7).
    assert large < 1e-3


def test_gather_time_scales_with_cold_rows():
    accel = make_accelerator()
    few = accel.gather_time(100, 0, dim=16)
    many = accel.gather_time(10_000, 0, dim=16)
    assert many > few
    assert accel.gather_time(0, 0) == 0.0


def test_scatter_and_writeback_positive():
    accel = make_accelerator()
    assert accel.scatter_time(1000, num_gpus=4) > 0
    assert accel.writeback_time(1000) > 0
    with pytest.raises(ValueError):
        accel.scatter_time(10, num_gpus=0)


def test_area_and_power_come_from_energy_model():
    accel = make_accelerator()
    assert accel.area_mm2 == pytest.approx(7.01, rel=0.01)
    assert accel.power_w > 0
