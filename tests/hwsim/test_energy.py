"""Unit tests for the accelerator area/power/energy model (Table IV, Fig 29)."""

import pytest

from repro.hwsim.energy import (
    HOTLINE_ENERGY_MODEL,
    AcceleratorEnergyModel,
    ComponentEnergy,
    perf_per_watt_gain,
)


def test_total_area_matches_table4():
    assert HOTLINE_ENERGY_MODEL.total_area_mm2 == pytest.approx(7.01, rel=0.01)


def test_eal_dominates_area_and_power():
    """Figure 29: the EAL SRAM is the largest consumer."""
    area = HOTLINE_ENERGY_MODEL.area_breakdown()
    assert "Embedding Access Logger" in max(area, key=area.get)
    power = HOTLINE_ENERGY_MODEL.power_breakdown()
    eal_share = max(share for name, share in power.items() if "Logger" in name)
    assert eal_share > 0.3


def test_breakdowns_sum_to_one():
    assert sum(HOTLINE_ENERGY_MODEL.area_breakdown().values()) == pytest.approx(1.0)
    assert sum(HOTLINE_ENERGY_MODEL.power_breakdown().values()) == pytest.approx(1.0)


def test_perf_per_watt_gain_exceeds_speedup_discount():
    """Adding a few watts to a kW-scale training node barely dents perf/W."""
    gain = perf_per_watt_gain(speedup=2.2, baseline_power_w=1500.0, added_power_w=4.5)
    assert 2.0 < gain < 2.2


def test_perf_per_watt_invalid_baseline():
    with pytest.raises(ValueError):
        perf_per_watt_gain(2.0, 0.0, 5.0)


def test_custom_model_totals():
    model = AcceleratorEnergyModel(
        components=(
            ComponentEnergy("a", area_mm2=1.0, power_w=2.0),
            ComponentEnergy("b", area_mm2=3.0, power_w=1.0),
        )
    )
    assert model.total_area_mm2 == 4.0
    assert model.total_power_w == 3.0
    assert model.area_breakdown() == {"a": 0.25, "b": 0.75}
