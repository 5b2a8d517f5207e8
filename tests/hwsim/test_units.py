"""Unit tests for the unit-conversion helpers."""

import pytest

from repro.hwsim.units import (
    GB,
    GIB,
    KB,
    KIB,
    MB,
    MIB,
    MS,
    US,
    gbit_per_s,
)


def test_binary_vs_decimal_sizes():
    assert KIB == 1024
    assert MIB == 1024 * 1024
    assert GIB == 1024 ** 3
    assert KB == 1000
    assert MB == 1_000_000
    assert GB == 1_000_000_000
    assert GIB > GB


def test_time_units():
    assert MS == pytest.approx(1e-3)
    assert US == pytest.approx(1e-6)


def test_gbit_conversion():
    assert gbit_per_s(100) == pytest.approx(12.5e9)
