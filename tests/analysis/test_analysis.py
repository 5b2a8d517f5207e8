"""Unit tests for breakdowns and report formatting."""

import pytest

from repro.analysis.breakdown import (
    BREAKDOWN_CATEGORIES,
    embedding_related_fraction,
    normalised_breakdown,
)
from repro.analysis.report import format_breakdown, format_series, format_table
from repro.hwsim.trace import Timeline


def make_timeline():
    timeline = Timeline()
    timeline.add("gpu", "mlp", 0.0, 3.0)
    timeline.add("cpu", "embedding", 3.0, 6.0)
    timeline.add("pcie", "comm", 9.0, 1.0)
    return timeline


def test_normalised_breakdown_contains_all_categories():
    breakdown = normalised_breakdown(make_timeline())
    for category in BREAKDOWN_CATEGORIES:
        assert category in breakdown
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert breakdown["embedding"] == pytest.approx(0.6)


def test_embedding_related_fraction():
    breakdown = {"embedding": 0.4, "comm": 0.2, "optimizer": 0.1, "mlp": 0.3}
    assert embedding_related_fraction(breakdown) == pytest.approx(0.7)


def test_format_table_alignment():
    text = format_table(["name", "value"], [("a", 1.0), ("bbbb", 2.5)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5


def test_format_series():
    text = format_series("fig", [1, 2], [0.5, 0.25], x_label="x", y_label="y")
    assert "fig" in text
    assert "0.500" in text


def test_format_breakdown_skips_zero_entries():
    text = format_breakdown("bd", {"mlp": 0.5, "comm": 0.0})
    assert "mlp" in text
    assert "comm" not in text
