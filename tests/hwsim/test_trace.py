"""Unit tests for the event timeline."""

import pytest

from repro.hwsim.trace import Event, Timeline


def test_event_end():
    event = Event(lane="gpu", category="mlp", start=1.0, duration=2.0)
    assert event.end == 3.0


def test_empty_timeline():
    timeline = Timeline()
    assert timeline.makespan() == 0.0
    assert timeline.utilisation("gpu") == 0.0
    assert timeline.category_fractions() == {}


def test_makespan_is_latest_end():
    timeline = Timeline()
    timeline.add("gpu", "mlp", 0.0, 2.0)
    timeline.add("cpu", "embedding", 1.0, 5.0)
    assert timeline.makespan() == 6.0


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        Timeline().add("gpu", "mlp", 0.0, -1.0)


def test_lane_busy_time_and_utilisation():
    timeline = Timeline()
    timeline.add("gpu", "mlp", 0.0, 2.0)
    timeline.add("gpu", "comm", 2.0, 2.0)
    timeline.add("cpu", "embedding", 0.0, 8.0)
    assert timeline.lane_busy_time("gpu") == 4.0
    assert timeline.utilisation("gpu") == pytest.approx(0.5)
    assert timeline.utilisation("cpu") == pytest.approx(1.0)


def test_category_breakdown_and_fractions():
    timeline = Timeline()
    timeline.add("gpu", "mlp", 0.0, 3.0)
    timeline.add("gpu", "comm", 3.0, 1.0)
    breakdown = timeline.category_breakdown()
    assert breakdown == {"mlp": 3.0, "comm": 1.0}
    fractions = timeline.category_fractions()
    assert fractions["mlp"] == pytest.approx(0.75)
    assert sum(fractions.values()) == pytest.approx(1.0)
