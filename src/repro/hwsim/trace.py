"""Event timeline used to build pipeline schedules and latency breakdowns.

Schedulers (Hotline and baselines) emit :class:`Event` records onto a
:class:`Timeline`.  The timeline knows how to compute the makespan, per-lane
utilisation, and per-category time breakdowns — those breakdowns are exactly
what Figures 3, 4, 5 and 20 of the paper plot.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Event:
    """One scheduled activity on a hardware resource lane.

    Attributes:
        lane: Resource name, e.g. ``"gpu0"``, ``"cpu"``, ``"pcie"``, ``"accel"``.
        category: Breakdown category, e.g. ``"mlp"``, ``"embedding"``,
            ``"comm"``, ``"alltoall"``, ``"optimizer"``, ``"overhead"``.
        start: Start time in seconds.
        duration: Duration in seconds.
        label: Optional human-readable description.
    """

    lane: str
    category: str
    start: float
    duration: float
    label: str = ""

    @property
    def end(self) -> float:
        """End time of the event."""
        return self.start + self.duration


class Timeline:
    """An append-only collection of events with aggregate queries."""

    def __init__(self) -> None:
        self._events: list[Event] = []

    def add(
        self,
        lane: str,
        category: str,
        start: float,
        duration: float,
        label: str = "",
    ) -> Event:
        """Append an event and return it."""
        if duration < 0:
            raise ValueError(f"event duration must be non-negative, got {duration}")
        event = Event(lane=lane, category=category, start=start, duration=duration, label=label)
        self._events.append(event)
        return event

    @property
    def events(self) -> tuple[Event, ...]:
        """All events in insertion order."""
        return tuple(self._events)

    def makespan(self) -> float:
        """End time of the last event (0 for an empty timeline)."""
        if not self._events:
            return 0.0
        return max(event.end for event in self._events)

    def lane_busy_time(self, lane: str) -> float:
        """Total busy time on one lane (events are assumed non-overlapping)."""
        return sum(event.duration for event in self._events if event.lane == lane)

    def category_breakdown(self) -> dict[str, float]:
        """Total duration per category across all lanes."""
        totals: dict[str, float] = defaultdict(float)
        for event in self._events:
            totals[event.category] += event.duration
        return dict(totals)

    def category_fractions(self) -> dict[str, float]:
        """Category totals normalised to sum to 1.0."""
        totals = self.category_breakdown()
        grand = sum(totals.values())
        if grand <= 0:
            return {key: 0.0 for key in totals}
        return {key: value / grand for key, value in totals.items()}

    def utilisation(self, lane: str) -> float:
        """Busy fraction of a lane relative to the overall makespan."""
        span = self.makespan()
        if span <= 0:
            return 0.0
        return self.lane_busy_time(lane) / span
