"""Faults scheduled on the simulated timeline.

One heap of ``(at, sequence, label, method, args)`` events behind both
chaos injectors — the serving tier's ``ChaosInjector`` and distributed
training's ``StragglerInjector`` add only their event vocabularies.
Events are scheduled at simulated instants and fired by whichever loop
owns the clock as it passes them; each names a method on the target the
loop hands in, so the schedule knows neither stores nor trainers.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.errors import ConfigError


class FaultSchedule:
    """Time-ordered fault events; equal times fire in scheduling order."""

    def __init__(self) -> None:
        self._events: list[tuple[float, int, str, str, tuple]] = []
        self._sequence = 0
        self.fired: list[dict] = []

    def _schedule(self, at: float, label: str, method: str, args: tuple) -> None:
        if at < 0:
            raise ConfigError(f"chaos events need non-negative times, got {at}")
        heapq.heappush(self._events, (at, self._sequence, label, method, args))
        self._sequence += 1

    def pending(self) -> int:
        """Scheduled events not yet fired."""
        return len(self._events)

    def peek_time(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None``."""
        return self._events[0][0] if self._events else None

    def fire_due(self, now: float, target) -> int:
        """Apply every event scheduled at or before ``now`` to ``target``.

        ``target`` duck-types the event methods; one it lacks raises at
        fire time, not silently.  Each fired event is appended to
        :attr:`fired`.  Returns the number fired.
        """
        count = 0
        while self._events and self._events[0][0] <= now:
            at, _, label, method, args = heapq.heappop(self._events)
            action = getattr(target, method, None)
            if action is None:
                raise ConfigError(
                    f"chaos event {label!r} needs a target with {method}(); "
                    f"{type(target).__name__} has none"
                )
            action(*args)
            self.fired.append({"label": label, "scheduled_at": at, "fired_at": now})
            count += 1
        return count
