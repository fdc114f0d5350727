"""Requests and the priority-lane queue in front of the batcher.

A :class:`Request` is one client's single-key embedding lookup; the
:class:`RequestQueue` holds admitted requests in arrival order, one lane
per priority class, and tracks its own depth so the telemetry can report
queue-length distributions.  Arrival *sources* (open-loop traces,
closed-loop user pools — :mod:`repro.serve.loadgen`) feed the queue; the
:class:`~repro.serve.batcher.MicroBatcher` drains it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Request:
    """One in-flight single-key lookup.

    ``arrival_time`` and ``completed_at`` are simulated seconds on the
    serving clock.
    """

    key: int
    arrival_time: float
    user: int = 0
    value: Optional[object] = field(default=None, repr=False)
    completed_at: Optional[float] = None
    #: Owning tenant's index in the serving loop (0 = the first or the
    #: implicit tenant); stamped at admission.
    tenant: int = 0
    #: The waiter's own micro-batch delay bound — its tenant's
    #: ``TenantSpec.max_delay``, stamped at admission; ``None`` inherits
    #: the loop policy's bound.
    max_delay: Optional[float] = None


class RequestQueue:
    """Priority lanes over arrival-ordered FIFOs, with depth accounting.

    Admitted requests wait in one lane per priority class; draining
    takes the highest priority first and FIFO within a lane, so under
    backlog a best-effort flood cannot starve a high-SLO tenant.  With
    every request at the default priority it is a plain FIFO.

    The queue is intentionally unbounded: the serving benchmarks drive it
    past saturation on purpose, and the visible symptom of overload must
    be latency (growing depth), not silent drops.  ``max_depth_seen``
    records the high-water mark for the SLO report.
    """

    def __init__(self) -> None:
        self._lanes: dict[int, deque[Request]] = {}
        self._size = 0
        self.max_depth_seen = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Request]:
        """Every waiter, lane by lane (arrival order within a lane)."""
        for lane in self._lanes.values():
            yield from lane

    def extend(self, requests: list[Request], priority: int = 0) -> None:
        """Admit a run of requests, in arrival order, into one priority lane."""
        lane = self._lanes.get(priority)
        if lane is None:
            lane = self._lanes[priority] = deque()
        lane.extend(requests)
        self._size += len(requests)
        if self._size > self.max_depth_seen:
            self.max_depth_seen = self._size

    def take(self, count: int) -> list[Request]:
        """Pop up to ``count`` requests, highest priority lane first."""
        taken: list[Request] = []
        for priority in sorted(self._lanes, reverse=True):
            lane = self._lanes[priority]
            room = min(count - len(taken), len(lane))
            taken.extend([lane.popleft() for _ in range(room)])
        self._size -= len(taken)
        return taken
