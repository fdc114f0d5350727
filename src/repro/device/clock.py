"""Deterministic simulated clock with per-component busy-time accounting.

All storage and compute costs in the benchmarks are charged to a
``SimClock``.  The clock distinguishes two kinds of charges:

* **blocking** charges advance simulated time (the caller waited), and
* **overlapped** charges record device busy time without advancing the
  caller's timeline (the work happened in the background, e.g. look-ahead
  prefetching or LSM compaction on a flush thread).

At the end of a run ``busy_seconds`` per component feeds the energy model,
and ``drain()`` resolves any backlog of overlapped work that could not, in
fact, be hidden behind foreground time (the device is not infinitely fast).
"""

from __future__ import annotations


def _add_each(total: float, seconds: float, count: int) -> float:
    """``total`` after adding ``seconds`` to it ``count`` times in turn."""
    for _ in range(count):
        total += seconds
    return total


class SimClock:
    """A monotonically increasing simulated clock.

    Parameters
    ----------
    start:
        Initial simulated time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._busy: dict[str, float] = {}
        self._background: dict[str, float] = {}
        self._last_drain_now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float, component: str = "cpu") -> None:
        """Blocking charge: the caller waited ``seconds`` on ``component``."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        self._busy[component] = self._busy.get(component, 0.0) + seconds

    def charge_background(self, seconds: float, component: str = "ssd") -> None:
        """Overlapped charge: ``component`` was busy but the caller did not wait.

        Background work accumulates as a backlog per component.  Foreground
        time (``advance``) implicitly drains the backlog because the device
        works while the caller computes; any remainder is settled by
        ``drain``.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge {seconds!r} seconds")
        self._busy[component] = self._busy.get(component, 0.0) + seconds
        self._background[component] = self._background.get(component, 0.0) + seconds

    def advance_each(self, seconds: float, count: int, component: str = "cpu") -> None:
        """``count`` blocking charges of ``seconds`` each.

        Floating-point sums depend on their order, and simulated time is
        compared bit for bit: this performs the additions of ``count``
        :meth:`advance` calls one by one, never ``count * seconds``.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now = _add_each(self._now, seconds, count)
        self._busy[component] = _add_each(self._busy.get(component, 0.0), seconds, count)

    def charge_background_each(self, seconds: float, count: int, component: str = "ssd") -> None:
        """``count`` overlapped charges of ``seconds`` each, added one by
        one like :meth:`advance_each`."""
        if seconds < 0:
            raise ValueError(f"cannot charge {seconds!r} seconds")
        self._busy[component] = _add_each(self._busy.get(component, 0.0), seconds, count)
        self._background[component] = _add_each(
            self._background.get(component, 0.0), seconds, count
        )

    def drain(self) -> float:
        """Settle background backlogs that exceed elapsed foreground time.

        For each component, background work up to the total foreground time
        is considered hidden (the device worked in parallel).  Work beyond
        that could not be hidden, so it advances the clock.  Returns the
        number of seconds the clock advanced.
        """
        foreground = self._now
        stalled = 0.0
        for component, backlog in self._background.items():
            hidden = min(backlog, foreground)
            stalled += backlog - hidden
            self._background[component] = 0.0
        self._now += stalled
        return stalled

    def drain_step(self, max_carry_seconds: float) -> float:
        """Per-step settlement of overlapped work (called each batch).

        Background work issued during a step hides behind that step's
        foreground time; what remains may stay *in flight* up to
        ``max_carry_seconds`` (how far ahead the prefetch window extends)
        — a deeper look-ahead window legitimately overlaps more future
        compute.  Backlog beyond the carry capacity means the device fell
        behind its consumers, so the excess advances the clock as stall
        time.  Returns the stalled seconds.
        """
        if max_carry_seconds < 0:
            raise ValueError("max_carry_seconds must be non-negative")
        window = max(0.0, self._now - self._last_drain_now)
        stalled = 0.0
        for component, backlog in self._background.items():
            hidden = min(backlog, window)
            carry = backlog - hidden
            if carry > max_carry_seconds:
                stalled += carry - max_carry_seconds
                carry = max_carry_seconds
            self._background[component] = carry
        self._now += stalled
        self._last_drain_now = self._now
        return stalled

    def busy_seconds(self, component: str) -> float:
        """Total busy time charged to ``component`` (blocking + overlapped)."""
        return self._busy.get(component, 0.0)

    def components(self) -> dict[str, float]:
        """A copy of the per-component busy-time table."""
        return dict(self._busy)

    def snapshot(self) -> tuple[float, dict[str, float], dict[str, float]]:
        """Capture clock state; pair with :meth:`restore` to exclude a
        section (e.g. periodic evaluation) from training-time accounting."""
        return self._now, dict(self._busy), dict(self._background)

    def restore(self, state: tuple[float, dict[str, float], dict[str, float]]) -> None:
        """Rewind to a state captured by :meth:`snapshot`."""
        self._now, busy, background = state
        self._busy = dict(busy)
        self._background = dict(background)

    def reset(self) -> None:
        """Zero the clock and all accounting (for reuse between sweeps)."""
        self._now = 0.0
        self._last_drain_now = 0.0
        self._busy.clear()
        self._background.clear()

    def note_busy(self, seconds: float, component: str = "cpu") -> None:
        """Record busy time without advancing this clock or queueing backlog.

        Used by :class:`WorkerClockView`: a worker's compute advances the
        worker's own timeline, but its busy seconds still belong in the
        shared per-component table so energy and breakdown reporting see
        every device's work exactly once.
        """
        if seconds < 0:
            raise ValueError(f"cannot note {seconds!r} busy seconds")
        self._busy[component] = self._busy.get(component, 0.0) + seconds

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f}, busy={self._busy})"


class WorkerClockView:
    """A per-worker timeline layered over a shared :class:`SimClock`.

    Distributed training simulates N workers computing *in parallel*
    against one parameter server.  One global clock cannot express that:
    serializing every worker's compute on it would make N workers exactly
    as slow as one.  Instead each worker advances its own local time
    (compute overlaps freely across views), while interactions with the
    shared server serialize on the base clock — the engine fast-forwards
    the base clock to ``max(server.now, worker.now)`` before a pull/push
    and hands the post-operation server time back via :meth:`wait_until`.

    Busy-time accounting is *not* per-view: every charge lands in the
    base clock's component table (via :meth:`SimClock.note_busy`), so a
    run's energy/breakdown totals count all workers' devices once each.
    The run's wall-clock is ``max`` over all views and the base clock.
    """

    def __init__(self, base: SimClock, name: str = "worker") -> None:
        self.base = base
        self.name = name
        self._now = base.now
        self.waited_seconds = 0.0

    @property
    def now(self) -> float:
        """This worker's local simulated time."""
        return self._now

    def advance(self, seconds: float, component: str = "cpu") -> None:
        """Blocking charge on this worker's private timeline."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        self.base.note_busy(seconds, component=component)

    def wait_until(self, when: float) -> float:
        """Block until shared time ``when`` (barrier, staleness stall, or a
        server response); returns the seconds waited.  Waiting is idle —
        it advances local time without charging any component busy."""
        waited = max(0.0, when - self._now)
        self._now = max(self._now, when)
        self.waited_seconds += waited
        return waited

    def __repr__(self) -> str:
        return f"WorkerClockView({self.name!r}, now={self._now:.6f})"

