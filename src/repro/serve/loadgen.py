"""Load generation for the serving tier: open- and closed-loop arrivals.

Both loops draw *keys* from the same choosers the YCSB benchmarks use
(:class:`~repro.data.ycsb.ZipfianGenerator` /
:class:`~repro.data.ycsb.UniformGenerator`) and *times* from the arrival
processes in :mod:`repro.data.arrivals`:

* **open loop** — a Poisson stream at a fixed offered rate, independent
  of how fast the server answers.  This is the aggregate of millions of
  independent users, and the honest way to measure latency under load:
  a saturated server sees its queue (and p99) grow, instead of the
  workload politely slowing down.
* **closed loop** — ``users`` simulated clients, each waiting for its
  response and an exponential think time before the next request.  The
  offered rate self-limits at saturation; modeling a million-user site
  means scaling ``users`` / think time to the target concurrency.

Both sources implement the small protocol the serving loop consumes:
``peek_time()`` (next arrival instant, ``None`` when drained),
``pop_due(until, limit)`` (consume, in arrival order, the requests due at
or before ``until``, at most ``limit`` — the loop gathers in *runs*),
``on_complete(request, now)`` (one call per request, served or shed: the
client's side of the wire) and ``backlog(now)``.  Traces are arrays until
popped: a :class:`Request` exists only once the loop has taken it.

The closed loop keeps its pending ``(time, user)`` pairs as one sorted
run rather than a heap: completions are appended to a list and merged in
with one sort at the next read, and ``pop_due`` slices a run off the
front (its end found by bisection) and draws the run's keys with one
``chooser.batch(n)``.  Each user has at most one pending arrival, so the
pairs are unique and the run's order — time, then user id — is the
order a heap would pop them in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional

import numpy as np

from repro.data.arrivals import PoissonProcess, ThinkTimeProcess
from repro.data.ycsb import UniformGenerator, ZipfianGenerator
from repro.device.faults import FaultSchedule
from repro.errors import ConfigError
from repro.serve.request import Request


class OpenLoopArrivals:
    """A fully materialized open-loop trace (arrival times + keys).

    Materializing the trace keeps replays exact across serving modes —
    the per-request baseline and the micro-batched server answer the
    *same* requests at the *same* offered instants — and exposes the
    key schedule the serving prefetcher can look ahead over.  ``times``
    (ascending) and ``keys`` are arrays; request ``i`` (``user=i``) is
    built when popped and kept in :attr:`issued`.
    """

    def __init__(self, times, keys) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.keys = np.asarray(keys, dtype=np.int64)
        if self.times.shape != self.keys.shape or self.times.ndim != 1:
            raise ConfigError("times and keys must be 1-D and of equal length")
        self._cursor = 0
        self.issued: list[Request] = []  # popped so far; answers land on them

    def __len__(self) -> int:
        return len(self.times)

    def peek_time(self) -> Optional[float]:
        """Arrival time of the next request, or ``None`` when drained."""
        if self._cursor >= len(self.times):
            return None
        return self.times[self._cursor].item()

    def pop_due(self, until: float, limit: Optional[int] = None) -> list[Request]:
        """Consume the requests due at or before ``until`` (at most ``limit``)."""
        start = self._cursor
        stop = max(start, int(self.times.searchsorted(until, "right")))
        if limit is not None:
            stop = min(stop, start + limit)
        keys, times = self.keys[start:stop].tolist(), self.times[start:stop].tolist()
        run = list(map(Request, keys, times, range(start, stop)))
        self._cursor = stop
        self.issued.extend(run)
        return run

    def on_complete(self, request: Request, now: float) -> None:
        """Open loop: completions do not influence future arrivals."""

    def backlog(self, now: float) -> int:
        """Arrived-but-unpopped requests at simulated time ``now``."""
        return max(0, int(self.times.searchsorted(now, "right")) - self._cursor)

    def key_schedule(self, chunk: int) -> list[np.ndarray]:
        """The trace's keys in ``chunk``-sized batches, for the serving
        prefetcher (the look-ahead engine wants one array per batch)."""
        return [self.keys[start:start + chunk] for start in range(0, len(self.keys), chunk)]


class ClosedLoopArrivals:
    """A pool of users, each re-requesting after response + think time.

    Pending arrivals are one sorted run of ``(time, user)`` pairs;
    ``on_complete`` appends to a list of completions that the next
    ``peek_time`` / ``pop_due`` / ``backlog`` merges in (module docstring).
    """

    def __init__(
        self,
        users: int,
        chooser,
        think: ThinkTimeProcess,
        total_requests: int,
        start: float = 0.0,
        seed: int = 0,
    ) -> None:
        if users <= 0:
            raise ConfigError(f"users must be positive, got {users}")
        if total_requests < 0:
            raise ConfigError("total_requests must be non-negative")
        self._chooser = chooser
        self._think = think
        self._remaining = total_requests
        # Stagger the pool's first requests with think-time draws so the
        # loop does not open on a users-sized thundering herd.
        rng = np.random.default_rng(seed ^ 0xC10D)
        self._pending: list[tuple[float, int]] = sorted(
            (start + (think.sample() if think.mean_seconds else float(rng.random()) * 1e-6), user)
            for user in range(users)
        )
        self._completed: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return self._remaining

    def _merged(self) -> list[tuple[float, int]]:
        """The sorted run of pending arrivals, completions merged in."""
        pending = self._pending
        if self._completed:
            pending += self._completed
            pending.sort()
            self._completed.clear()
        return pending

    def peek_time(self) -> Optional[float]:
        """Arrival time of the next due request, or ``None`` when drained."""
        if self._remaining <= 0:
            return None
        pending = self._merged()
        return pending[0][0] if pending else None

    def pop_due(self, until: float, limit: Optional[int] = None) -> list[Request]:
        """Consume the requests due at or before ``until`` (at most ``limit``)."""
        pending = self._merged()
        room = self._remaining if limit is None else min(limit, self._remaining)
        stop = min(room, bisect_right(pending, (until, math.inf)))
        if stop <= 0:
            return []
        due = pending[:stop]
        del pending[:stop]
        self._remaining -= stop
        keys = self._chooser.batch(stop).tolist()
        return [Request(key, time, user) for key, (time, user) in zip(keys, due)]

    def on_complete(self, request: Request, now: float) -> None:
        """Schedule this user's next request after its think time."""
        if self._remaining > 0:
            self._completed.append((now + self._think.sample(), request.user))

    def backlog(self, now: float) -> int:
        """Requests already due at ``now`` that will still be issued."""
        return min(self._remaining, bisect_right(self._merged(), (now, math.inf)))


class ChaosInjector(FaultSchedule):
    """Scheduled fault injection for the serving path.

    Chaos events are scheduled at simulated instants and fired by the
    serving loop as its clock passes them, so a failover happens *mid
    run* with requests in flight — the only honest way to measure it.
    Each fired event switches the telemetry phase, so one run yields
    before/after latency percentiles.

    Replica events act on the :class:`~repro.kv.replicated.ReplicaGroup`
    serving the named shard of the store: :meth:`kill_replica_at` calls
    its ``fail``, :meth:`revive_replica_at` its ``revive``,
    :meth:`slow_shard` its ``slow``.  Scheduling an event a store cannot
    honor (no shards, or a shard that is not a group) raises at fire
    time, not silently.
    """

    def kill_replica_at(self, at: float, shard: int, replica: int) -> "ChaosInjector":
        """Kill ``replica`` of ``shard`` at simulated second ``at``."""
        self._schedule(at, f"kill:{shard}/{replica}", "fail", (replica,), shard)
        return self

    def revive_replica_at(self, at: float, shard: int, replica: int) -> "ChaosInjector":
        """Revive a killed replica, with hinted catch-up."""
        self._schedule(at, f"revive:{shard}/{replica}", "revive", (replica,), shard)
        return self

    def slow_shard(
        self,
        at: float,
        shard: int,
        penalty_seconds: float,
        replica: int = 0,
        until: Optional[float] = None,
    ) -> "ChaosInjector":
        """Degrade one replica of ``shard`` by ``penalty_seconds`` per read.

        ``until`` schedules the matching recovery; omitted, the shard
        stays slow for the rest of the run.
        """
        self._schedule(
            at, f"slow:{shard}/{replica}", "slow", (replica, penalty_seconds), shard
        )
        if until is not None:
            if until <= at:
                raise ConfigError(f"slow_shard until={until} must be after at={at}")
            self._schedule(until, f"heal:{shard}/{replica}", "slow", (replica, 0.0), shard)
        return self

    def fire_due(self, now: float, store, telemetry=None) -> int:
        """Apply every event scheduled at or before ``now`` to ``store``.

        Returns the number fired.  Each event flips the telemetry phase
        to ``after:<label>`` so subsequent request latencies are
        attributed to the post-event regime.
        """
        count = super().fire_due(now, store)
        if telemetry is not None:
            for event in self.fired[len(self.fired) - count :]:
                telemetry.set_phase(f"after:{event['label']}", at=now)
        return count


class LoadGenerator:
    """Builds arrival sources over a shared key popularity model.

    Parameters
    ----------
    item_count:
        Key-space size (the pre-loaded serving table).
    distribution:
        ``"zipfian"`` (YCSB scrambled zipfian, the hot-key regime
        serving caches exist for) or ``"uniform"``.
    seed:
        Base seed; open and closed loops derive their own streams.
    """

    def __init__(
        self, item_count: int, distribution: str = "zipfian", seed: int = 0
    ) -> None:
        self.item_count = item_count
        self.distribution = distribution
        self.seed = seed

    def open_loop(self, rate: float, count: int, start: float = 0.0) -> OpenLoopArrivals:
        """A ``count``-request Poisson trace at ``rate`` requests/second."""
        times = PoissonProcess(rate, seed=self.seed ^ 0xA11, start=start).times(count)
        return OpenLoopArrivals(times, self.chooser().batch(count))

    def open_loop_process(
        self, process, count: int, storm=None
    ) -> OpenLoopArrivals:
        """Materialize an open-loop trace from any arrival process.

        ``process`` is anything with ``times(count)`` — a plain
        :class:`~repro.data.arrivals.PoissonProcess` or one of the
        rate-modulated production shapes
        (:class:`~repro.data.arrivals.DiurnalProcess`,
        :class:`~repro.data.arrivals.FlashCrowdProcess`).  ``storm`` is
        an optional :class:`~repro.data.arrivals.HotKeyStorm` wrapping
        this generator's key chooser; when given, keys are drawn
        time-aware through it so the storm window collapses traffic
        onto its hot set.
        """
        times = process.times(count)
        if storm is not None:
            keys = [storm.key_at(float(time)) for time in times]
        else:
            keys = self.chooser().batch(count)
        return OpenLoopArrivals(times, keys)

    def chooser(self):
        """A fresh key chooser over this generator's popularity model
        (e.g. to seed a :class:`~repro.data.arrivals.HotKeyStorm`)."""
        if self.distribution == "zipfian":
            return ZipfianGenerator(self.item_count, seed=self.seed)
        if self.distribution == "uniform":
            return UniformGenerator(self.item_count, seed=self.seed)
        raise ConfigError(f"unknown key distribution {self.distribution!r}")

    def closed_loop(
        self,
        users: int,
        think_seconds: float,
        count: int,
        start: float = 0.0,
    ) -> ClosedLoopArrivals:
        """``users`` clients issuing ``count`` total requests."""
        think = ThinkTimeProcess(think_seconds, seed=self.seed ^ 0xC33)
        return ClosedLoopArrivals(
            users, self.chooser(), think, total_requests=count, start=start, seed=self.seed
        )
