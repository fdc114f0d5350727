"""The closed-loop user pool as a sorted run ≡ the heap it replaced.

``ClosedLoopArrivals`` keeps its pending ``(time, user)`` pairs as one
sorted run: completions are appended to a list and merged in with one
sort at the next read, and ``pop_due`` slices a run off the front and
draws its keys with one ``chooser.batch(n)``.  It used to keep a heap
and pop it one request at a time; that heap pool is kept here as the
reference, and this file checks that both issue the same
``(time, user, key)`` runs over seeded histories of ``peek_time`` /
``pop_due(until, limit)`` / ``on_complete`` / ``backlog`` — limits of 0,
1 and ``None``, equal instants (think time 0, where ties go by user id),
a shed completing at its arrival instant ahead of the run, exhaustion of
``total_requests`` — and inside a serving loop, through a subclass that
overrides ``on_complete`` the way the repository benchmark's does.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data.arrivals import ThinkTimeProcess
from repro.device import SimClock, SSDModel
from repro.kv import encode_vector
from repro.serve import (
    BatchPolicy,
    ClosedLoopArrivals,
    EmbeddingServer,
    LoadGenerator,
    Request,
    ServingLoop,
    TenantSpec,
)

DIM = 8
ITEMS = 200


class HeapClosedLoop:
    """The pool as it was: a heap of ``(time, user)``, popped while due,
    one ``next_key()`` per request."""

    def __init__(self, users, chooser, think, total_requests, start=0.0, seed=0) -> None:
        self._chooser = chooser
        self._think = think
        self._remaining = total_requests
        rng = np.random.default_rng(seed ^ 0xC10D)
        self._heap: list[tuple[float, int]] = []
        for user in range(users):
            offset = think.sample() if think.mean_seconds else float(rng.random()) * 1e-6
            heapq.heappush(self._heap, (start + offset, user))

    def __len__(self) -> int:
        return self._remaining

    def peek_time(self) -> Optional[float]:
        if not self._heap or self._remaining <= 0:
            return None
        return self._heap[0][0]

    def pop_due(self, until: float, limit: Optional[int] = None) -> list[Request]:
        heap, next_key = self._heap, self._chooser.next_key
        room = self._remaining if limit is None else min(limit, self._remaining)
        run: list[Request] = []
        while heap and len(run) < room and heap[0][0] <= until:
            time, user = heapq.heappop(heap)
            run.append(Request(next_key(), time, user))
        self._remaining -= len(run)
        return run

    def on_complete(self, request: Request, now: float) -> None:
        if self._remaining > 0:
            heapq.heappush(self._heap, (now + self._think.sample(), request.user))

    def backlog(self, now: float) -> int:
        return min(self._remaining, sum(1 for time, _ in self._heap if time <= now))


def pool(kind, users, think, total, seed=0, start=0.0):
    """A ``kind`` pool over the key and think-time streams of ``seed``."""
    return kind(
        users, LoadGenerator(ITEMS, "zipfian", seed=seed).chooser(),
        ThinkTimeProcess(think, seed=seed ^ 0xC33), total_requests=total,
        start=start, seed=seed,
    )


def pair(users, think, total, seed=0):
    """The sorted-run pool and the heap pool over equal streams."""
    return (pool(ClosedLoopArrivals, users, think, total, seed),
            pool(HeapClosedLoop, users, think, total, seed))


def triples(run: list[Request]) -> list[tuple[float, int, int]]:
    return [(request.arrival_time, request.user, request.key) for request in run]


def drive(seed: int, users: int, think: float, total: int, steps: int = 400) -> int:
    """A seeded history on both pools, compared after every step.
    Returns the requests issued."""
    rng = np.random.default_rng(seed)
    mine, reference = pair(users, think, total, seed=seed)
    in_flight: list[tuple[Request, Request]] = []
    now = 0.0
    issued = 0
    for _ in range(steps):
        first = reference.peek_time()
        assert mine.peek_time() == first
        assert len(mine) == len(reference)
        op = rng.integers(0, 4)
        if op == 0 and first is not None:
            # A run: up to the head, a little past it, or everything.
            until = [first, first + float(rng.exponential(max(think, 1e-6))), math.inf][
                rng.integers(0, 3)
            ]
            limit = [0, 1, None, int(rng.integers(2, users + 2))][rng.integers(0, 4)]
            got, want = mine.pop_due(until, limit), reference.pop_due(until, limit)
            assert triples(got) == triples(want)
            in_flight.extend(zip(got, want))
            issued += len(got)
            now = max(now, until if until != math.inf else now)
        elif op == 1 and in_flight:
            # Complete a few in-flight requests out of user order; a shed
            # completes at its own arrival instant, ahead of the run.
            order = rng.permutation(len(in_flight))[: int(rng.integers(1, 6))]
            for index in sorted(order.tolist(), reverse=True):
                got, want = in_flight.pop(index)
                shed = rng.random() < 0.3
                at = got.arrival_time if shed else max(now, got.arrival_time)
                mine.on_complete(got, at)
                reference.on_complete(want, at)
        elif op == 2:
            probe = [now, now + float(rng.exponential(max(think, 1e-6))), math.inf][
                rng.integers(0, 3)
            ]
            assert mine.backlog(probe) == reference.backlog(probe)
        else:
            # Complete everything in flight at one instant: with think
            # time 0 every one of them is due again at the same time.
            rng.shuffle(in_flight)
            for got, want in in_flight:
                at = max(now, got.arrival_time)
                mine.on_complete(got, at)
                reference.on_complete(want, at)
            in_flight.clear()
    assert mine.peek_time() == reference.peek_time()
    assert mine.backlog(math.inf) == reference.backlog(math.inf)
    return issued


class TestAgainstTheHeap:
    @pytest.mark.parametrize("seed", range(6))
    def test_a_random_history_issues_the_same_runs(self, seed):
        think = [0.0, 1e-6, 20e-6][seed % 3]
        assert drive(seed, users=3 + 5 * seed, think=think, total=10 + 40 * seed) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_think_time_zero_ties_go_by_user(self, seed):
        """Every completion lands at one instant, in shuffled order: the
        next run is ordered by user id, not by completion order."""
        mine, reference = pair(8, 0.0, 200, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            got, want = mine.pop_due(math.inf), reference.pop_due(math.inf)
            assert triples(got) == triples(want)
            at = max(request.arrival_time for request in got)
            for index in rng.permutation(len(got)).tolist():
                mine.on_complete(got[index], at)
                reference.on_complete(want[index], at)
        rerun = mine.pop_due(math.inf)
        assert [request.user for request in rerun] == sorted(
            request.user for request in rerun
        )
        assert triples(rerun) == triples(reference.pop_due(math.inf))

    @pytest.mark.parametrize("limit", [0, 1, None])
    def test_limits(self, limit):
        mine, reference = pair(6, 1e-6, 30, seed=2)
        for _ in range(40):
            got, want = mine.pop_due(math.inf, limit), reference.pop_due(math.inf, limit)
            assert triples(got) == triples(want)
            if limit == 0:
                assert got == []
            for a, b in zip(got, want):
                mine.on_complete(a, a.arrival_time + 1e-6)
                reference.on_complete(b, b.arrival_time + 1e-6)
        assert len(mine) == len(reference)

    def test_a_shed_is_due_again_ahead_of_the_run(self):
        """One arrival is popped and completed at its own instant (what a
        shed does); with think time 0 it is due at once, ahead of every
        user still pending behind it."""
        mine, reference = pair(5, 0.0, 50, seed=1)
        first = mine.pop_due(math.inf, 1)
        head = reference.pop_due(math.inf, 1)
        assert triples(first) == triples(head)
        mine.on_complete(first[0], first[0].arrival_time)
        reference.on_complete(head[0], head[0].arrival_time)
        assert mine.peek_time() == reference.peek_time() == first[0].arrival_time
        got, want = mine.pop_due(math.inf), reference.pop_due(math.inf)
        assert triples(got) == triples(want)
        assert got[0].user == first[0].user

    def test_exhaustion(self):
        mine, reference = pair(8, 1e-6, 11, seed=3)
        issued = []
        while mine.peek_time() is not None:
            got, want = mine.pop_due(math.inf, 3), reference.pop_due(math.inf, 3)
            assert triples(got) == triples(want)
            issued += got
            for a, b in zip(got, want):
                mine.on_complete(a, a.arrival_time)
                reference.on_complete(b, b.arrival_time)
        assert len(issued) == 11
        assert reference.peek_time() is None
        assert mine.pop_due(math.inf) == reference.pop_due(math.inf) == []
        assert mine.backlog(math.inf) == reference.backlog(math.inf) == 0


# ----------------------------------------------------------------------
# inside a serving loop, through an on_complete override
# ----------------------------------------------------------------------
class Recording:
    """Mixin: overrides ``on_complete`` the way the repository benchmark's
    ``RecordingArrivals`` does — it records, then defers to the pool."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.seen: list[tuple[int, int, float, float, Optional[bytes]]] = []

    def on_complete(self, request, now: float) -> None:
        value = None if request.value is None else request.value.tobytes()
        self.seen.append((request.user, request.key, request.arrival_time, now, value))
        super().on_complete(request, now)


class RecordingRun(Recording, ClosedLoopArrivals):
    pass


class RecordingHeap(Recording, HeapClosedLoop):
    pass


def make_server(directory):
    store = MLKV(str(directory), ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 22)
    tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
    keys = list(range(ITEMS))
    store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return EmbeddingServer(store, dim=DIM, seed=3, cache_entries=32)


class TestInALoop:
    @pytest.mark.parametrize("think", [0.0, 5e-6])
    def test_the_implicit_tenant_serves_the_same_schedule(self, tmp_path, think):
        seen = []
        for name, cls in (("run", RecordingRun), ("heap", RecordingHeap)):
            server = make_server(tmp_path / name)
            source = pool(cls, 16, think, 600, seed=5, start=server.clock.now)
            loop = ServingLoop(server, BatchPolicy(max_batch=8, max_delay=5e-6))
            loop.run(source, max_requests=250)
            loop.run(source)  # resumed: waiters carry over
            seen.append(source.seen)
            server.store.close()
        assert len(seen[0]) == 600
        assert seen[0] == seen[1]

    def test_a_shedding_tenant_serves_the_same_schedule(self, tmp_path):
        """A token bucket sheds; each shed completes back at its arrival
        instant and the user is due again at once."""
        seen, sheds = [], []
        for name, cls in (("run", RecordingRun), ("heap", RecordingHeap)):
            server = make_server(tmp_path / name)
            source = pool(cls, 12, 0.0, 400, seed=6, start=server.clock.now)
            loop = ServingLoop(server, BatchPolicy(max_batch=8, max_delay=5e-6))
            tenant = loop.add_tenant(TenantSpec("t", rate_limit=2e5, burst=3), source)
            loop.run()
            seen.append(source.seen)
            sheds.append(tenant.shed_rate)
            server.store.close()
        assert sheds[0] == sheds[1] > 0
        assert len(seen[0]) == 400
        assert seen[0] == seen[1]
