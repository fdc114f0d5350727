"""The serving loop's batch verbs ≡ the per-request loops they replaced.

* ``LatencyHistogram.record_many(x)`` ≡ ``for v in x: record(v)``, bit
  for bit, on both sides of the array threshold;
* ``pop_due(until, limit)`` on both arrival sources: inclusive bound,
  arrival order, the cap, and what a drained source reports;
* runs: whose arrivals come next when tenants tie, and which tenants
  are admitted one arrival at a time;
* a ceiling on Python call events per served request — the serving
  sibling of the benchmark's ``kv.py_calls_per_key``.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data.arrivals import ThinkTimeProcess
from repro.device import SimClock, SSDModel
from repro.errors import ConfigError
from repro.kv import encode_vector
from repro.serve import (
    BatchPolicy,
    ClosedLoopArrivals,
    EmbeddingServer,
    LatencyHistogram,
    LoadGenerator,
    OpenLoopArrivals,
    ServingLoop,
    ServingTelemetry,
    TenantSpec,
    namespace_key,
)
from repro.serve import telemetry as telemetry_module

DIM = 8


def make_server(directory, item_count=400, tenant_count=1, cache_entries=64):
    store = MLKV(str(directory), ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 22)
    tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
    for tenant in range(tenant_count):
        keys = [namespace_key(tenant, key) for key in range(item_count)]
        store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return EmbeddingServer(store, dim=DIM, seed=3, cache_entries=cache_entries)


# ----------------------------------------------------------------------
# (a) record_many ≡ a loop of record
# ----------------------------------------------------------------------
def state(histogram: LatencyHistogram):
    return (list(histogram._counts), histogram.count, histogram.total, histogram.max_seen)


def looped(samples, start=()) -> LatencyHistogram:
    histogram = LatencyHistogram()
    for value in [*start, *samples]:
        histogram.record(value)
    return histogram


_EDGES = [LatencyHistogram()._bucket_upper(index) for index in range(0, 452)]

_samples = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=100e-9),  # below min_latency
        st.floats(min_value=100.0, max_value=1e300),  # above max_latency
        st.sampled_from(_EDGES),
        st.sampled_from([0.0, 100e-9, 100.0, math.nextafter(100e-9, 0.0)]),
    ),
    max_size=3 * telemetry_module.ARRAY_MIN,
)


class TestRecordMany:
    @settings(max_examples=300, deadline=None)
    @given(first=_samples, second=_samples)
    def test_equals_a_loop_of_record(self, first, second):
        batched = LatencyHistogram()
        batched.record_many(first)
        batched.record_many(np.array(second))  # a list or an array
        assert state(batched) == state(looped(first + second))

    def test_every_bucket_edge_lands_where_record_puts_it(self):
        """``_bucket_upper(i)`` is exactly where ``log`` may round either
        way; one array holding every edge (and both neighbours)."""
        samples = [
            value
            for edge in _EDGES
            for value in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
        ]
        assert len(samples) >= telemetry_module.ARRAY_MIN
        batched = LatencyHistogram()
        batched.record_many(samples)
        assert state(batched) == state(looped(samples))

    def test_total_is_accumulated_in_order(self):
        """Pairwise ``np.sum`` and a running ``+=`` part ways on these."""
        rng = np.random.default_rng(1)
        samples = (rng.uniform(1e-6, 1e-2, 257) * 10.0 ** rng.integers(-3, 3, 257)).tolist()
        batched = LatencyHistogram()
        batched.record(0.1)
        batched.record_many(samples)
        assert batched.total == looped(samples, start=[0.1]).total
        assert batched.total != 0.1 + float(np.sum(samples))  # the scenario bites

    @pytest.mark.parametrize("size", [3, 2 * telemetry_module.ARRAY_MIN])
    def test_negative_sample_raises_before_anything_is_recorded(self, size):
        histogram, mirror = LatencyHistogram(), LatencyHistogram()
        histogram.record(1e-3)
        before = state(histogram)
        samples = [1e-4] * size
        samples[-1] = -1e-9
        with pytest.raises(ValueError):
            histogram.record_many(samples, mirror)
        assert state(histogram) == before
        assert mirror.count == 0

    @pytest.mark.parametrize("size", [5, 4 * telemetry_module.ARRAY_MIN])
    def test_mirrors_receive_the_same_samples(self, size):
        samples = np.random.default_rng(2).uniform(0.0, 2e-3, size).tolist()
        histogram, mirror = LatencyHistogram(), LatencyHistogram()
        mirror.record(5e-3)
        histogram.record_many(samples, mirror)
        assert state(histogram) == state(looped(samples))
        assert state(mirror) == state(looped(samples, start=[5e-3]))

    def test_merge_of_batch_filled_histograms(self):
        rng = np.random.default_rng(3)
        first, second = rng.uniform(0, 1e-2, 100).tolist(), rng.uniform(0, 1.0, 70).tolist()
        left, right = LatencyHistogram(), LatencyHistogram()
        left.record_many(first)
        right.record_many(second)
        merged = left.merge(right)
        expected = looped(first).merge(looped(second))
        assert state(merged) == state(expected)
        assert merged.summary() == expected.summary()

    def test_empty_batch_is_a_no_op(self):
        histogram = LatencyHistogram()
        histogram.record_many([])
        histogram.record_many(np.array([]))
        assert histogram.count == 0 and histogram.summary()["mean"] == 0.0


class TestRecordRequests:
    @pytest.mark.parametrize("size", [2, 7, 200])
    def test_one_record_per_batch_equals_one_per_request(self, size):
        rng = np.random.default_rng(size)
        arrivals = rng.uniform(1.0, 1.001, size).tolist()
        telemetry = ServingTelemetry()
        telemetry.record_requests(arrivals[: size // 2], 1.002)
        telemetry.set_phase("after:event", at=1.002)
        telemetry.record_requests(arrivals[size // 2:], 1.003)
        assert telemetry.requests_completed == size
        assert telemetry.first_arrival == min(arrivals)
        assert telemetry.last_completion == 1.003
        latencies = [1.002 - a for a in arrivals[: size // 2]] + [
            1.003 - a for a in arrivals[size // 2:]
        ]
        assert state(telemetry.latency) == state(looped(latencies))
        assert state(telemetry.phase_latency["after:event"]) == state(
            looped(latencies[size // 2:])
        )


# ----------------------------------------------------------------------
# pop_due on the two sources
# ----------------------------------------------------------------------
class TestOpenLoopSource:
    TIMES = [1.0, 2.0, 2.0, 2.0, 3.0, 5.0]
    KEYS = [10, 11, 12, 13, 14, 15]

    def test_requests_exist_only_once_popped(self):
        source = OpenLoopArrivals(self.TIMES, self.KEYS)
        assert len(source) == 6 and source.issued == []
        assert isinstance(source.times, np.ndarray) and isinstance(source.keys, np.ndarray)
        run = source.pop_due(2.0)
        assert [(r.user, r.key, r.arrival_time) for r in run] == [
            (0, 10, 1.0), (1, 11, 2.0), (2, 12, 2.0), (3, 13, 2.0),
        ]
        assert source.issued == run
        assert type(run[0].key) is int and type(run[0].arrival_time) is float

    def test_bound_is_inclusive_and_limit_caps_in_arrival_order(self):
        source = OpenLoopArrivals(self.TIMES, self.KEYS)
        assert source.pop_due(0.5) == []
        assert [r.key for r in source.pop_due(math.nextafter(2.0, 0.0))] == [10]
        assert [r.key for r in source.pop_due(2.0, 2)] == [11, 12]
        assert source.peek_time() == 2.0
        assert [r.key for r in source.pop_due(4.0, 5)] == [13, 14]
        assert source.peek_time() == 5.0
        assert [r.key for r in source.pop_due(math.inf)] == [15]
        assert source.peek_time() is None and source.pop_due(math.inf) == []

    def test_backlog_counts_due_and_unpopped(self):
        source = OpenLoopArrivals(self.TIMES, self.KEYS)
        assert [source.backlog(now) for now in (0.0, 1.0, 2.0, 4.9, 9.0)] == [0, 1, 4, 5, 6]
        source.pop_due(2.0, 3)
        assert [source.backlog(now) for now in (0.0, 2.0, 9.0)] == [0, 1, 3]

    def test_key_schedule_slices_the_keys(self):
        source = OpenLoopArrivals(self.TIMES, self.KEYS)
        source.pop_due(2.0)  # popping does not shorten the schedule
        schedule = source.key_schedule(4)
        assert [chunk.tolist() for chunk in schedule] == [[10, 11, 12, 13], [14, 15]]
        assert all(np.shares_memory(chunk, source.keys) for chunk in schedule)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            OpenLoopArrivals([1.0, 2.0], [1])

    def test_generators_draw_keys_with_batch(self):
        """``open_loop`` keys are the chooser's stream, whichever verb reads it."""
        generator = LoadGenerator(1000, "zipfian", seed=5)
        chooser = generator.chooser()
        expected = [chooser.next_key() for _ in range(300)]
        assert generator.open_loop(rate=1e5, count=300).keys.tolist() == expected


class TestClosedLoopSource:
    def pool(self, users=8, total=20, think=1e-6):
        return ClosedLoopArrivals(
            users, LoadGenerator(100, "zipfian", seed=4).chooser(),
            ThinkTimeProcess(think, seed=2), total_requests=total, seed=4,
        )

    def test_pops_in_arrival_order_up_to_the_bound(self):
        source = self.pool()
        first = source.peek_time()
        assert [r.arrival_time for r in source.pop_due(first)] == [first]
        rest = source.pop_due(math.inf)
        assert len(rest) == 7  # one request per user until completions come back
        times = [r.arrival_time for r in rest]
        assert times == sorted(times) and times[0] > first
        assert source.peek_time() is None and len(source) == 12

    def test_limit_and_remaining_cap_the_run(self):
        source = self.pool(users=8, total=5)
        assert len(source.pop_due(math.inf, 3)) == 3
        assert len(source.pop_due(math.inf)) == 2  # only five will ever be issued
        assert source.peek_time() is None and source.pop_due(math.inf) == []

    def test_keys_follow_pop_order(self):
        source = self.pool()
        chooser = LoadGenerator(100, "zipfian", seed=4).chooser()
        expected = [chooser.next_key() for _ in range(8)]
        got = [r.key for r in source.pop_due(source.peek_time())]
        got += [r.key for r in source.pop_due(math.inf)]
        assert got == expected

    def test_drained_pool_reports_no_backlog(self, tmp_path):
        """Regression: after the last request is issued the pool still
        holds the other users' next arrivals; they will never be issued
        and are not a backlog."""
        source = self.pool(users=8, total=20)
        server = make_server(tmp_path / "s", item_count=100)
        ServingLoop(server, BatchPolicy(4, 5e-6)).run(source)
        assert source.peek_time() is None and len(source) == 0
        # The phantoms: due, never to be issued.
        assert len(source._pending) + len(source._completed) > 0
        assert source.backlog(math.inf) == 0
        server.store.close()

    def test_backlog_is_capped_by_what_remains(self):
        source = self.pool(users=8, total=3)
        assert source.backlog(math.inf) == 3
        source.pop_due(math.inf, 2)
        assert source.backlog(math.inf) == 1


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
class Spy(OpenLoopArrivals):
    """An open-loop trace that logs each ``pop_due`` and each completion."""

    def __init__(self, times, keys) -> None:
        super().__init__(times, keys)
        self.pops: list[tuple[float, object, int]] = []
        self.completed: list[int] = []

    def pop_due(self, until, limit=None):
        run = super().pop_due(until, limit)
        self.pops.append((until, limit, len(run)))
        return run

    def on_complete(self, request, now) -> None:
        self.completed.append(request.key)


class TestRuns:
    def test_equal_instants_go_to_the_lower_tenant_index_first(self, tmp_path):
        """Two tenants in one lane, arrivals on the same instants: the
        batch order is a's then b's at every instant, as one-at-a-time
        index-stable admission gave."""
        server = make_server(tmp_path / "s", tenant_count=2)
        now = server.clock.now
        times = [now + 1e-6 * tick for tick in (1, 1, 2, 2, 2, 3)]
        a = Spy(times, [0, 1, 2, 3, 4, 5])
        b = Spy(times, [100, 101, 102, 103, 104, 105])
        loop = ServingLoop(server, BatchPolicy(max_batch=64, max_delay=10e-6))
        loop.add_tenant(TenantSpec("a"), a)
        loop.add_tenant(TenantSpec("b"), b)
        order = []
        form = loop.batcher.form

        def recording_form(queue):
            batch = form(queue)
            order.extend(request.key & 0xFFF for request in batch.requests)
            return batch

        loop.batcher.form = recording_form
        loop.run()
        assert order == [0, 1, 100, 101, 2, 3, 4, 102, 103, 104, 5, 105]
        # b's runs stop at a's next instant (strictly: a goes first on a
        # tie); a's run into the tie is inclusive.
        assert [size for _, _, size in b.pops] == [2, 3, 1]
        assert a.pops[0] == (times[0], 1, 1)  # the batch opens on one arrival
        server.store.close()

    def test_next_run_bounds(self, tmp_path):
        server = make_server(tmp_path / "s", tenant_count=3)
        loop = ServingLoop(server, BatchPolicy())
        sources = [Spy([4.0], [1]), Spy([3.0, 9.0], [1, 2]), Spy([3.0], [1])]
        for index, source in enumerate(sources):
            loop.add_tenant(TenantSpec(f"t{index}"), source)
        tenant, first, bound = loop._next_run()
        # t1 leads (3.0, lower index than t2); t2's equal instant comes
        # after it (inclusive), t0's 4.0 before an equal one of t1's (strict).
        assert (tenant.spec.name, first, bound) == ("t1", 3.0, 3.0)
        sources[2].pop_due(3.0)
        assert loop._next_run()[1:] == (3.0, math.nextafter(4.0, 0.0))
        sources[1].pop_due(3.0)
        assert [loop._next_run()[0].spec.name, *loop._next_run()[1:]] == ["t0", 4.0, 9.0]
        sources[0].pop_due(4.0)
        sources[1].pop_due(9.0)
        assert loop._next_run() == (None, math.inf, math.inf)
        server.store.close()

    def test_a_tenant_that_can_shed_is_admitted_one_arrival_at_a_time(self, tmp_path):
        server = make_server(tmp_path / "s", tenant_count=3)
        now = server.clock.now
        times = [now + 1e-6] * 40
        free = Spy(times, list(range(40)))
        capped = Spy(times, list(range(40)))
        limited = Spy(times, list(range(40)))
        loop = ServingLoop(server, BatchPolicy(max_batch=16, max_delay=5e-6))
        loop.add_tenant(TenantSpec("free"), free)
        loop.add_tenant(TenantSpec("capped", shed_depth=8), capped)
        loop.add_tenant(TenantSpec("limited", rate_limit=1e3, burst=4), limited)
        loop.run()
        assert {limit for _, limit, _ in capped.pops} == {1}
        assert {limit for _, limit, _ in limited.pops} == {1}
        assert max(size for _, _, size in free.pops) > 1  # runs, not singles
        assert loop.tenant("capped").shed_queue == 32 and loop.tenant("limited").shed_rate == 36
        # Shed or served, every request went back to its source.
        assert sorted(capped.completed) == sorted(limited.completed) == list(range(40))
        server.store.close()

    def test_a_run_is_one_queue_admission(self, tmp_path):
        server = make_server(tmp_path / "s")
        now = server.clock.now
        source = Spy([now + 1e-6 * (1 + index // 50) for index in range(200)], list(range(200)))
        loop = ServingLoop(server, BatchPolicy(max_batch=64, max_delay=10e-6))
        admissions = []
        extend = loop.queue.extend
        loop.queue.extend = lambda run, priority=0: (admissions.append(len(run)),
                                                     extend(run, priority))[1]
        loop.run(source)
        assert sum(admissions) == 200 == loop.telemetry.requests_completed
        # First batch: the opener; the 49 that share its instant plus 14
        # of the next tick (room); then the rest of that tick, which
        # landed by launch time.
        assert admissions[:3] == [1, 63, 36]
        server.store.close()


# ----------------------------------------------------------------------
# (d) Python call events per request
# ----------------------------------------------------------------------
#: Midway between the per-request loop's count (44.4 at the commit before
#: the batch verbs) and this loop's (20.9).  Deterministic: the run is
#: seeded and simulated.
CALL_EVENTS_PER_REQUEST_CEILING = 32.0


def test_call_events_per_request_stay_under_the_ceiling(tmp_path):
    server = make_server(tmp_path / "s", item_count=2000, cache_entries=256)
    arrivals = LoadGenerator(2000, "zipfian", seed=11).closed_loop(
        256, 20e-6, 8192, start=server.clock.now
    )
    loop = ServingLoop(server, BatchPolicy(256, 100e-6))
    loop.run(arrivals, max_requests=2048)  # warm: cache, first chunk of draws
    before = loop.telemetry.requests_completed
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event in ("call", "c_call"):
            events += 1

    sys.setprofile(count)
    try:
        loop.run(arrivals, max_requests=4096)
    finally:
        sys.setprofile(None)
    served = loop.telemetry.requests_completed - before
    assert served >= 4096
    assert events / served <= CALL_EVENTS_PER_REQUEST_CEILING, events / served
    server.store.close()
