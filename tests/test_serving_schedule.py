"""The serving schedule is a pinned contract.

The loop gathers arrivals in *runs*, records a batch's latencies as one
array and draws keys and think times in chunks; none of that may move a
request.  ``tests/data/serving_schedule_pins.json`` was captured at the
commit before the batch verbs landed (one ``pop`` / ``record_request``
per request) and covers every request's ``(user, key, arrival,
completion)`` as a CRC per source, the final clock and the whole
``report()`` dict:

* a closed loop of 256 zipfian users, whole and resumed in calls of
  1 / 7 / 4,096 requests (the repository benchmark's calling pattern);
* three tenants on one loop — two open-loop traces with hand-built
  *equal* arrival instants sharing a lane (one capped by ``shed_depth``,
  one with its own ``max_delay``) and a higher-priority closed-loop pool
  behind a token bucket, whose sheds complete back to the pool and
  schedule arrivals earlier than anything the loop has seen.

One field is not the parent's: ``queue_depth.mean`` (52.5785 -> 52.3471
and 110.5607 -> 110.5234) was captured with the parent's one-line
phantom-backlog fix applied — a drained closed-loop pool no longer
reports users that will never be issued as backlog behind the last
batches.  Everything else is the unmodified parent's, bit for bit.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

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
    OpenLoopArrivals,
    ServingLoop,
    TenantSpec,
    namespace_key,
)

DIM = 8
PINS = json.loads((Path(__file__).parent / "data" / "serving_schedule_pins.json").read_text())


class _Recording:
    """Mixin: fold every completion handed back into a running CRC."""

    crc = 0
    completions = 0

    def on_complete(self, request, now: float) -> None:
        record = struct.pack(
            "<qqdd", request.user, request.key, request.arrival_time, now
        )
        self.crc = zlib.crc32(record, self.crc)
        self.completions += 1
        super().on_complete(request, now)


class RecordingClosed(_Recording, ClosedLoopArrivals):
    pass


class RecordingOpen(_Recording, OpenLoopArrivals):
    pass


def open_source(times, keys) -> RecordingOpen:
    """The one place a trace is built (the capture at the parent commit
    swapped this for its list-of-requests constructor)."""
    return RecordingOpen(times, keys)


def make_server(directory, item_count, budget, tenant_count=1, seed=3):
    store = MLKV(str(directory), ssd=SSDModel(SimClock()),
                 memory_budget_bytes=budget, page_bytes=1 << 12)
    tables = EmbeddingTables(store, DIM, seed=seed, cache_entries=0)
    for tenant in range(tenant_count):
        keys = [namespace_key(tenant, key) for key in range(item_count)]
        store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return EmbeddingServer(store, dim=DIM, seed=seed, cache_entries=64)


# ----------------------------------------------------------------------
# scenario 1: one closed loop, whole and resumed
# ----------------------------------------------------------------------
CLOSED_LOOP_REQUESTS = 6000


def closed_loop_outcome(directory, chunk):
    # 16 pages of memory: ~30% of reads go to disk, so batches close both
    # ways (full, and on a carried-over waiter's timer) and waiters pile up.
    server = make_server(directory, item_count=2000, budget=1 << 16)
    arrivals = RecordingClosed(
        256,
        LoadGenerator(2000, "zipfian", seed=11).chooser(),
        ThinkTimeProcess(3e-3, seed=11 ^ 0xC33),
        total_requests=CLOSED_LOOP_REQUESTS,
        start=server.clock.now,
        seed=11,
    )
    loop = ServingLoop(server, BatchPolicy(max_batch=64, max_delay=30e-6))
    if chunk is None:
        loop.run(arrivals)
    else:
        while len(arrivals) or len(loop.queue):
            loop.run(arrivals, max_requests=chunk)
    outcome = {
        "crc": arrivals.crc,
        "completions": arrivals.completions,
        "clock": server.clock.now,
        "report": loop.report(1e-3),
    }
    server.store.close()
    return outcome


# ----------------------------------------------------------------------
# scenario 2: three tenants, equal instants, both kinds of shed
# ----------------------------------------------------------------------
def three_tenant_outcome(directory):
    server = make_server(directory, item_count=400, budget=1 << 16, tenant_count=3)
    start = server.clock.now
    rng = np.random.default_rng(23)
    # Three "bulk" and two "feed" arrivals on every 2 us tick: the same
    # float expression, so the instants are equal bit for bit.
    bulk_times = [start + 2e-6 * (index // 3) for index in range(1500)]
    feed_times = [start + 2e-6 * (index // 2) for index in range(1200)]
    bulk = open_source(bulk_times, rng.integers(0, 400, len(bulk_times)))
    feed = open_source(feed_times, rng.integers(0, 400, len(feed_times)))
    pool = RecordingClosed(
        24,
        LoadGenerator(400, "zipfian", seed=4).chooser(),
        ThinkTimeProcess(5e-6, seed=2),
        total_requests=1500,
        start=start,
        seed=4,
    )
    loop = ServingLoop(server, BatchPolicy(max_batch=32, max_delay=40e-6))
    tenants = [
        loop.add_tenant(TenantSpec("bulk", target_p99=5e-3, shed_depth=24), bulk),
        loop.add_tenant(TenantSpec("feed", target_p99=2e-3, max_delay=15e-6), feed),
        loop.add_tenant(
            TenantSpec("pool", target_p99=500e-6, priority=1, max_delay=5e-6,
                       rate_limit=1e6, burst=8),
            pool,
        ),
    ]
    loop.run()
    outcome = {
        "crc": [source.crc for source in (bulk, feed, pool)],
        "completions": [source.completions for source in (bulk, feed, pool)],
        "shed": [(tenant.shed_rate, tenant.shed_queue) for tenant in tenants],
        "clock": server.clock.now,
        "report": loop.report(),
    }
    server.store.close()
    return outcome


# ----------------------------------------------------------------------
# the pins
# ----------------------------------------------------------------------
def as_json(outcome):
    """Tuples become lists, as in the committed file; floats survive
    ``repr`` exactly."""
    return json.loads(json.dumps(outcome))


class TestSchedulePins:
    @pytest.mark.parametrize("chunk", [None, 1, 7, 4096])
    def test_closed_loop_whole_and_resumed(self, tmp_path, chunk):
        outcome = closed_loop_outcome(tmp_path / "s", chunk)
        assert outcome["completions"] == CLOSED_LOOP_REQUESTS
        report = outcome["report"]
        # The scenario closes batches both ways and carries waiters over.
        assert report["batch_size"]["p50"] < report["batch_size"]["max"] == 64
        assert report["queue_high_water"] > 64
        assert as_json(outcome) == PINS["closed_loop"]

    def test_three_tenants_with_equal_instants_and_sheds(self, tmp_path):
        outcome = three_tenant_outcome(tmp_path / "s")
        (_, bulk_depth), _, (pool_rate, _) = outcome["shed"]
        assert bulk_depth > 0 and pool_rate > 0  # both kinds of shed fired
        assert outcome["completions"] == [1500, 1200, 1500]  # zero lost
        assert as_json(outcome) == PINS["three_tenants"]
