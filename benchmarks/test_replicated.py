"""Replicated serving + elastic rescale: the availability layer, measured.

Three experiments over the simulated clock (deterministic, so the perf
gate can diff them across PRs):

* **replication-factor sweep** — the same zipfian open-loop read load
  against replication factor 1/2/3.  Reads route to one replica per
  shard, so read throughput and p99 must stay essentially flat as the
  factor grows: replication buys availability, not a read tax.
* **chaos failover** — replication factor 2, one replica killed mid-run
  with requests in flight.  Zero requests may be lost, and the phase-
  segmented telemetry reports p99 before and after the kill.
* **rescale under load** — a sharded store split 2 → 4 engines while a
  writer keeps mutating the moving key range; every key→value mapping
  must survive, and the migration rate lands in the emitted metrics.

Everything lands in ``BENCH_replication.json`` via :mod:`emit` for the
``make bench-gate`` perf-trajectory comparison.
"""

import tempfile

import numpy as np

from _util import report
from emit import emit

from repro.core.embedding import EmbeddingTables
from repro.device import SimClock, SSDModel
from repro.kv import ReplicaGroup, ShardedKVStore
from repro.kv.faster import FasterKV
from repro.kv.common.serialization import encode_vector
from repro.serve import BatchPolicy, ChaosInjector, EmbeddingServer, LoadGenerator, ServingLoop

_ITEMS = 5_000
_DIM = 16
_REQUESTS = 4_000
_RATE = 4e5
_SLO_P99 = 1e-3
_SEED = 17
_POLICY = BatchPolicy(max_batch=128, max_delay=100e-6)

#: Accumulated across the three tests; each test re-emits the merged
#: file, so a full run (what bench-gate does) carries every metric.
_METRICS: dict = {}
_ROWS: list = []


def _emit_cumulative() -> None:
    emit(
        "replication",
        metrics=dict(_METRICS),
        rows=list(_ROWS),
        meta={
            "workload": f"zipfian {_ITEMS} keys, {_REQUESTS} requests, "
                        f"{_RATE:,.0f} req/s offered",
            "policy": {"max_batch": _POLICY.max_batch,
                       "max_delay": _POLICY.max_delay},
        },
    )


def _build_replicated_server(replication: int, cache_entries: int = 0):
    """A router of 2 N-replica groups preloaded with _ITEMS vectors."""
    clock = SimClock()
    ssd = SSDModel(clock)
    work = tempfile.mkdtemp(prefix=f"replicated-bench-rf{replication}-")
    store = ShardedKVStore(
        lambda shard: ReplicaGroup([
            FasterKV(f"{work}/s{shard}r{replica}", ssd=ssd, memory_budget_bytes=1 << 22)
            for replica in range(replication)
        ]),
        num_shards=2,
    )
    tables = EmbeddingTables(store, _DIM, seed=_SEED, cache_entries=0)
    keys = list(range(_ITEMS))
    store.multi_put(keys, [encode_vector(tables.init_vector(key)) for key in keys])
    return EmbeddingServer(store, dim=_DIM, seed=_SEED, cache_entries=cache_entries)


def _drive(server, chaos=None, count: int = _REQUESTS):
    arrivals = LoadGenerator(_ITEMS, "zipfian", seed=_SEED).open_loop(
        rate=_RATE, count=count, start=server.clock.now
    )
    loop = ServingLoop(server, _POLICY, chaos=chaos)
    loop.run(arrivals)
    return loop.report(_SLO_P99), arrivals


def test_replication_factor_sweep(benchmark):
    """Reads route to one replica: throughput must not pay for copies."""

    def sweep():
        points = []
        for replication in (1, 2, 3):
            server = _build_replicated_server(replication)
            result, _ = _drive(server)
            server.close()
            points.append((replication, result))
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for replication, result in points:
        rows.append({
            "Experiment": "rf-sweep",
            "Replication": replication,
            "Achieved (req/s)": int(result["throughput_rps"]),
            "p50 (us)": round(result["latency"]["p50"] * 1e6, 1),
            "p99 (us)": round(result["latency"]["p99"] * 1e6, 1),
            "SLO met": result["slo_met"],
        })
        _METRICS[f"rf{replication}_throughput_rps"] = result["throughput_rps"]
        _METRICS[f"rf{replication}_p99_us"] = result["latency"]["p99"] * 1e6
    _ROWS.extend(rows)
    report("replication_rf_sweep", rows,
           note="read-one routing: replication factor must not tax reads")
    _emit_cumulative()
    base = points[0][1]["throughput_rps"]
    for replication, result in points:
        assert result["requests"] == _REQUESTS
        assert result["throughput_rps"] >= 0.7 * base, (
            f"rf={replication} read throughput collapsed: "
            f"{result['throughput_rps']:.0f} vs rf=1 {base:.0f}"
        )


def test_chaos_failover_loses_zero_requests(benchmark):
    """Kill one replica of each shard mid-run: no request may be lost."""

    def run():
        server = _build_replicated_server(2)
        start = server.clock.now
        midpoint = start + 0.5 * _REQUESTS / _RATE
        chaos = ChaosInjector()
        chaos.kill_replica_at(midpoint, shard=0, replica=0)
        chaos.kill_replica_at(midpoint, shard=1, replica=0)
        result, arrivals = _drive(server, chaos=chaos)
        answered = sum(
            1 for request in arrivals.issued if request.value is not None
        )
        stats = server.store.stats
        server.close()
        return result, answered, stats

    result, answered, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert answered == _REQUESTS, f"lost {_REQUESTS - answered} requests in failover"
    assert len(result["chaos_events"]) == 2
    phases = result["phases"]
    steady = phases["steady"]
    post = phases["after:kill:1/0"]  # the later (second) kill's regime
    assert post["count"] > 0, "no requests served after the failover"
    assert stats.extra["failovers"] > 0, "router never recorded the failover"
    rows = [{
        "Experiment": "chaos-kill",
        "Replication": 2,
        "Achieved (req/s)": int(result["throughput_rps"]),
        "p50 (us)": round(post["p50"] * 1e6, 1),
        "p99 (us)": round(post["p99"] * 1e6, 1),
        "SLO met": post["p99"] <= _SLO_P99,
    }]
    _ROWS.extend(rows)
    _METRICS["failover_lost_requests"] = _REQUESTS - answered
    _METRICS["pre_failover_p99_us"] = steady["p99"] * 1e6
    _METRICS["post_failover_p99_us"] = post["p99"] * 1e6
    report("replication_chaos", rows,
           note=f"rf=2, both shards lose replica 0 mid-run; "
                f"p99 steady {steady['p99'] * 1e6:.1f} us -> "
                f"post-failover {post['p99'] * 1e6:.1f} us")
    _emit_cumulative()


def test_rescale_under_live_writes(benchmark):
    """Split 2 → 4 engines while writing; every mapping must survive."""

    def run():
        clock = SimClock()
        ssd = SSDModel(clock)
        work = tempfile.mkdtemp(prefix="rescale-bench-")

        def make(index: int) -> FasterKV:
            return FasterKV(f"{work}/e{index}", ssd=ssd, memory_budget_bytes=1 << 22)

        store = ShardedKVStore(make, 2)
        rng = np.random.default_rng(_SEED)
        expected = {}
        keys = list(range(_ITEMS))
        for key in keys:
            expected[key] = f"v{key}".encode()
        store.multi_put(keys, [expected[key] for key in keys])

        start = clock.now
        moved = 0
        for source in (0, 1):  # 2 engines -> 4, one split per original
            migration = store.begin_split(source, make)
            while migration.copy_step(256):
                write_keys = rng.integers(0, _ITEMS, size=64).tolist()
                values = [f"w{key}x{moved}".encode() for key in write_keys]
                store.multi_put(write_keys, values)
                for key, value in zip(write_keys, values):
                    expected[key] = value
            migration.cutover()
            moved += migration.keys_copied + migration.delta_replayed
        elapsed = clock.now - start

        got = store.multi_get(keys)
        lost = sum(
            1 for key, value in zip(keys, got) if value != expected[key]
        )
        engines = len(store.shards)
        store.close()
        return moved, elapsed, lost, engines

    moved, elapsed, lost, engines = benchmark.pedantic(run, rounds=1, iterations=1)
    assert lost == 0, f"{lost} keys lost or corrupted by the live rescale"
    assert engines == 4
    rate = moved / elapsed if elapsed > 0 else 0.0
    rows = [{
        "Experiment": "rescale",
        "Engines": "2 -> 4",
        "Keys moved": moved,
        "Simulated s": round(elapsed, 4),
        "Keys/s": int(rate),
        "Lost": lost,
    }]
    _ROWS.extend(rows)
    _METRICS["rescale_moved_keys_per_s"] = rate
    _METRICS["rescale_lost_keys"] = float(lost)
    report("replication_rescale", rows,
           note="copy-then-cutover splits under a live writer; "
                "zero lost mappings required")
    _emit_cumulative()
