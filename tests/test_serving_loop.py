"""The one serving loop: resumed runs, feature composition, telemetry cost.

`ServingLoop` is the only open → gather → serve → complete loop and it
always runs over tenants.  This file pins what that merge must keep:

* a run chopped into ``run(arrivals, max_requests=k)`` calls on one
  closed-loop source (the repository benchmark's calling pattern —
  waiters carry over in the queue between calls) is indistinguishable
  from one ``run(arrivals)``;
* the features that used to live on two different loops compose on one:
  prefetcher × chaos × autoscaler on a single tenant, through a live
  split, losing nothing;
* batch telemetry builds histograms per phase, not per batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data import ThinkTimeProcess
from repro.data.arrivals import FlashCrowdProcess
from repro.device import SimClock, SSDModel
from repro.kv import ReplicaGroup, ShardedKVStore, encode_vector
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    BatchPolicy,
    ChaosInjector,
    ClosedLoopArrivals,
    EmbeddingServer,
    LoadGenerator,
    ServingLoop,
    ServingTelemetry,
)
from repro.serve import telemetry as telemetry_module

DIM = 8


class RecordingArrivals(ClosedLoopArrivals):
    """A closed-loop pool that keeps every completion it was handed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.completions: list[tuple[int, int, float, float]] = []

    def on_complete(self, request, now: float) -> None:
        self.completions.append((request.user, request.key, request.arrival_time, now))
        super().on_complete(request, now)


def make_server(directory, item_count=300, seed=3):
    """Two 4 KiB pages of memory and no cache: nearly every read goes to
    disk, so a batch's service time dwarfs the think time and arrivals
    pile up behind it."""
    store = MLKV(str(directory), ssd=SSDModel(SimClock()),
                 memory_budget_bytes=1 << 13, page_bytes=1 << 12)
    tables = EmbeddingTables(store, DIM, seed=seed, cache_entries=0)
    keys = list(range(item_count))
    store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
    store.clock.drain()
    return EmbeddingServer(store, dim=DIM, seed=seed, cache_entries=0)


class TestResumedRuns:
    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_chunked_runs_equal_one_run(self, tmp_path, chunk):
        """Three times more users than a batch holds, so most batches
        leave waiters in the queue, and few enough that a resumed batch is
        often closed by its carried-over waiter's timer, not by filling."""

        def serve(directory, chunk):
            server = make_server(directory)
            arrivals = RecordingArrivals(
                12,
                LoadGenerator(300, "zipfian", seed=5).chooser(),
                ThinkTimeProcess(200e-6, seed=9),
                total_requests=900,
                start=server.clock.now,
                seed=5,
            )
            loop = ServingLoop(server, BatchPolicy(max_batch=4, max_delay=25e-6))
            carried = 0
            if chunk is None:
                loop.run(arrivals)
            else:
                while len(arrivals) or len(loop.queue):
                    loop.run(arrivals, max_requests=chunk)
                    carried += len(loop.queue) > 0
            outcome = (loop.report(1e-3), server.clock.now, arrivals.completions)
            server.store.close()
            return outcome, carried

        reference, _ = serve(tmp_path / "whole", None)
        resumed, carried = serve(tmp_path / f"chunk{chunk}", chunk)
        assert carried > 0  # the calls really did hand waiters over
        assert len(reference[2]) == 900
        assert resumed[2] == reference[2]
        assert resumed[1] == reference[1]
        assert resumed[0] == reference[0]


class TestComposition:
    def test_prefetch_chaos_autoscaler_on_one_tenant(self, tmp_path):
        """Unreachable before the merge: the prefetcher lived on one
        loop, the autoscaler on the other."""
        ssd = SSDModel(SimClock())
        built = []

        def replica(shard, index):
            built.append((shard, index))
            # Two 4 KiB pages per engine: most records are disk-resident,
            # so the prefetcher has something to stage.
            return MLKV(str(tmp_path / f"s{shard}r{index}-{len(built)}"), ssd=ssd,
                        memory_budget_bytes=1 << 13, page_bytes=1 << 12)

        def factory(shard):
            return ReplicaGroup([replica(shard, index) for index in range(2)])

        store = ShardedKVStore(factory, num_shards=2)
        tables = EmbeddingTables(store, DIM, seed=7, cache_entries=0)
        items = 600
        keys = list(range(items))
        store.multi_put(keys, [encode_vector(tables.init_vector(k)) for k in keys])
        store.clock.drain()
        server = EmbeddingServer(store, dim=DIM, seed=7, cache_entries=0)
        start = server.clock.now

        def staged():
            return sum(replica.mlkv_stats.lookahead_copied
                       for group in store.shards for replica in group.replicas)

        staged_before = staged()
        autoscaler = Autoscaler(
            store, factory,
            AutoscalerConfig(p99_threshold=50e-6, check_interval=0.5e-3,
                             min_window=32, max_shards=3, copy_batch=64),
            telemetry=server.telemetry,
        )
        chaos = ChaosInjector().slow_shard(start + 0.5e-3, 0, 200e-6, replica=0)
        loop = ServingLoop(
            server, BatchPolicy(max_batch=32, max_delay=60e-6),
            prefetch_distance=2, chaos=chaos, autoscaler=autoscaler,
        )
        arrivals = LoadGenerator(items, "uniform", seed=7).open_loop_process(
            FlashCrowdProcess(1e5, 1.5e6, flash_at=start + 1e-3,
                              flash_duration=6e-3, seed=2, start=start),
            4000,
        )
        telemetry = loop.run(arrivals)
        report = loop.report(5e-3)

        assert telemetry.requests_completed == 4000  # zero lost
        assert report["tenants"]["default"]["offered"] == 4000
        assert autoscaler.splits_completed >= 1
        assert store.num_shards == 3
        assert [event["label"] for event in report["chaos_events"]] == ["slow:0/0"]
        assert "rescale:split" in report["phases"]
        assert staged() > staged_before
        for key in range(0, items, 29):
            assert store.get(key) is not None
        store.close()


class TestTelemetryCost:
    def test_histograms_built_per_phase_not_per_request(self, monkeypatch):
        built = []

        class Counting(telemetry_module.LatencyHistogram):
            def __init__(self, *args, **kwargs) -> None:
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(telemetry_module, "LatencyHistogram", Counting)

        def constructions(requests):
            del built[:]
            telemetry = ServingTelemetry()
            for index in range(0, requests, 5):  # batches of five
                if index == requests // 2:
                    telemetry.set_phase("after:event", at=float(index))
                telemetry.record_requests(np.arange(index, index + 5.0), index + 5.0)
            assert telemetry.phase_latency["steady"].count == requests // 2
            return len(built)

        # One overall histogram plus one per phase, whatever the load.
        assert constructions(10) == constructions(1000) == 3
