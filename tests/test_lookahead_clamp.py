"""The look-ahead window is clamped to what the store's buffer holds.

A batch staged by look-ahead must still be in the mutable region when its
Puts land, ``pipeline_depth`` steps after its Gets; otherwise the Puts
append copies of their own and push the staged copies of the next batches
out of memory unread (``MLKVStats.lookahead_evicted_unread``).  The
engine therefore stages at most ``capacity // batch_keys - pipeline_depth``
batches ahead (at least one, and at least the conventional window), with
``capacity`` the store's ``lookahead_capacity`` for the record width and
``batch_keys`` the largest batch of the schedule.  This file pins:

* a window that fits stages what it staged before the clamp: the same
  calls, the same simulated clock, the same counters and log bytes;
* a window larger than the buffer is clamped from the first call, and no
  staged record is then evicted unread — unclamped, thousands are;
* the window reaches as far as the conventional window;
* the serving prefetcher over a 4-shard router obeys the same clamp with
  no pipeline term (it never writes back);
* ``distance=0`` stages nothing.
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np

from repro.core import EmbeddingTables, LookaheadEngine, MLKV
from repro.core.staleness import ASP_BOUND
from repro.data import CTRDataset
from repro.device import GPUModel, SimClock, SSDModel
from repro.kv import ShardedKVStore, encode_vector
from repro.models import FFNN
from repro.serve import BatchPolicy, EmbeddingServer, LoadGenerator, ServingLoop
from repro.train import DLRMTrainer, TrainerConfig

DIM = 8  # 33-byte framed vectors, 53-byte records
FIELDS, CARDINALITY, BATCH = 8, 1500, 64  # 12,000 keys, ~640 KB of log
PAGE = 1 << 12


def unclamped(monkeypatch) -> None:
    """The engine as it was before the clamp: the window — and with it the
    trainer's I/O carry budget, which reads it — is ``distance``."""
    monkeypatch.setattr(LookaheadEngine, "buffer_window", lambda engine: engine.distance)


def train(root, budget: int, distance: int, depth: int = 2, batches: int = 40,
          window: int = 0) -> dict:
    """A DLRM run over a populated MLKV table of ``budget`` bytes in memory,
    with every buffer look-ahead call recorded; returns what it saw.
    ``window`` is the conventional (cache) prefetch window."""
    clock = SimClock()
    store = MLKV(os.path.join(root, "store"), staleness_bound=ASP_BOUND, ssd=SSDModel(clock),
                 memory_budget_bytes=budget, page_bytes=PAGE)
    tables = EmbeddingTables(store, DIM, seed=0, cache_entries=4096 if window else 0)
    keys = np.arange(FIELDS * CARDINALITY)
    tables.put(keys, np.stack([tables.init_vector(key) for key in keys.tolist()]))
    calls = []
    stage = tables.lookahead

    def recorded(keys, dest="buffer"):
        if dest == "buffer":
            calls.append(np.asarray(keys, dtype=np.int64).copy())
        return stage(keys, dest=dest)

    tables.lookahead = recorded
    dataset = CTRDataset(num_fields=FIELDS, field_cardinality=CARDINALITY, seed=1)
    config = TrainerConfig(batch_size=BATCH, pipeline_depth=depth,
                           lookahead_distance=distance, conventional_window=window,
                           eval_size=BATCH)
    network = FFNN(num_dense=dataset.num_dense, num_fields=FIELDS, emb_dim=DIM,
                   rng=np.random.default_rng(0))
    trainer = DLRMTrainer(tables, network, GPUModel(clock), config, dataset)
    schedule = dataset.batches(batches, BATCH)
    result = trainer.run(schedule)
    store.checkpoint()
    with open(os.path.join(store.directory, "faster.log"), "rb") as f:
        log_sha = hashlib.sha256(f.read()).hexdigest()
    stats, mlkv = store.stats, store.mlkv_stats
    seen = {
        "calls": calls,
        "batch_keys": [np.unique(trainer.embedding_keys(batch)) for batch in schedule],
        "capacity": store.lookahead_capacity(1 + 4 * DIM),
        "clock": clock.now,
        "stats": (stats.gets, stats.puts, stats.hits, stats.misses),
        "mlkv": (mlkv.lookahead_copied, mlkv.lookahead_skipped_memory,
                 mlkv.lookahead_requests, mlkv.stall_events, mlkv.overflow_entries),
        "evicted_unread": mlkv.lookahead_evicted_unread,
        "log_sha256": log_sha,
        "loss_crc": zlib.crc32(np.asarray(result.losses, dtype=np.float64).tobytes()),
    }
    store.close()
    return seen


def same_run(a: dict, b: dict) -> bool:
    calls_match = len(a["calls"]) == len(b["calls"]) and all(
        np.array_equal(x, y) for x, y in zip(a["calls"], b["calls"])
    )
    keys = ("clock", "stats", "mlkv", "evicted_unread", "log_sha256", "loss_crc")
    return calls_match and all(a[key] == b[key] for key in keys)


class TestTrainingWindow:
    def test_a_window_that_fits_stages_what_it_staged_before(self, tmp_path, monkeypatch):
        """256 KiB of buffer hold 4,435 records; the largest batch has 359
        keys, so 12 batches fit, less the 2 in the pipeline: a distance of
        4 is left alone."""
        clamped = train(str(tmp_path / "clamped"), 1 << 18, distance=4)
        largest = max(map(len, clamped["batch_keys"]))
        assert clamped["capacity"] // largest - 2 >= 4
        unclamped(monkeypatch)
        before = train(str(tmp_path / "before"), 1 << 18, distance=4)
        assert same_run(clamped, before)
        # The first call stages the four batches after batch 0 at once.
        assert np.array_equal(clamped["calls"][0], np.concatenate(clamped["batch_keys"][1:5]))
        # What the engine simulated and wrote before the clamp, to the byte.
        assert clamped["clock"] == 0.05608474428800011
        assert clamped["stats"] == (13978, 25634, 13482, 496)
        assert clamped["mlkv"] == (3599, 9341, 12940, 0, 6)
        assert clamped["log_sha256"] == (
            "f9c6f2e81b4693b7fe4ccb47c5e5f95ea5953de55e5f7d9a5da61bc737eaa9d6"
        )
        assert clamped["evicted_unread"] == 0

    def test_a_window_larger_than_the_buffer_is_clamped_from_the_first_call(
        self, tmp_path, monkeypatch
    ):
        """64 KiB hold 1,108 records, three batches of at most 359 keys:
        less the pipeline's two, the window is one batch — from step 0,
        for a distance of 8.  Nothing staged leaves memory unread, and the
        run takes a quarter of the simulated time.  Unclamped, the first
        call stages eight batches, and 5,841 of the 7,416 records staged
        leave memory before their Gets (the run the engine made before
        the clamp, to the byte)."""
        clamped = train(str(tmp_path / "clamped"), 1 << 16, distance=8)
        batch_keys = clamped["batch_keys"]
        assert (clamped["capacity"], max(map(len, batch_keys))) == (1108, 359)
        assert len(clamped["calls"]) == len(batch_keys) - 1
        for step, call in enumerate(clamped["calls"]):
            assert np.array_equal(call, batch_keys[step + 1])
        assert clamped["mlkv"][0] == 7445
        assert clamped["evicted_unread"] == 0
        unclamped(monkeypatch)
        before = train(str(tmp_path / "before"), 1 << 16, distance=8)
        assert np.array_equal(before["calls"][0], np.concatenate(batch_keys[1:9]))
        assert (before["mlkv"][0], before["evicted_unread"]) == (7416, 5841)
        assert before["clock"] == 0.6663509842878704
        assert before["log_sha256"] == (
            "fa7c932e982e5a71590bf32b6d95fd3c49aeeb92005792c8c4074bfa8e8221af"
        )
        assert clamped["clock"] < before["clock"] / 3
        assert clamped["loss_crc"] == before["loss_crc"]  # staging moves no value

    def test_the_window_reaches_as_far_as_the_conventional_one(self, tmp_path, monkeypatch):
        """A conventional window of 2 Gets batch ``s + 2`` into the
        application cache at step ``s``.  The buffer fits one batch ahead,
        but a window of one would stage batch ``s + 2`` a step after those
        Gets read it from disk, and the training Get is then served from
        the cache: 5,501 staged records evicted unread, and the run takes
        3.3x the simulated time.  So the window reaches two batches."""
        reaching = train(str(tmp_path / "reaching"), 1 << 16, distance=8, window=2)
        batch_keys = reaching["batch_keys"]
        assert np.array_equal(reaching["calls"][0], np.concatenate(batch_keys[1:3]))
        assert all(np.array_equal(call, batch_keys[step + 3])
                   for step, call in enumerate(reaching["calls"][1:]))
        assert reaching["evicted_unread"] == 0
        monkeypatch.setattr(LookaheadEngine, "buffer_window", lambda engine: 1)
        short = train(str(tmp_path / "short"), 1 << 16, distance=8, window=2)
        assert short["evicted_unread"] == 5501
        assert short["clock"] > 3 * reaching["clock"]

    def test_distance_zero_stages_nothing(self, tmp_path, monkeypatch):
        off = train(str(tmp_path / "off"), 1 << 16, distance=0)
        assert off["calls"] == [] and off["mlkv"] == (0, 0, 0, 0, 495)
        # What the run computed before the clamp, to the byte.
        assert off["clock"] == 0.7020509842878593
        assert off["log_sha256"] == (
            "8dee72e849c79794865aedbfe604b79c94315c600a6d189988582c18d3276bfd"
        )
        unclamped(monkeypatch)
        assert same_run(off, train(str(tmp_path / "before"), 1 << 16, distance=0))


def serve(root, distance: int) -> tuple[list, int, float]:
    """A closed schedule of full 64-key micro-batches over four MLKV shards
    of two 4 KiB pages each, every buffer look-ahead call recorded:
    ``(keys per call, staged records evicted unread, simulated seconds)``."""
    ssd = SSDModel(SimClock())
    shards = [MLKV(os.path.join(root, str(index)), ssd=ssd,
                   memory_budget_bytes=2 * PAGE, page_bytes=PAGE)
              for index in range(4)]
    store = ShardedKVStore(lambda index: shards[index], len(shards))
    tables = EmbeddingTables(store, DIM, seed=3, cache_entries=0)
    items = 3000
    store.multi_put(list(range(items)),
                    [encode_vector(tables.init_vector(key)) for key in range(items)])
    store.clock.drain()
    assert store.lookahead_capacity(1 + 4 * DIM) == 4 * 77
    server = EmbeddingServer(store, dim=DIM, seed=3, cache_entries=0)
    calls = []
    stage = server.tables.lookahead

    def recorded(keys, dest="buffer"):
        calls.append(len(keys))
        return stage(keys, dest=dest)

    server.tables.lookahead = recorded
    start = store.clock.now
    # Arrivals well above what a 100 us batch window drains: every
    # micro-batch is one 64-key batch of the prefetcher's schedule.
    arrivals = LoadGenerator(items, "uniform", seed=4).open_loop(
        rate=2e6, count=64 * 40, start=start
    )
    ServingLoop(server, BatchPolicy(64, 100e-6), prefetch_distance=distance).run(arrivals)
    store.clock.drain()
    evicted = sum(shard.mlkv_stats.lookahead_evicted_unread for shard in shards)
    seconds = store.clock.now - start
    store.close()
    return calls, evicted, seconds


class TestServingPrefetcher:
    def test_a_four_shard_router_obeys_the_clamp_without_a_pipeline_term(
        self, tmp_path, monkeypatch
    ):
        """Each shard's mutable region is sure to hold one page of 77
        records: a page opened at the tail evicts the other.  Batches are
        64 keys, so the window is ``4 * 77 // 64 = 4`` batches — with a
        pipeline term of 2 it would be 2.  A distance of 32 is cut to 4
        from the first call, a distance of 2 is left alone.  The shard
        hash spreads a window unevenly, so a few staged records still
        leave a full shard unread (18), against a thousand unclamped
        (1,097), and the schedule is served in a sixth of the time."""
        kept = serve(str(tmp_path / "kept"), 2)
        cut = serve(str(tmp_path / "cut"), 32)
        unclamped(monkeypatch)
        before = serve(str(tmp_path / "before"), 32)
        # Step -1 stages the first window: batches 0 .. window - 1.
        assert kept[0][0] == 2 * 64 and max(kept[0]) == 2 * 64
        assert cut[0][0] == 4 * 64 and max(cut[0]) == 4 * 64
        assert before[0][0] == 32 * 64
        assert cut[1] * 10 < before[1]
        assert cut[2] * 3 < before[2]  # simulated seconds to serve the schedule
