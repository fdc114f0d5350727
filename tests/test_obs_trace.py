"""Dual-clock tracing (repro.obs.trace): unit contract + golden traces.

The golden serving test: one served request stream over a
replication-factor-2 store — with a replica killed mid-run — must
produce a single causally-connected span tree from the serving loop
(``serve.batch``) through the batcher, the server fetch, the replica
fan-out, the engine batch read, down to device I/O charges, and the
export must be valid Chrome ``trace_event`` JSON.

Its training twin: a DLRM run over a disk-spilling MLKV with look-ahead
must produce one tree per step from ``train.step`` through the facade
(``emb.*``) and the engine (``kv.*``) down to ``device.io``, whose
ledger says where the step went on both clocks — and installing the
tracer must change nothing the run computes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data import CTRDataset
from repro.device import GPUModel, SimClock, SSDModel
from repro.kv import ReplicaGroup, ShardedKVStore
from repro.kv.common.serialization import encode_vector
from repro.kv.faster import FasterKV
from repro.obs.trace import (
    Tracer,
    _NOOP,
    active_tracer,
    install_tracer,
    instant,
    ledger,
    main,
    span,
    uninstall_tracer,
)
from repro.models import FFNN
from repro.serve import (
    BatchPolicy,
    ChaosInjector,
    EmbeddingServer,
    LoadGenerator,
    ServingLoop,
)
from repro.train import DLRMTrainer, TrainerConfig


@pytest.fixture(autouse=True)
def _no_tracer_leaks():
    """Every test leaves the process-wide tracer uninstalled."""
    uninstall_tracer()
    yield
    uninstall_tracer()


class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


# ----------------------------------------------------------------------
# unit contract
# ----------------------------------------------------------------------
class TestTracerContract:
    def test_uninstalled_span_is_the_shared_noop(self):
        assert active_tracer() is None
        handle = span("kv.multi_get", keys=3)
        assert handle is _NOOP
        with handle:  # must still be a working context manager
            pass
        instant("chaos.fail_replica", shard=0)  # and instants no-op

    def test_install_and_uninstall_round_trip(self):
        tracer = install_tracer(clock=_FakeClock())
        assert active_tracer() is tracer
        with span("a"):
            pass
        returned = uninstall_tracer()
        assert returned is tracer
        assert active_tracer() is None
        assert span("b") is _NOOP
        assert len(tracer.spans) == 1

    def test_nesting_records_parent_child_ids(self):
        tracer = install_tracer(clock=_FakeClock())
        with span("parent") as parent:
            with span("child") as child:
                pass
            with span("sibling") as sibling:
                pass
        assert child.parent_id == parent.span_id
        assert sibling.parent_id == parent.span_id
        assert parent.parent_id is None
        # Spans land in completion order: children before their parent.
        assert [record.name for record in tracer.spans] == [
            "child", "sibling", "parent",
        ]

    def test_sim_timeline_is_primary(self):
        clock = _FakeClock(1.0)
        install_tracer(clock=clock)
        with span("work"):
            clock.now = 1.5
        tracer = uninstall_tracer()
        record = tracer.spans[0]
        assert record.sim_start == 1.0 and record.sim_end == 1.5
        ts, dur = tracer._timestamps_us(record)
        assert ts == pytest.approx(1.0e6)
        assert dur == pytest.approx(0.5e6)
        assert record.wall_end >= record.wall_start  # wall rides along

    def test_per_span_clock_overrides_the_default(self):
        default, other = _FakeClock(0.0), _FakeClock(40.0)
        install_tracer(clock=default)
        with span("on_default"):
            pass
        with span("on_other", clock=other):
            pass
        tracer = uninstall_tracer()
        assert tracer.spans[0].sim_start == 0.0
        assert tracer.spans[1].sim_start == 40.0

    def test_clockless_span_falls_back_to_wall_offsets(self):
        install_tracer()  # no clock anywhere
        with span("wall_only"):
            pass
        tracer = uninstall_tracer()
        record = tracer.spans[0]
        assert record.sim_start is None
        ts, dur = tracer._timestamps_us(record)
        assert ts >= 0.0 and dur >= 0.0

    def test_instants_capture_stack_parent_and_args(self):
        install_tracer(clock=_FakeClock(2.0))
        with span("outer") as outer:
            instant("chaos.fail_replica", shard=0, replica=1)
        tracer = uninstall_tracer()
        event = tracer.instants[0]
        assert event.parent_id == outer.span_id
        assert event.sim_start == 2.0
        assert event.args == {"shard": 0, "replica": 1}

    def test_reset_clears_everything(self):
        tracer = install_tracer(clock=_FakeClock())
        with span("a"):
            instant("b")
        tracer.reset()
        assert tracer.spans == [] and tracer.instants == []

    def test_chrome_export_shape(self, tmp_path):
        clock = _FakeClock()
        install_tracer(clock=clock)
        with span("serve.batch", batch=0):
            clock.now = 1e-3
            instant("chaos.fail_replica", shard=0)
        tracer = uninstall_tracer()
        path = tmp_path / "trace.json"
        tracer.dump(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {event["ph"] for event in events} == {"M", "X", "i"}
        complete = next(event for event in events if event["ph"] == "X")
        assert complete["name"] == "serve.batch"
        assert complete["cat"] == "serve"
        assert complete["dur"] == pytest.approx(1e3)  # 1 ms in µs
        assert complete["args"]["batch"] == 0
        assert "wall_us" in complete["args"]
        assert "sim_us" in complete["args"]

    def test_ledger_sums_calls_keys_and_self_time_on_both_clocks(self):
        clock = _FakeClock()
        tracer = install_tracer(clock=clock)
        for _ in range(2):
            with span("emb.get", keys=10):
                clock.now += 1e-3  # the facade's own millisecond
                with span("kv.multi_get", keys=7):
                    clock.now += 3e-3
                with span("idle"):
                    pass
        rows = tracer.ledger()
        assert set(rows) == {"emb.get", "kv.multi_get", "idle"}
        outer, inner = rows["emb.get"], rows["kv.multi_get"]
        assert (outer["calls"], outer["keys"]) == (2, 20)
        assert (inner["calls"], inner["keys"]) == (2, 14)
        assert outer["sim_seconds"] == pytest.approx(8e-3)
        assert outer["sim_self_seconds"] == pytest.approx(2e-3)
        assert inner["sim_seconds"] == inner["sim_self_seconds"] == pytest.approx(6e-3)
        # Wall time nests the same way: self = total - direct children.
        assert outer["wall_self_seconds"] == pytest.approx(
            outer["wall_seconds"] - inner["wall_seconds"] - rows["idle"]["wall_seconds"]
        )
        assert rows["idle"]["keys"] == 0
        # A tracer that recorded nothing has an empty ledger.
        assert Tracer().ledger() == {}

    def test_view_cli_summarizes_a_dump(self, tmp_path, capsys):
        clock = _FakeClock()
        install_tracer(clock=clock)
        with span("serve.batch"):
            with span("kv.multi_get"):
                clock.now = 5e-4
        tracer = uninstall_tracer()
        path = tmp_path / "trace.json"
        tracer.dump(str(path))
        assert main(["view", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve.batch" in out and "kv.multi_get" in out
        assert "sim_self_ms" in out and "wall_self_ms" in out
        assert "critical path" in out

    def test_router_records_one_shard_span_per_sub_batch(self, tmp_path):
        store = ShardedKVStore(
            lambda index: FasterKV(str(tmp_path / f"shard{index}"), ssd=SSDModel(SimClock())),
            4,
        )
        keys = list(range(512))
        store.multi_put(keys, [bytes([key % 251]) * 16 for key in keys])
        tracer = install_tracer()
        store.multi_get(keys + keys[:10])
        uninstall_tracer()
        store.close()
        shard_spans = [record for record in tracer.spans if record.name == "kv.shard"]
        assert sorted(record.args["shard"] for record in shard_spans) == [0, 1, 2, 3]
        assert {record.args["op"] for record in shard_spans} == {"multi_get"}
        assert sum(record.args["keys"] for record in shard_spans) == 522
        assert tracer.ledger()["kv.shard"]["keys"] == 522


# ----------------------------------------------------------------------
# the golden end-to-end trace (satellite: span causality)
# ----------------------------------------------------------------------
_ITEMS = 400
_DIM = 8
_RATE = 2e5
_SEED = 11


def _build_replicated_server(tmp_path):
    clock = SimClock()
    ssd = SSDModel(clock)
    store = ShardedKVStore(
        lambda shard: ReplicaGroup([
            FasterKV(
                str(tmp_path / f"s{shard}r{replica}"),
                ssd=ssd,
                # Small enough that a slice of the working set lives on disk,
                # so the trace reaches real device.io spans on the read path.
                memory_budget_bytes=1 << 13,
                page_bytes=1 << 12,
            )
            for replica in range(2)
        ]),
        num_shards=2,
    )
    tables = EmbeddingTables(store, _DIM, seed=_SEED, cache_entries=0)
    keys = list(range(_ITEMS))
    store.multi_put(keys, [encode_vector(tables.init_vector(key)) for key in keys])
    return EmbeddingServer(store, dim=_DIM, seed=_SEED, cache_entries=0)


class TestGoldenServingTrace:
    def test_one_connected_tree_from_loop_to_device_through_failover(
        self, tmp_path
    ):
        server = _build_replicated_server(tmp_path)
        count = 600
        midpoint = server.clock.now + 0.5 * count / _RATE
        chaos = ChaosInjector().kill_replica_at(midpoint, shard=0, replica=0)
        arrivals = LoadGenerator(_ITEMS, "zipfian", seed=_SEED).open_loop(
            rate=_RATE, count=count, start=server.clock.now
        )
        install_tracer(clock=server.clock)
        loop = ServingLoop(
            server, BatchPolicy(max_batch=64, max_delay=50e-6), chaos=chaos
        )
        loop.run(arrivals)
        tracer = uninstall_tracer()
        server.close()

        by_id = {record.span_id: record for record in tracer.spans}
        names = {record.name for record in tracer.spans}
        for expected in (
            "serve.batch",
            "batcher.form",
            "serve.fetch",
            "kv.replica_read",
            "kv.multi_get",
            "device.io",
        ):
            assert expected in names, f"trace never recorded {expected}"

        # Every parent link resolves: the tree is connected, no orphans.
        for record in tracer.spans:
            if record.parent_id is not None:
                assert record.parent_id in by_id

        # Roots are serving-loop batches and nothing else: the whole
        # run hangs off serve.batch spans.
        roots = {
            record.name for record in tracer.spans if record.parent_id is None
        }
        assert roots == {"serve.batch"}

        # Causality: a device.io charge walks up through the engine
        # batch read, the replica fan-out, the server fetch, to the loop.
        def lineage(record):
            chain = []
            while record is not None:
                chain.append(record.name)
                record = (
                    by_id[record.parent_id]
                    if record.parent_id is not None
                    else None
                )
            return chain

        device_chains = [
            lineage(record)
            for record in tracer.spans
            if record.name == "device.io"
        ]
        assert device_chains, "no device.io span recorded"
        full = [
            chain
            for chain in device_chains
            if chain[-1] == "serve.batch"
            and "kv.multi_get" in chain
            and "kv.replica_read" in chain
            and "serve.fetch" in chain
        ]
        assert full, f"no device.io chain reaches serve.batch: {device_chains[:3]}"

        # The chaos kill fired and was recorded as an instant on the
        # shared simulated timeline.
        kills = [
            event for event in tracer.instants
            if event.name == "chaos.fail_replica"
        ]
        assert len(kills) == 1
        assert kills[0].args == {"shard": 0, "replica": 0}
        assert kills[0].sim_start is not None
        assert kills[0].sim_start >= midpoint

        # Post-failover reads route to the survivor and are still traced:
        # some replica_read spans under shard 0's kv.shard span name
        # replica 1 after the kill.
        survivor_reads = [
            record
            for record in tracer.spans
            if record.name == "kv.replica_read"
            and by_id[record.parent_id].name == "kv.shard"
            and by_id[record.parent_id].args.get("shard") == 0
            and record.args.get("replica") == 1
            and record.sim_start is not None
            and record.sim_start >= kills[0].sim_start
        ]
        assert survivor_reads, "no traced reads on the surviving replica"

        # Simulated timestamps are coherent: children nest inside their
        # parents on the simulated timeline.
        for record in tracer.spans:
            if record.parent_id is None or record.sim_start is None:
                continue
            parent = by_id[record.parent_id]
            if parent.sim_start is None:
                continue
            assert parent.sim_start <= record.sim_start
            assert record.sim_end <= parent.sim_end

    def test_dump_is_valid_chrome_trace_json(self, tmp_path):
        server = _build_replicated_server(tmp_path)
        arrivals = LoadGenerator(_ITEMS, "zipfian", seed=_SEED).open_loop(
            rate=_RATE, count=200, start=server.clock.now
        )
        install_tracer(clock=server.clock)
        ServingLoop(server, BatchPolicy(max_batch=32, max_delay=50e-6)).run(
            arrivals
        )
        tracer = uninstall_tracer()
        server.close()
        path = tmp_path / "serving_trace.json"
        tracer.dump(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        assert events[0]["ph"] == "M"
        complete = [event for event in events if event["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert "span_id" in event["args"]
        # The CLI digests the same file.
        assert main(["view", str(path)]) == 0


# ----------------------------------------------------------------------
# the golden training trace: train.step -> emb.* -> kv.* -> device.io
# ----------------------------------------------------------------------
_STEPS = 24
_BATCH = 32


def _train(directory, traced: bool):
    """A small DLRM run whose table does not fit the log buffer; returns
    the result, what it left in the counters, and the tracer (or None)."""
    clock = SimClock()
    ssd = SSDModel(clock)
    store = MLKV(
        str(directory), staleness_bound=4, ssd=ssd,
        memory_budget_bytes=1 << 13, page_bytes=1 << 12,
    )
    tables = EmbeddingTables(store, _DIM, seed=_SEED, cache_entries=0)
    dataset = CTRDataset(num_fields=4, field_cardinality=300, seed=3)
    network = FFNN(
        num_dense=dataset.num_dense, num_fields=4, emb_dim=_DIM, hidden=(16,),
        rng=np.random.default_rng(0),
    )
    config = TrainerConfig(batch_size=_BATCH, pipeline_depth=1, lookahead_distance=2)
    trainer = DLRMTrainer(tables, network, GPUModel(clock), config, dataset)
    tracer = install_tracer(clock=clock) if traced else None
    result = trainer.run(dataset.batches(_STEPS, _BATCH))
    uninstall_tracer()
    counters = (store.stats, store.mlkv_stats, ssd.stats())
    store.close()
    return result, counters, tracer


class TestGoldenTrainingTrace:
    def test_each_step_is_one_tree_from_the_loop_to_the_device(self, tmp_path):
        result, _, tracer = _train(tmp_path / "mlkv", traced=True)
        by_id = {record.span_id: record for record in tracer.spans}

        def lineage(record):
            chain = []
            while record is not None:
                chain.append(record.name)
                record = by_id.get(record.parent_id)
            return chain

        for record in tracer.spans:
            if record.parent_id is not None:
                assert record.parent_id in by_id  # connected, no orphans

        # Roots are training steps and nothing else — up to the last
        # step.  What `run` does after it is not a step: the pending
        # update it flushes and its closing evaluation (a committed read,
        # off the training clock) are the only other roots.
        roots = [record for record in tracer.spans if record.parent_id is None]
        steps = [record for record in roots if record.name == "train.step"]
        assert len(steps) == _STEPS
        last_step = max(record.span_id for record in steps)
        assert {record.name for record in roots if record.span_id <= last_step} == {"train.step"}
        tail = sorted((r for r in roots if r.span_id > last_step), key=lambda r: r.span_id)
        assert [record.name for record in tail] == ["emb.put", "kv.multi_get"]
        first_tail = tail[0].span_id

        # Every device charge of a step walks up through the facade to
        # the step; one a Get or a Put made, through the engine's batch
        # span too (look-ahead staging charges the device directly).
        chains = [
            lineage(record) for record in tracer.spans
            if record.name == "device.io" and record.span_id < first_tail
        ]
        assert chains
        for chain in chains:
            assert chain[-1] == "train.step" and chain[-2].startswith("emb."), chain
            if chain[-2] != "emb.lookahead":
                assert chain[1] in ("kv.multi_get", "kv.multi_put"), chain
        seen = {tuple(chain[1:]) for chain in chains}
        assert ("kv.multi_get", "emb.get", "train.step") in seen
        assert ("kv.multi_put", "emb.put", "train.step") in seen
        assert ("emb.lookahead", "train.step") in seen

        # Children nest inside their parents on the simulated timeline.
        for record in tracer.spans:
            parent = by_id.get(record.parent_id)
            if parent is not None:
                assert parent.sim_start <= record.sim_start
                assert record.sim_end <= parent.sim_end

        # The ledger says where the step went: named children cover it.
        rows = tracer.ledger()
        step = rows["train.step"]
        assert step["calls"] == _STEPS
        assert 1.0 - step["wall_self_seconds"] / step["wall_seconds"] >= 0.95
        for name in ("emb.lookahead", "emb.get", "nn.fwd_bwd", "nn.dense_opt",
                     "nn.row_opt", "emb.put"):
            assert rows[name]["calls"] >= _STEPS - 2, name
        # On the simulated clock the spans agree with the trainer's own
        # accounting (to rounding: the result adds forward and backward
        # separately, the span takes one difference).
        assert rows["nn.fwd_bwd"]["sim_seconds"] == pytest.approx(
            result.forward_seconds + result.backward_seconds, rel=1e-12
        )
        assert rows["kv.multi_get"]["keys"] >= rows["emb.get"]["keys"]

    def test_view_reads_the_same_ledger_from_the_dump(self, tmp_path, capsys):
        _, _, tracer = _train(tmp_path / "mlkv", traced=True)
        path = tmp_path / "train_trace.json"
        tracer.dump(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        assert ledger(events) == tracer.ledger()
        assert main(["view", str(path)]) == 0
        out = capsys.readouterr().out
        for name in ("train.step", "emb.get", "nn.fwd_bwd", "kv.multi_put", "device.io"):
            assert name in out

    def test_tracing_changes_nothing_the_run_computes(self, tmp_path):
        plain, plain_counters, _ = _train(tmp_path / "plain", traced=False)
        traced, traced_counters, _ = _train(tmp_path / "traced", traced=True)
        assert traced.losses == plain.losses
        assert traced.sim_seconds == plain.sim_seconds
        assert traced.final_metric == plain.final_metric
        assert traced_counters == plain_counters
        assert plain_counters[2]["reads"] > 0  # the run did reach the disk
