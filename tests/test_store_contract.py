"""The store contract: every capability a caller asks a store about.

``KVStore`` declares ``clock``, ``ssd``, ``staleness_bound``, ``directory``,
``op_cpu_seconds``, ``set_stall_handler``, ``lookahead`` and
``lookahead_capacity`` with the answer of a store that lacks them, and
every composition — bare engine, router, replica group — answers them
without raising, so no caller probes.  This file pins:

* what each store answers (a composite: what its children share);
* the two compositions the answers make work: a free-standing replica
  group uploading and restoring a checkpoint epoch, and serving a closed
  loop (both charge the group's ``clock``, which once was its version
  vector);
* that no module under ``src/`` probes for a declared name.
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.bench.native import NativeStore
from repro.core import CloudCheckpointer, MLKV
from repro.core.embedding import EmbeddingTables
from repro.data import ThinkTimeProcess
from repro.device import SimClock, SSDModel
from repro.kv import ReplicaGroup, ShardedKVStore
from repro.kv import encode_vector
from repro.kv.btree import BTreeKV
from repro.kv.faster import FasterKV
from repro.kv.lsm import LsmKV
from repro.serve import BatchPolicy, ClosedLoopArrivals, EmbeddingServer, LoadGenerator
from repro.serve import ServingLoop

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: The names callers read instead of probing: the eight the contract
#: declares, ``read_only``, and ``CheckpointManager``'s two image methods.
CONTRACT_NAMES = frozenset({
    "clock", "ssd", "staleness_bound", "directory", "lookahead",
    "lookahead_capacity", "set_stall_handler", "op_cpu_seconds", "read_only",
    "checkpoint_root", "checkpoint_files",
})

_SMALL = {"memory_budget_bytes": 1 << 16}


def _stall(key: int) -> bool:
    return False


# ----------------------------------------------------------------------
# (a) every store answers, and what it answers
# ----------------------------------------------------------------------
def _engine(kind, path, ssd):
    return {
        "faster": lambda: FasterKV(path, ssd=ssd, page_bytes=1 << 12, **_SMALL),
        "mlkv": lambda: MLKV(path, ssd=ssd, staleness_bound=3, page_bytes=1 << 12, **_SMALL),
        "lsm": lambda: LsmKV(path, ssd=ssd, **_SMALL),
        "btree": lambda: BTreeKV(path, ssd=ssd, **_SMALL),
    }[kind]()


def build(name: str, tmp_path):
    """``(store, expected answers, engines a stall handler must reach,
    what to close)``.

    The expected answers are what ``getattr(store, name, None)`` read before
    the contract was declared, except a replica group's ``clock``, which
    was its version vector.
    """
    ssd = SSDModel(SimClock())
    base = str(tmp_path / name)
    shared = dict(ssd=ssd, clock=ssd.clock)
    if name in ("faster", "mlkv", "lsm", "btree"):
        store = _engine(name, base, ssd)
        engines = [store] if name == "mlkv" else []
        bound = 3 if name == "mlkv" else None
        return store, dict(shared, staleness_bound=bound, directory=base), engines, store
    if name == "native":
        store = NativeStore(ssd)
        return store, dict(shared, staleness_bound=None, directory=None), [], store
    if name == "router":
        engines = [_engine(kind, os.path.join(base, kind), ssd) for kind in ("mlkv", "faster")]
        store = ShardedKVStore(lambda index: engines[index], len(engines), directory=base)
        return store, dict(shared, staleness_bound=None, directory=base), engines[:1], store
    if name == "router-of-mlkv":
        engines = [MLKV(os.path.join(base, str(bound)), ssd=ssd, staleness_bound=bound, **_SMALL)
                   for bound in (5, 3)]
        store = ShardedKVStore(lambda index: engines[index], len(engines))
        return store, dict(shared, staleness_bound=3, directory=None), engines, store
    if name == "router-private":
        engines = [_engine("faster", os.path.join(base, str(index)), SSDModel(SimClock()))
                   for index in range(2)]
        store = ShardedKVStore(lambda index: engines[index], len(engines))
        return store, dict(ssd=None, clock=None, staleness_bound=None, directory=None), [], store
    if name == "router-of-groups":
        groups = [ReplicaGroup([_engine("mlkv", os.path.join(base, f"{shard}-{replica}"), ssd)
                                for replica in range(2)])
                  for shard in range(2)]
        store = ShardedKVStore(lambda index: groups[index], len(groups), directory=base)
        engines = [replica for group in groups for replica in group.replicas]
        return store, dict(shared, staleness_bound=3, directory=base), engines, store
    if name == "group-shared":
        engines = [_engine("mlkv", os.path.join(base, str(index)), ssd) for index in range(2)]
        store = ReplicaGroup(engines, directory=base)
        return store, dict(shared, staleness_bound=3, directory=base), engines, store
    if name == "group-private":
        engines = [_engine("mlkv", os.path.join(base, str(index)), SSDModel(SimClock()))
                   for index in range(2)]
        store = ReplicaGroup(engines)
        return store, dict(ssd=None, clock=None, staleness_bound=3, directory=None), engines, store
    raise AssertionError(name)


STORES = ["faster", "mlkv", "lsm", "btree", "native", "router", "router-of-mlkv",
          "router-private", "router-of-groups", "group-shared",
          "group-private"]

#: ``lookahead_capacity(33)`` of each store: 53-byte records.  An MLKV
#: engine of 64 KiB, 90% mutable (58,982 bytes), holds 14 4-KiB pages of
#: 77 and 30 more in the last 1,638 bytes.  ``router-of-mlkv``'s engines
#: have two 32 KiB pages: the page below the tail page, 618, is all they
#: are sure to hold.  A router adds its children up, a replica group
#: answers for its smallest replica, and a store that stages nothing
#: holds nothing.
CAPACITY = {
    "faster": 0, "mlkv": 1108, "lsm": 0, "btree": 0, "native": 0, "router": 1108,
    "router-of-mlkv": 2 * 618, "router-private": 0, "router-of-groups": 2 * 1108,
    "group-shared": 1108, "group-private": 1108,
}


@pytest.mark.parametrize("name", STORES)
def test_every_store_answers_the_contract(tmp_path, name):
    store, expected, engines, owner = build(name, tmp_path)
    try:
        answers = {key: getattr(store, key) for key in expected}
        assert answers["ssd"] is expected["ssd"]
        assert answers["clock"] is expected["clock"]
        assert answers["staleness_bound"] == expected["staleness_bound"]
        assert answers["directory"] == expected["directory"]
        assert store.read_only is False
        assert store.op_cpu_seconds >= 0.0
        assert store.lookahead_capacity(33) == CAPACITY[name]
        store.put(7, b"seven")
        store.set_stall_handler(_stall)
        staged = store.lookahead([7, 8, 9])
        assert isinstance(staged, int) and staged >= 0
        assert store.get(7) == b"seven"
        for engine in engines:
            assert engine._stall_handler is _stall
    finally:
        owner.close()


@pytest.mark.parametrize("name", STORES)
def test_read_counts_are_the_stats_hits_and_misses(tmp_path, name):
    """``read_counts()`` (what the server reads around every fetch) is
    ``stats``' hits and misses, a composite's summed over its children
    without merging their stats."""
    store, _, _, owner = build(name, tmp_path)
    try:
        store.set_stall_handler(_stall)
        store.multi_put(list(range(40)), [bytes(16)] * 40)
        store.multi_get(list(range(0, 80, 3)))  # present and absent keys, each once
        stats = store.stats
        assert stats.hits + stats.misses > 0
        assert store.read_counts() == (stats.hits, stats.misses)
    finally:
        owner.close()


def test_a_store_without_look_ahead_stages_nothing(tmp_path):
    store = FasterKV(str(tmp_path / "f"), **_SMALL)
    store.multi_put(list(range(100)), [bytes(8)] * 100)
    before = (store.stats.gets, store.stats.hits, store.stats.misses, store.clock.now)
    assert store.lookahead_capacity(8) == 0
    assert store.lookahead(list(range(100))) == 0
    assert (store.stats.gets, store.stats.hits, store.stats.misses, store.clock.now) == before
    store.set_stall_handler(_stall)  # nothing to call it for: ignored
    store.close()


# ----------------------------------------------------------------------
# (b) what a group's clock makes work
# ----------------------------------------------------------------------
def _faster_group(tmp_path, ssd):
    base = str(tmp_path / "group")
    replicas = [FasterKV(os.path.join(base, f"r{index}"), ssd=ssd, page_bytes=1 << 12, **_SMALL)
                for index in range(2)]
    return ReplicaGroup(replicas, directory=base)


def test_a_replica_group_uploads_and_restores_a_checkpoint_epoch(tmp_path):
    ssd = SSDModel(SimClock())
    group = _faster_group(tmp_path, ssd)
    expected = {key: bytes([key % 251]) * 16 for key in range(300)}
    group.multi_put(list(expected), list(expected.values()))
    checkpointer = CloudCheckpointer(group, str(tmp_path / "bucket"))
    network = ssd.clock.busy_seconds("network")
    assert checkpointer.checkpoint() == 1
    assert ssd.clock.busy_seconds("network") > network  # the upload is charged
    restored = checkpointer.restore(str(tmp_path / "restored"))
    assert isinstance(restored, ReplicaGroup)
    assert dict(restored.scan()) == expected
    assert (restored.alive, restored.hints_outstanding(0), restored.hints_outstanding(1)) == (
        group.alive, group.hints_outstanding(0), group.hints_outstanding(1))
    restored.close()
    group.close()


def test_a_replica_group_serves_a_closed_loop(tmp_path):
    ssd = SSDModel(SimClock())
    group = _faster_group(tmp_path, ssd)
    dim, items = 8, 200
    tables = EmbeddingTables(group, dim, seed=3, cache_entries=0)
    group.multi_put(list(range(items)),
                    [encode_vector(tables.init_vector(key)) for key in range(items)])
    ssd.clock.drain()
    server = EmbeddingServer(group, dim=dim, seed=3, cache_entries=0)
    assert server.clock is ssd.clock
    arrivals = ClosedLoopArrivals(
        8, LoadGenerator(items, "zipfian", seed=5).chooser(), ThinkTimeProcess(100e-6, seed=9),
        total_requests=300, start=server.clock.now, seed=5,
    )
    telemetry = ServingLoop(server, BatchPolicy(max_batch=8, max_delay=25e-6)).run(arrivals)
    assert telemetry.requests_completed == 300
    assert ssd.clock.busy_seconds("cpu") > 0
    for key in range(0, items, 37):
        assert (server.lookup([key])[0] == tables.init_vector(key)).all()
    group.close()


# ----------------------------------------------------------------------
# (c) no probes left
# ----------------------------------------------------------------------
def probes(root: str) -> list[str]:
    """``path:line name`` of every ``getattr``/``hasattr`` call under
    ``root`` whose attribute is a literal from :data:`CONTRACT_NAMES`."""
    found = []
    for directory, _, names in os.walk(root):
        for file_name in sorted(names):
            if not file_name.endswith(".py"):
                continue
            path = os.path.join(directory, file_name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in CONTRACT_NAMES
                ):
                    found.append(f"{os.path.relpath(path, root)}:{node.lineno} {node.args[1].value}")
    return found


def test_no_module_probes_a_declared_name():
    assert probes(SRC) == []


def test_the_probe_finder_finds_a_probe(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(store):\n"
        "    return getattr(store, 'clock', None), hasattr(store, 'lookahead')\n"
        "def g(store):\n"
        "    return getattr(store, 'mlkv_stats', None)\n"
    )
    assert probes(str(tmp_path)) == ["m.py:2 clock", "m.py:2 lookahead"]
