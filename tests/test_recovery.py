"""Crash-injection suite: durable checkpoints that actually restore.

Every test follows the same shape: acknowledge writes, make them durable
(checkpoint / WAL sync), keep mutating, kill the process at an injection
point, then ``restore()`` and assert the reopened store holds exactly the
durably-acknowledged state — nothing torn, nothing lost, nothing
resurrected.
"""

import json
import os
import shutil

import numpy as np
import pytest

from crash_injection import SimulatedCrash, crash_on, tear_wal_tail
from repro.core import CloudCheckpointer, EmbeddingTables, MLKV
from repro.core.staleness import ASP_BOUND
from repro.device import GPUModel, SimClock, SSDModel
from repro.errors import CheckpointError
from repro.kv.api import CheckpointManager
from repro.kv.btree import BTreeKV
from repro.kv.faster import FasterKV
from repro.kv.lsm import LsmKV
from repro.kv.replicated import ReplicaGroup
from repro.kv.sharded import ShardedKVStore

ENGINES = ["faster", "mlkv", "lsm", "btree", "sharded"]

_SMALL = {"memory_budget_bytes": 1 << 16}

PARALLEL_ROUTER_IMAGE = os.path.join(os.path.dirname(__file__), "data", "parallel_router_image")
REPLICATED_ROUTER_IMAGE = os.path.join(os.path.dirname(__file__), "data", "replicated_router_image")
REPLICA_GROUP_IMAGE = os.path.join(os.path.dirname(__file__), "data", "replica_group_image")


def build_store(kind: str, directory: str):
    if kind == "faster":
        return FasterKV(directory, page_bytes=1 << 12, **_SMALL)
    if kind == "mlkv":
        return MLKV(directory, staleness_bound=ASP_BOUND, page_bytes=1 << 12, **_SMALL)
    if kind == "lsm":
        return LsmKV(directory, **_SMALL)
    if kind == "btree":
        return BTreeKV(directory, **_SMALL)
    if kind == "sharded":
        # A deliberately mixed fleet: recovery must coordinate engines of
        # different types as one unit.
        children = [LsmKV, FasterKV, BTreeKV]

        def factory(index):
            return children[index](os.path.join(directory, f"shard_{index:02d}"))

        return ShardedKVStore(factory, len(children), directory=directory)
    raise AssertionError(kind)


def restore_store(kind: str, directory: str):
    if kind == "faster":
        return FasterKV.restore(directory)
    if kind == "mlkv":
        return MLKV.restore(directory, staleness_bound=ASP_BOUND)
    if kind == "lsm":
        return LsmKV.restore(directory)
    if kind == "btree":
        return BTreeKV.restore(directory)
    if kind == "sharded":
        return ShardedKVStore.restore(directory)  # classes from the manifest
    raise AssertionError(kind)


def _with(text: str, field: str, value) -> str:
    """A JSON sidecar with one field replaced."""
    return json.dumps({**json.loads(text), field: value})


def _without(text: str, field: str) -> str:
    """A JSON sidecar with one field dropped."""
    loaded = json.loads(text)
    del loaded[field]
    return json.dumps(loaded)


def value_of(key: int, generation: int = 0) -> bytes:
    return bytes([(key * 7 + generation) % 251]) * (8 + key % 5)


def write_phase(store, keys, generation: int = 0) -> dict:
    applied = {}
    for key in keys:
        store.put(key, value_of(key, generation))
        applied[key] = value_of(key, generation)
    return applied


class TestCheckpointManagerContract:
    @pytest.mark.parametrize("kind", ENGINES)
    def test_protocol_implemented(self, tmp_path, kind):
        store = build_store(kind, str(tmp_path / "s"))
        assert isinstance(store, CheckpointManager)
        store.put(1, b"x")
        store.checkpoint()
        files = store.checkpoint_files()
        assert files, "a checkpoint must name at least one durable file"
        root = store.checkpoint_root()
        for rel in files:
            assert not os.path.isabs(rel)
            assert os.path.isfile(os.path.join(root, rel))
        store.close()


class TestKillThenRestore:
    """Kill after durable ack + undurable writes; restore must be exact."""

    @pytest.mark.parametrize("kind", ENGINES)
    def test_cloud_restore_yields_exactly_durable_state(self, tmp_path, kind):
        store = build_store(kind, str(tmp_path / "local"))
        expected = write_phase(store, range(60))
        expected.update(write_phase(store, range(10), generation=1))  # overwrites
        for key in range(50, 55):  # tombstones must not resurrect
            store.delete(key)
            expected.pop(key)
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        epoch = checkpointer.checkpoint()
        assert epoch == 1

        # Acknowledged-but-not-durable writes after the checkpoint, then a
        # kill: the store is abandoned without close().
        write_phase(store, range(60, 120))
        write_phase(store, range(10), generation=9)

        restored_dir = str(tmp_path / "restored")
        checkpointer.restore_to(restored_dir)
        restored = restore_store(kind, restored_dir)
        assert dict(restored.scan()) == expected
        for key, value in expected.items():
            assert restored.get(key) == value
        for key in (52, 80, 119):
            assert restored.get(key) is None
        restored.close()

    @pytest.mark.parametrize("kind", ENGINES)
    def test_generic_restore_reopens_via_manifest(self, tmp_path, kind):
        """CloudCheckpointer.restore() needs no engine-specific caller code."""
        store = build_store(kind, str(tmp_path / "local"))
        expected = write_phase(store, range(30))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        restored = checkpointer.restore(str(tmp_path / "restored"))
        assert dict(restored.scan()) == expected
        restored.close()
        store.close()

    def test_named_epoch_restore(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"), **_SMALL)
        first = write_phase(store, range(20))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        assert checkpointer.checkpoint() == 1
        second = dict(first)
        second.update(write_phase(store, range(20, 40)))
        assert checkpointer.checkpoint() == 2
        assert checkpointer.list_epochs() == [1, 2]

        checkpointer.restore_to(str(tmp_path / "e1"), epoch=1)
        epoch1 = FasterKV.restore(str(tmp_path / "e1"))
        assert dict(epoch1.scan()) == first
        checkpointer.restore_to(str(tmp_path / "e2"), epoch=2)
        epoch2 = FasterKV.restore(str(tmp_path / "e2"))
        assert dict(epoch2.scan()) == second
        epoch1.close()
        epoch2.close()
        store.close()

    def test_sharded_restore_with_factory(self, tmp_path):
        """A factory re-wires restored shards onto shared device models."""
        store = build_store("sharded", str(tmp_path / "local"))
        expected = write_phase(store, range(80))
        store.checkpoint()

        clock = SimClock()
        ssd = SSDModel(clock)
        children = [LsmKV, FasterKV, BTreeKV]
        restored = ShardedKVStore.restore(
            str(tmp_path / "local"),
            factory=lambda index, shard_dir: children[index].restore(
                shard_dir, ssd=ssd
            ),
        )
        assert dict(restored.scan()) == expected
        assert all(shard.ssd is ssd for shard in restored.shards)

    def test_mlkv_restore_reapplies_checkpointed_bound(self, tmp_path):
        """A BSP/SSP store must not silently reopen as ASP."""
        store = MLKV(str(tmp_path / "local"), staleness_bound=3, **_SMALL)
        store.put(1, b"x")
        store.checkpoint()
        restored = MLKV.restore(str(tmp_path / "local"))
        assert restored.staleness_bound == 3
        # An explicit override still wins.
        overridden = MLKV.restore(str(tmp_path / "local"), staleness_bound=7)
        assert overridden.staleness_bound == 7

    def test_mlkv_restore_does_not_double_count_staleness(self, tmp_path):
        """The flushed log words already carry in-memory staleness; the
        sidecar must hold only the disk-era delta, or lookahead after a
        restore doubles every formerly-in-memory key's clock."""
        store = MLKV(str(tmp_path / "local"), staleness_bound=100, **_SMALL)
        store.put(1, b"payload")
        for _ in range(5):
            store.get(1)
        assert store.staleness_of(1) == 5
        store.checkpoint()
        restored = MLKV.restore(str(tmp_path / "local"))
        restored.lookahead([1])  # folds the sidecar delta onto the word
        assert restored.staleness_of(1) == 5

    @pytest.mark.parametrize(
        "name, tear",
        [
            pytest.param(name, tear, id=f"{name.split('.')[1]}-{label}")
            for name, label, tear in [
                ("faster.meta.json", "cut short", lambda text: text[: len(text) // 2]),
                ("faster.meta.json", "not an object", lambda text: "[1, 2]"),
                ("faster.meta.json", "no page_bytes", lambda text: _without(text, "page_bytes")),
                ("faster.meta.json", "no tail_address", lambda text: _without(text, "tail_address")),
                ("faster.meta.json", "page_bytes text", lambda text: _with(text, "page_bytes", "4 KiB")),
                ("faster.meta.json", "page_bytes 0", lambda text: _with(text, "page_bytes", 0)),
                ("mlkv.staleness.json", "cut short", lambda text: text[: len(text) // 2]),
                ("mlkv.staleness.json", "no overflow", lambda text: _without(text, "overflow")),
                ("mlkv.staleness.json", "no bound", lambda text: _without(text, "staleness_bound")),
                ("mlkv.staleness.json", "text key", lambda text: _with(text, "overflow", {"seven": 1})),
                ("mlkv.staleness.json", "negative count", lambda text: _with(text, "overflow", {"7": -1})),
                ("mlkv.staleness.json", "fractional count", lambda text: _with(text, "overflow", {"7": 1.5})),
                ("mlkv.staleness.json", "overflow a list", lambda text: _with(text, "overflow", [7, 1])),
                ("mlkv.staleness.json", "negative bound", lambda text: _with(text, "staleness_bound", -2)),
            ]
        ],
    )
    def test_torn_engine_sidecar_is_a_checkpoint_error(self, tmp_path, name, tear):
        """A sidecar cut short or missing a field names itself in a
        ``CheckpointError``; it is not a ``JSONDecodeError``/``KeyError``
        from wherever the field was first needed."""
        directory = str(tmp_path / "local")
        store = MLKV(directory, staleness_bound=3, page_bytes=1 << 12, **_SMALL)
        store.multi_put(list(range(2000)), [bytes(40)] * 2000)  # the first keys spill
        store.multi_get(list(range(20)))  # ... and get overflow entries
        store.checkpoint()
        store.close()
        restored = MLKV.restore(directory)
        assert restored._overflow_staleness == {key: 1 for key in range(20)}
        restored.close()
        path = tmp_path / "local" / name
        path.write_text(tear(path.read_text()))
        with pytest.raises(CheckpointError, match=name.replace(".", r"\.")):
            MLKV.restore(directory).close()
        if name.startswith("faster"):
            with pytest.raises(CheckpointError, match=r"faster\.meta\.json"):
                FasterKV.recover(directory).close()

    @pytest.mark.parametrize(
        "kind, pattern, tear",
        [
            pytest.param(kind, pattern, tear, id=f"{pattern}-{label}")
            for kind, pattern, label, tear in [
                ("lsm", "lsm.manifest.json", "cut short", lambda text: text[: len(text) // 2]),
                ("lsm", "lsm.manifest.json", "not an object", lambda text: "[1, 2]"),
                ("lsm", "lsm.manifest.json", "no l0", lambda text: _without(text, "l0")),
                ("lsm", "lsm.manifest.json", "no next_file_id",
                 lambda text: _without(text, "next_file_id")),
                ("lsm", "lsm.manifest.json", "levels a list", lambda text: _with(text, "levels", [1])),
                ("lsm", "sst_*.data.meta", "cut short", lambda text: text[: len(text) // 2]),
                ("lsm", "sst_*.data.meta", "no bloom_hex", lambda text: _without(text, "bloom_hex")),
                ("lsm", "sst_*.data.meta", "bloom_hex not hex",
                 lambda text: _with(text, "bloom_hex", "zz")),
                ("btree", "btree.meta.json", "cut short", lambda text: text[: len(text) // 2]),
                ("btree", "btree.meta.json", "no table", lambda text: _without(text, "table")),
                ("btree", "btree.meta.json", "no root_page", lambda text: _without(text, "root_page")),
                ("btree", "btree.meta.json", "table a list", lambda text: _with(text, "table", [1])),
            ]
        ],
    )
    def test_torn_engine_image_file_is_a_checkpoint_error(self, tmp_path, kind, pattern, tear):
        """The same for the LSM manifest, an SSTable's ``.meta`` sidecar and
        the B+tree meta: a torn one is a ``CheckpointError`` naming it."""
        directory = tmp_path / "local"
        store = build_store(kind, str(directory))
        write_phase(store, range(3000))  # enough for the LSM to flush runs
        store.checkpoint()
        store.close()
        torn = sorted(directory.glob(pattern))
        assert torn
        for path in torn:
            path.write_text(tear(path.read_text()))
        with pytest.raises(CheckpointError, match=pattern.replace(".", r"\.").replace("*", ".*")):
            restore_store(kind, str(directory)).close()

    @pytest.mark.parametrize(
        "tear",
        [
            pytest.param(lambda text: text[: len(text) // 2], id="cut short"),
            pytest.param(lambda text: "[1, 2]", id="not an object"),
            pytest.param(lambda text: _without(text, "files"), id="no files"),
            pytest.param(lambda text: _without(text, "store_type"), id="no store_type"),
            pytest.param(lambda text: _with(text, "files", [1]), id="files a list"),
            pytest.param(lambda text: _with(text, "files", {"a": {"bytes": 1}}), id="no sha256"),
        ],
    )
    def test_torn_epoch_manifest_is_a_checkpoint_error(self, tmp_path, tear):
        store = FasterKV(str(tmp_path / "local"), **_SMALL)
        write_phase(store, range(20))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        path = tmp_path / "bucket" / "manifests" / "epoch_000001.json"
        path.write_text(tear(path.read_text()))
        with pytest.raises(CheckpointError, match=r"epoch_000001\.json"):
            checkpointer.restore(str(tmp_path / "restored"))
        with pytest.raises(CheckpointError, match=r"epoch_000001\.json"):
            checkpointer.checkpoint()  # the next epoch diffs against this one
        store.close()

    @pytest.mark.parametrize(
        "store_type",
        ["builtins.dict", "repro.no_such_module.Store", "repro.kv.faster.NoSuchKV", "FasterKV",
         "repro.kv.parallel.ParallelShardStore",  # the process-parallel router, since removed
         "repro.kv.replicated.ReplicatedKVStore"],  # the replicated router, since removed
    )
    def test_epoch_manifest_must_name_a_kvstore(self, tmp_path, store_type):
        """``restore`` resolves the recorded class as a router manifest's
        children are resolved: only an importable ``KVStore`` is opened."""
        store = FasterKV(str(tmp_path / "local"), **_SMALL)
        expected = write_phase(store, range(20))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        path = tmp_path / "bucket" / "manifests" / "epoch_000001.json"
        path.write_text(_with(path.read_text(), "store_type", store_type))
        with pytest.raises(CheckpointError, match="store type|not a KVStore"):
            checkpointer.restore(str(tmp_path / "restored"))
        restored = checkpointer.restore(
            str(tmp_path / "restored"), store_cls=FasterKV, overwrite=True
        )
        assert dict(restored.scan()) == expected
        restored.close()
        store.close()

    def test_restore_to_refuses_dirty_target(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"), **_SMALL)
        store.put(1, b"x")
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        target = tmp_path / "restored"
        target.mkdir()
        (target / "stale-leftover.bin").write_bytes(b"old epoch debris")
        with pytest.raises(CheckpointError):
            checkpointer.restore_to(str(target))
        checkpointer.restore_to(str(target), overwrite=True)
        assert not (target / "stale-leftover.bin").exists()
        restored = FasterKV.restore(str(target))
        assert restored.get(1) == b"x"
        restored.close()
        store.close()

    def test_a_parallel_router_image_restores_as_a_sharded_store(self, tmp_path):
        """``tests/data/parallel_router_image`` was checkpointed by the
        process-parallel router before it was removed: two FASTER shards,
        4 KiB pages, keys 0..199 of 16 bytes each.  Its manifest is a
        plain router manifest, so the one router reopens it with the same
        contents, slot table and owner of every key."""
        directory = tmp_path / "image"
        shutil.copytree(PARALLEL_ROUTER_IMAGE, directory)
        restored = ShardedKVStore.restore(str(directory))
        try:
            assert type(restored) is ShardedKVStore and restored._slots == [0, 1]
            assert [type(shard) for shard in restored.shards] == [FasterKV, FasterKV]
            expected = {key: bytes([key % 251]) * 16 for key in range(200)}
            assert dict(restored.scan()) == expected
            for key, value in expected.items():
                owner = restored.shard_of(key)
                assert restored.shards[owner].get(key) == value
                assert restored.shards[1 - owner].get(key) is None
        finally:
            restored.close()

    def test_a_replicated_router_image_no_longer_restores(self, tmp_path):
        """``tests/data/replicated_router_image`` was checkpointed by the
        replicated router before it was removed: two shards of two FASTER
        replicas, 4 KiB pages, keys 0..199 of 16 bytes each, every
        group's state in one ``replicated.manifest.json``.  Restoring that
        format was dropped with the class: neither the router nor a group
        finds its manifest, so both raise ``CheckpointError``."""
        directory = tmp_path / "image"
        shutil.copytree(REPLICATED_ROUTER_IMAGE, directory)
        assert (directory / "replicated.manifest.json").exists()
        with pytest.raises(CheckpointError, match="sharded.manifest.json"):
            ShardedKVStore.restore(str(directory))
        with pytest.raises(CheckpointError, match="group.manifest.json"):
            ReplicaGroup.restore(str(directory))

    def test_a_replica_group_image_with_clocks_restores_from_its_hints(self, tmp_path):
        """``tests/data/replica_group_image`` was checkpointed while groups
        kept a per-replica version clock: two FASTER replicas, 4 KiB
        pages, keys 0..99 of 16 bytes each; then replica 1 failed and
        missed twenty overwrites, a delete of key 99 and an insert of key
        150.  Its manifest still records ``clocks``, which restore does
        not read: the hint ledger alone brings replica 1 back dead, and
        its revive replays exactly the recorded hints."""
        directory = tmp_path / "image"
        shutil.copytree(REPLICA_GROUP_IMAGE, directory)
        with open(directory / "group.manifest.json") as handle:
            manifest = json.load(handle)
        assert "clocks" in manifest
        hinted = manifest["hints"][1]
        expected = {key: bytes([key % 251]) * 16 for key in range(99)}
        expected.update({key: b"h" * 16 for key in range(0, 40, 2)})
        expected[150] = b"n" * 16
        group = ReplicaGroup.restore(str(directory))
        try:
            assert group.alive == [True, False]
            assert [group.hints_outstanding(0), group.hints_outstanding(1)] == [0, len(hinted)]
            assert dict(group.scan()) == expected
            for key in [*range(100), 150]:
                assert group.get(key) == expected.get(key)
            replayed = []
            target = group.replicas[1]
            put_many, delete = target.multi_put, target.delete

            def recorded_put_many(keys, values):
                replayed.extend(keys)
                return put_many(keys, values)

            def recorded_delete(key):
                replayed.append(key)
                return delete(key)

            target.multi_put, target.delete = recorded_put_many, recorded_delete
            assert group.revive(1) == len(hinted)
            assert sorted(replayed) == sorted(hinted)
            assert group.alive == [True, True] and group.hints_outstanding(1) == 0
            assert dict(target.scan()) == expected
        finally:
            group.close()

    def test_sharded_checkpoint_requires_contained_shards(self, tmp_path):
        outside = FasterKV(str(tmp_path / "elsewhere"), **_SMALL)
        store = ShardedKVStore(lambda index: outside, 1, directory=str(tmp_path / "base"))
        store.put(1, b"x")
        with pytest.raises(CheckpointError):
            store.checkpoint()
        store.close()


class TestInjectionPoints:
    def test_mid_wal_torn_record(self, tmp_path):
        """Kill mid-WAL-append: the torn tail is dropped, synced writes live."""
        directory = str(tmp_path / "lsm")
        store = LsmKV(directory, memory_budget_bytes=1 << 20)
        expected = write_phase(store, range(40))
        store.checkpoint()  # WAL sync: everything above is durable
        tear_wal_tail(os.path.join(directory, "lsm.wal"))

        recovered = LsmKV.restore(directory)
        for key, value in expected.items():
            assert recovered.get(key) == value
        # The store stays writable after tail truncation.
        recovered.put(999, b"post-recovery")
        recovered.checkpoint()
        assert recovered.get(999) == b"post-recovery"
        recovered.close()

    def test_post_flush_pre_manifest(self, tmp_path):
        """Kill between SSTable build and manifest write: the WAL still
        covers the flushed memtable, so nothing is lost (regression: the
        WAL used to be truncated before the manifest was written)."""
        directory = str(tmp_path / "lsm")
        store = LsmKV(directory, memory_budget_bytes=1 << 20)
        expected = write_phase(store, range(100))
        store.wal.sync()
        with crash_on(store, "_write_manifest"):
            with pytest.raises(SimulatedCrash):
                store.flush()

        recovered = LsmKV.restore(directory)
        for key, value in expected.items():
            assert recovered.get(key) == value
        recovered.close()

    def test_mid_upload_preserves_previous_epoch(self, tmp_path):
        """Kill mid-upload: no manifest commits, the previous epoch remains
        the restorable truth, and a retry completes the interrupted epoch."""
        store = FasterKV(str(tmp_path / "local"), **_SMALL)
        durable = write_phase(store, range(30))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()

        undurable = dict(durable)
        undurable.update(write_phase(store, range(30, 60)))
        with crash_on(checkpointer, "_upload_object", after_calls=1):
            with pytest.raises(SimulatedCrash):
                checkpointer.checkpoint()
        assert checkpointer.latest_epoch() == 1

        checkpointer.restore_to(str(tmp_path / "restored"))
        restored = FasterKV.restore(str(tmp_path / "restored"))
        assert dict(restored.scan()) == durable
        restored.close()

        # Retry after "reconnect": epoch 2 commits, reusing the objects the
        # crashed attempt already copied.
        assert checkpointer.checkpoint() == 2
        checkpointer.restore_to(str(tmp_path / "restored2"), epoch=2)
        retried = FasterKV.restore(str(tmp_path / "restored2"))
        assert dict(retried.scan()) == undurable
        retried.close()
        store.close()


class TestIncrementalUpload:
    def test_second_epoch_uploads_only_changed_files(self, tmp_path):
        store = LsmKV(str(tmp_path / "local"), memory_budget_bytes=1 << 20)
        write_phase(store, range(200))
        store.flush()  # sst_000001 (+ sidecar)
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        first_uploaded = checkpointer.objects_uploaded
        first_bytes = checkpointer.bytes_uploaded
        assert first_uploaded >= 3  # run + sidecar + manifest at minimum

        write_phase(store, range(200, 400))
        store.flush()  # sst_000002 (+ sidecar); sst_000001 untouched
        checkpointer.checkpoint()
        second_uploaded = checkpointer.objects_uploaded - first_uploaded
        second_bytes = checkpointer.bytes_uploaded - first_bytes
        second_skipped = checkpointer.objects_skipped

        # Only the new run, its sidecar, and the rewritten LSM manifest
        # moved; the first run's files (and the empty WAL) were deduped.
        assert second_uploaded == 3
        assert second_skipped >= 3
        assert second_bytes < first_bytes + second_bytes
        total_files = len(store.checkpoint_files())
        assert second_uploaded < total_files
        store.close()

    def test_identical_checkpoint_uploads_nothing_new(self, tmp_path):
        store = FasterKV(str(tmp_path / "local"), **_SMALL)
        write_phase(store, range(50))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        uploaded = checkpointer.objects_uploaded
        checkpointer.checkpoint()  # nothing changed on disk
        assert checkpointer.objects_uploaded == uploaded
        assert checkpointer.objects_skipped >= len(store.checkpoint_files())
        store.close()

    def test_deleted_files_are_tombstoned_not_resurrected(self, tmp_path):
        store = LsmKV(str(tmp_path / "local"), memory_budget_bytes=1 << 20)
        write_phase(store, range(100))
        store.flush()
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        checkpointer.checkpoint()
        before = set(store.checkpoint_files())

        # Force compaction churn: enough flushes to trigger L0 merge, which
        # deletes the old runs.
        for generation in range(1, store.policy.l0_trigger + 1):
            write_phase(store, range(100), generation=generation)
            store.flush()
        after = set(store.checkpoint_files())
        removed = before - after
        assert removed, "compaction should have replaced the early runs"
        checkpointer.checkpoint()

        restored_dir = str(tmp_path / "restored")
        checkpointer.restore_to(restored_dir)
        present = set()
        for dirpath, _, names in os.walk(restored_dir):
            for name in names:
                present.add(
                    os.path.relpath(os.path.join(dirpath, name), restored_dir)
                )
        assert present == after
        assert not (removed & present)
        store.close()


class TestTrainerResume:
    def _build_trainer(self, workdir, store=None):
        from repro.data import CTRDataset
        from repro.models import FFNN
        from repro.train import DLRMTrainer, TrainerConfig

        clock = SimClock()
        ssd = SSDModel(clock)
        gpu = GPUModel(clock, flops_per_second=5e12)
        if store is None:
            store = MLKV(
                os.path.join(workdir, "mlkv"),
                staleness_bound=ASP_BOUND,
                ssd=ssd,
                memory_budget_bytes=1 << 20,
            )
        tables = EmbeddingTables(store, dim=8, seed=0, cache_entries=512)
        dataset = CTRDataset(num_fields=3, field_cardinality=60, seed=0)
        config = TrainerConfig(batch_size=16, pipeline_depth=2, seed=0)
        network = FFNN(
            num_dense=13, num_fields=3, emb_dim=8, hidden=(16,),
            rng=np.random.default_rng(0),
        )
        trainer = DLRMTrainer(tables, network, gpu, config, dataset)
        return store, dataset, trainer

    def test_resumed_run_reproduces_loss_trajectory(self, tmp_path):
        total_steps, kill_at = 16, 8

        # Reference: one uninterrupted run.
        _, dataset, trainer = self._build_trainer(str(tmp_path / "full"))
        batches = dataset.batches(total_steps, 16)
        full_losses = trainer.run(batches).losses
        assert len(full_losses) == total_steps

        # Interrupted run: checkpoint every `kill_at` steps, then die.
        store, dataset_b, trainer_b = self._build_trainer(str(tmp_path / "killed"))
        checkpointer = CloudCheckpointer(store, str(tmp_path / "bucket"))
        batches_b = dataset_b.batches(total_steps, 16)
        trainer_b.run(
            batches_b[:kill_at], checkpointer=checkpointer,
            checkpoint_every=kill_at,
        )
        assert checkpointer.latest_epoch() == 1
        # (the kill: trainer_b / store are abandoned here)

        # Resume on a "new node": restore the store from the bucket, load
        # the trainer state that rode along inside the epoch, continue.
        restored_dir = str(tmp_path / "resumed")
        restored = checkpointer.restore(
            restored_dir, staleness_bound=ASP_BOUND, memory_budget_bytes=1 << 20
        )
        _, dataset_c, trainer_c = self._build_trainer(
            str(tmp_path / "resumed-work"), store=restored
        )
        trainer_c.load_checkpoint(restored_dir)
        resumed = trainer_c.run(dataset_c.batches(total_steps, 16))

        assert resumed.steps == total_steps - kill_at
        assert resumed.losses == full_losses[kill_at:]

    def test_state_dict_roundtrip(self, tmp_path):
        store, dataset, trainer = self._build_trainer(str(tmp_path / "a"))
        trainer.run(dataset.batches(4, 16))
        path = str(tmp_path / "state.pkl")
        trainer.save_checkpoint(path, step=4)

        store2, dataset2, trainer2 = self._build_trainer(str(tmp_path / "b"))
        trainer2.load_checkpoint(path)
        assert trainer2._start_step == 4
        ours = [p.data for p in trainer.network.parameters()]
        theirs = [p.data for p in trainer2.network.parameters()]
        for mine, loaded in zip(ours, theirs):
            np.testing.assert_array_equal(mine, loaded)
        assert len(trainer2.pending) == len(trainer.pending)
        store.close()
        store2.close()
