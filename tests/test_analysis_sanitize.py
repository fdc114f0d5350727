"""The runtime sanitizer (repro.analysis.sanitize): invariants proven live.

Every invariant gets a mutation test: the guarded bug is injected — by
corrupting protocol state directly or by swapping in a deliberately
buggy method before the sanitizer wraps it — and the test asserts a
``SanitizerError`` whose ring-buffer trace contains the offending
operation.  A clean run through the same paths raises nothing, and
disabling the sanitizer restores the original methods exactly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import (
    disable_sanitizer,
    enable_sanitizer,
    sanitized,
)
from repro.core.checkpoint import CloudCheckpointer
from repro.core.embedding import EmbeddingTables
from repro.device import SimClock, SSDModel
from repro.errors import SanitizerError
from repro.kv.faster import FasterKV
from repro.kv import ShardedKVStore
from repro.kv.replicated import ReplicaGroup
from repro.models import FFNN
from repro.train import TrainerConfig, WorkerProgressClock
from repro.train.dist.server import ParameterServer, PushPacket

DIM = 8
SEED = 0


@pytest.fixture(autouse=True)
def fresh_sanitizer():
    """Each test owns the sanitizer lifecycle.

    When the whole run is under ``REPRO_SANITIZE=1`` (the conftest hook)
    the process-wide sanitizer is stood down first — these tests patch
    buggy methods *under* the wrappers, which needs install order
    control — and re-enabled afterwards.
    """
    was_enabled = os.environ.get("REPRO_SANITIZE") == "1"
    disable_sanitizer()
    yield
    disable_sanitizer()
    if was_enabled:
        enable_sanitizer()


def make_replicated(root, *, shards=2, replication=2):
    """A router of ``shards`` replica groups of FASTER replicas."""
    ssd = SSDModel(SimClock())
    return ShardedKVStore(
        lambda shard: ReplicaGroup(
            [FasterKV(str(root / f"s{shard}r{replica}"), ssd=ssd) for replica in range(replication)],
        ),
        shards,
    )


def make_server(root, *, staleness_bound=None):
    clock = SimClock()
    store = FasterKV(str(root / "ps"), ssd=SSDModel(clock))
    tables = EmbeddingTables(store, DIM, cache_entries=0)
    rng = np.random.default_rng(SEED)
    network = FFNN(num_dense=4, num_fields=4, emb_dim=DIM, rng=rng)
    config = TrainerConfig(batch_size=4, seed=SEED)
    server = ParameterServer(
        tables, network, config, staleness_bound=staleness_bound
    )
    return server, network


def make_packet(network, batch_index, worker_id=0, seq=0):
    keys = np.array([1, 2, 3], dtype=np.int64)
    return PushPacket(
        worker_id=worker_id,
        seq=seq,
        batch_index=batch_index,
        keys=keys,
        emb_grads=np.ones((3, DIM), dtype=np.float32),
        dense_grads=[np.zeros_like(p.data) for p in network.parameters()],
        loss=1.0,
    )


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_clean_workload_raises_nothing_and_traces(self, tmp_path):
        with sanitized() as sanitizer:
            store = make_replicated(tmp_path)
            for key in range(30):
                store.put(key, bytes([key]) * 4)
            for key in range(30):
                assert store.get(key) == bytes([key]) * 4
            store.shards[0].fail(1)
            store.put(99, b"x")
            store.shards[0].revive(1)
            assert len(sanitizer.trace) > 0
            assert sanitizer.violations == 0

    def test_disable_restores_originals(self):
        pristine = ReplicaGroup.pick_reader
        with sanitized():
            assert ReplicaGroup.pick_reader is not pristine
        assert ReplicaGroup.pick_reader is pristine

    def test_sanitized_reuses_an_active_sanitizer(self):
        outer = enable_sanitizer()
        with sanitized() as inner:
            assert inner is outer
        assert enable_sanitizer() is outer  # context did not tear it down


# ----------------------------------------------------------------------
# read admission + donor soundness
# ----------------------------------------------------------------------
class TestRoutingInvariants:
    def test_read_from_dead_replica_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            ReplicaGroup, "pick_reader", lambda self: 0
        )  # buggy router: always replica 0, ignoring liveness
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            store.put(1, b"a")
            store.shards[0].fail(0)
            with pytest.raises(SanitizerError) as err:
                store.get(1)
            assert "dead replica" in str(err.value)
            assert "pick_reader" in str(err.value)

    def test_read_from_a_replica_owing_hints_is_caught(self, tmp_path):
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            store.put(1, b"a")
            store.shards[0].fail(1)
            store.put(2, b"b")  # replica 1 now owes one hinted write
            # Buggy revive: the replica is marked live without replaying.
            store.shards[0].alive[1] = True
            with pytest.raises(SanitizerError) as err:
                for _ in range(2):  # round-robin reaches replica 1
                    store.get(1)
            assert "chose replica 1, which owes 1 hinted writes" in str(err.value)
            assert "pick_reader" in str(err.value)

    def test_donor_owing_hints_is_caught(self, tmp_path, monkeypatch):
        real_peer = ReplicaGroup._complete_peer

        def buggy_peer(self, exclude):
            live = [
                index for index in self.live_indices() if index != exclude
            ]
            owing = [i for i in live if self.hints_outstanding(i) != 0]
            if owing:  # prefer the worst possible donor
                return owing[0]
            return real_peer(self, exclude=exclude)

        monkeypatch.setattr(ReplicaGroup, "_complete_peer", buggy_peer)
        with sanitized():
            store = make_replicated(tmp_path, shards=1, replication=3)
            store.put(1, b"a")
            store.shards[0].fail(1)
            store.put(2, b"b")
            store.shards[0].fail(2)
            store.put(3, b"c")  # hints queue up for replicas 1 and 2
            # Buggy revive: live while owing two hints, after the last
            # fan-out (which would have flagged a live replica owing hints).
            store.shards[0].alive[1] = True
            with pytest.raises(SanitizerError) as err:
                store.shards[0].revive(2)  # the replay picks the owing donor
            assert "_complete_peer chose replica 1, which owes 2" in str(err.value)

    def test_fanout_whose_hint_is_a_no_op_is_caught(self, tmp_path):
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            store.put(1, b"a")
            group = store.shards[0]
            group.fail(1)
            # Buggy replication: the write lands on the live replica but
            # the dead one's hint is dropped (an instance attribute, like
            # a refactor that forgot to record it).
            group._hint = lambda *args, **kwargs: None
            with pytest.raises(SanitizerError) as err:
                store.put(2, b"b")
            assert "its hints must grow by exactly the written keys" in str(err.value)
            assert "fanout_put" in str(err.value)

    def test_fanout_that_changes_liveness_is_caught(self, tmp_path, monkeypatch):
        real_put = ReplicaGroup.fanout_put

        def buggy_put(self, key, value):
            real_put(self, key, value)
            self.alive[1] = False  # a write must not fail a replica

        monkeypatch.setattr(ReplicaGroup, "fanout_put", buggy_put)
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            with pytest.raises(SanitizerError) as err:
                store.put(1, b"a")
            assert "changed liveness" in str(err.value)


# ----------------------------------------------------------------------
# replica group hint ledger
# ----------------------------------------------------------------------
class TestHintLedgerInvariants:
    def test_a_live_replica_left_owing_hints_is_caught(self, tmp_path):
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            store.put(1, b"a")
            group = store.shards[0]
            group._hints[0] = {1}  # corrupt: a live replica owes a write
            with pytest.raises(SanitizerError) as err:
                store.put(2, b"b")
            assert "live replica 0 owes 1 hinted writes" in str(err.value)
            assert "fanout_put" in str(err.value)

    def test_a_dead_replicas_hints_shrinking_is_caught(self, tmp_path):
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            group = store.shards[0]
            group.fail(1)
            store.multi_put([1, 2, 3], [b"a"] * 3)
            # Buggy replication: each hint replaces the set instead of
            # joining it, so the keys missed earlier are forgotten.
            group._hint = lambda replica, key: group._hints.__setitem__(replica, {key})
            with pytest.raises(SanitizerError) as err:
                store.multi_put([4, 5], [b"b"] * 2)
            assert "dead replica 1 owes 1 hinted keys, expected 5" in str(err.value)
            assert "fanout_multi_put" in str(err.value)

    def test_a_donor_that_is_the_revived_replica_is_caught(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            ReplicaGroup, "_complete_peer", lambda self, exclude: exclude
        )
        with sanitized():
            store = make_replicated(tmp_path, shards=1)
            group = store.shards[0]
            group.fail(1)
            store.put(1, b"a")
            with pytest.raises(SanitizerError) as err:
                group.revive(1)
            assert "returned the excluded replica 1 as its own donor" in str(err.value)


# ----------------------------------------------------------------------
# parameter-server invariants
# ----------------------------------------------------------------------
class TestParameterServerInvariants:
    def test_double_applied_delta_is_caught(self, tmp_path):
        with sanitized():
            server, network = make_server(tmp_path)
            server.register_worker(0)
            server.pull_rows(0, np.array([1, 2, 3], dtype=np.int64))
            assert server.push_deltas(make_packet(network, batch_index=0))
            # Ledger corruption: the server forgets batch 0 was applied,
            # so a retried push re-folds the same delta into storage.
            server.applied_batches.clear()
            with pytest.raises(SanitizerError) as err:
                server.push_deltas(make_packet(network, batch_index=0, seq=1))
            assert "a second time" in str(err.value)
            assert "push_deltas" in str(err.value)

    def test_double_application_across_apply_round_is_caught(self, tmp_path):
        with sanitized():
            server, network = make_server(tmp_path)
            server.register_worker(0)
            server.pull_rows(0, np.array([1, 2, 3], dtype=np.int64))
            assert server.apply_round([make_packet(network, batch_index=4)]) == 1
            server.applied_batches.clear()
            with pytest.raises(SanitizerError) as err:
                server.apply_round([make_packet(network, batch_index=4, seq=1)])
            assert "a second time" in str(err.value)

    def test_pull_beyond_staleness_bound_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            WorkerProgressClock, "admissible",
            lambda self, worker_id, bound: True,  # buggy: admits everyone
        )
        with sanitized():
            server, _ = make_server(tmp_path, staleness_bound=0)
            server.register_worker(0)
            server.register_worker(1)
            server.progress.complete(0)  # worker 0 now leads by 1 > bound 0
            with pytest.raises(SanitizerError) as err:
                server.pull_rows(0, np.array([1], dtype=np.int64))
            assert "beyond the staleness bound" in str(err.value)

    def test_progress_moving_backwards_is_caught(self):
        with sanitized():
            progress = WorkerProgressClock()
            progress.register(0)
            progress.complete(0, 3)
            with pytest.raises(SanitizerError) as err:
                progress.complete(0, -2)
            assert "monotone" in str(err.value)


# ----------------------------------------------------------------------
# checkpoint durability
# ----------------------------------------------------------------------
class TestCheckpointInvariants:
    def test_manifest_referencing_missing_objects_is_caught(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            CloudCheckpointer, "_upload_object",
            lambda self, source, digest: None,  # torn upload: objects lost
        )
        with sanitized():
            store = FasterKV(str(tmp_path / "kv"), ssd=SSDModel(SimClock()))
            store.put(1, b"payload")
            uploader = CloudCheckpointer(store, str(tmp_path / "bucket"))
            with pytest.raises(SanitizerError) as err:
                uploader.checkpoint()
            assert "missing object" in str(err.value)
            assert "ckpt.checkpoint" in str(err.value)

    def test_intact_checkpoint_passes(self, tmp_path):
        with sanitized():
            store = FasterKV(str(tmp_path / "kv"), ssd=SSDModel(SimClock()))
            store.put(1, b"payload")
            uploader = CloudCheckpointer(store, str(tmp_path / "bucket"))
            assert uploader.checkpoint() == 1
