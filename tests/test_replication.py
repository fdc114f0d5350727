"""Replica groups under the shard router + live shard migration: the
availability layer.

Covers write fan-out and read routing, failover with hinted replay on
revive (and the hint-overflow full resync), look-ahead staging, and the split copy-then-cutover property —
the latter against all four engines under a live interleaved write
load.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.errors import CheckpointError, ConfigError, StorageError
from repro.errors import load_checkpoint_json, write_checkpoint_json
from repro.kv import ReplicaGroup, ShardedKVStore
from repro.kv.btree import BTreeKV
from repro.kv.common.serialization import frame_vectors, framed_width
from repro.kv.faster import FasterKV
from repro.kv.lsm import LsmKV

ENGINES = ("faster", "mlkv", "lsm", "btree")


def make_engine(kind: str, directory: str, ssd=None, memory_budget_bytes: int = 1 << 18):
    ssd = ssd or SSDModel(SimClock())
    cls = {"faster": FasterKV, "mlkv": MLKV, "lsm": LsmKV, "btree": BTreeKV}[kind]
    return cls(directory, ssd=ssd, memory_budget_bytes=memory_budget_bytes)


def replicated_store(make, num_shards, replication=2, base=None, **settings):
    """A router of ``num_shards`` replica groups over ``make(shard,
    replica)`` engines; with ``base``, each group owns ``base/g{shard}``
    and the router ``base``, so the whole store checkpoints."""

    def group(shard):
        directory = None if base is None else str(base / f"g{shard}")
        replicas = [make(shard, replica) for replica in range(replication)]
        return ReplicaGroup(replicas, directory=directory, **settings)

    return ShardedKVStore(group, num_shards, directory=None if base is None else str(base))


@pytest.fixture
def replicated(tmp_path, ssd):
    store = replicated_store(
        lambda shard, replica: FasterKV(str(tmp_path / f"s{shard}r{replica}"), ssd=ssd),
        num_shards=2,
    )
    yield store
    store.close()


class TestHintLedger:
    """A group's state is its liveness plus one hint set per replica:
    the keys a dead replica missed, or ``None`` once the set overflowed."""

    @pytest.fixture
    def pair(self, tmp_path, ssd):
        group = ReplicaGroup(
            [FasterKV(str(tmp_path / f"h{replica}"), ssd=ssd) for replica in range(2)],
            max_hints=3,
        )
        yield group
        group.close()

    def test_hints_name_each_missed_key_once(self, pair):
        pair.fail(1)
        for round_ in range(3):  # three writes of one key owe one replay
            pair.put(7, f"v{round_}".encode())
        pair.put(8, b"x")
        assert pair.hints_outstanding(1) == 2
        assert pair.revive(1) == 2
        assert pair.replicas[1].get(7) == b"v2"
        assert pair.replicas[1].get(8) == b"x"

    def test_every_write_kind_hints_a_dead_replica_and_no_live_one(self, pair):
        pair.put(1, b"a")
        pair.fail(0)
        pair.put(2, b"b")
        pair.delete(1)
        pair.multi_put([2, 3], [b"c", b"d"])
        assert pair.hints_outstanding(1) == 0  # live: it applied each write
        assert pair.hints_outstanding(0) == 3  # dead: keys 1, 2 and 3
        assert pair.revive(0) == 3
        assert [pair.replicas[0].get(key) for key in (1, 2, 3)] == [None, b"c", b"d"]

    def test_hints_overflow_past_max_hints_and_stay_overflowed(self, pair):
        pair.fail(1)
        pair.multi_put([1, 2, 3], [b"v"] * 3)
        assert pair.hints_outstanding(1) == 3  # at the bound: still a set
        pair.put(4, b"v")
        assert pair.hints_outstanding(1) == -1
        pair.put(1, b"w")  # an overflowed set stays overflowed
        assert pair.hints_outstanding(1) == -1
        pair.revive(1)
        assert pair.resyncs == 1 and pair.hints_outstanding(1) == 0
        assert pair.replicas[1].get(1) == b"w"

    def test_a_revive_owing_nothing_needs_no_donor(self, pair, monkeypatch):
        pair.put(1, b"a")
        pair.fail(1)

        def no_donor(exclude):
            raise AssertionError("a replica owing no hints needs no donor")

        monkeypatch.setattr(pair, "_complete_peer", no_donor)
        assert pair.revive(1) == 0
        assert pair.alive == [True, True] and pair.catchup_keys == 0

    def test_a_revive_starts_a_fresh_ledger(self, pair):
        pair.fail(1)
        pair.put(1, b"a")
        assert pair.revive(1) == 1
        pair.fail(1)  # fail twice: the second is a no-op
        pair.fail(1)
        pair.put(2, b"b")
        assert pair.hints_outstanding(1) == 1  # only the second outage's key
        assert pair.revive(1) == 1
        assert pair.revive(1) == 0  # reviving a live replica replays nothing
        assert pair.catchup_keys == 2


class TestFanOutAndRouting:
    def test_writes_reach_every_replica(self, replicated):
        keys = list(range(100))
        replicated.multi_put(keys, [f"v{key}".encode() for key in keys])
        for shard, group in enumerate(replicated.shards):
            for replica in group.replicas:
                for key in keys:
                    if replicated.shard_of(key) == shard:
                        assert replica.get(key) == f"v{key}".encode()

    def test_reads_preserve_order_and_duplicates(self, replicated):
        replicated.multi_put([3, 7, 11], [b"three", b"seven", b"eleven"])
        assert replicated.multi_get([7, 3, 7, 999, 11]) == [
            b"seven", b"three", b"seven", None, b"eleven",
        ]

    def test_reads_round_robin_across_replicas(self, replicated):
        replicated.put(1, b"x")
        group = replicated.shards[replicated.shard_of(1)]
        seen = {group.pick_reader() for _ in range(4)}
        assert seen == {0, 1}

    def test_delete_fans_out(self, replicated):
        replicated.put(5, b"x")
        assert replicated.delete(5) is True
        for group in replicated.shards:
            for replica in group.replicas:
                assert replica.get(5) is None

    def test_invalid_config_rejected(self, tmp_path, ssd):
        factory = lambda s, r: FasterKV(str(tmp_path / f"x{s}{r}"), ssd=ssd)
        with pytest.raises(ConfigError):
            replicated_store(factory, num_shards=0)
        with pytest.raises(ConfigError):
            replicated_store(factory, num_shards=1, replication=0)
        group = replicated_store(factory, num_shards=1).shards[0]
        with pytest.raises(ConfigError):
            group.slow(0, -1e-6)
        group.slow(0, 0.0)
        group.close()


class TestFailoverAndCatchUp:
    def test_killed_replica_is_routed_around(self, replicated):
        keys = list(range(50))
        replicated.multi_put(keys, [b"v"] * 50)
        replicated.shards[0].fail(0)
        assert replicated.multi_get(keys) == [b"v"] * 50
        group = replicated.shards[0]
        assert group.failovers > 0

    def test_cannot_kill_last_replica(self, replicated):
        replicated.shards[0].fail(0)
        with pytest.raises(StorageError):
            replicated.shards[0].fail(1)

    def test_hinted_catch_up_replays_missed_writes(self, replicated):
        keys = list(range(60))
        replicated.multi_put(keys, [b"old"] * 60)
        replicated.shards[0].fail(0)
        replicated.multi_put(keys, [b"new"] * 60)
        replicated.delete(keys[0])
        dead = replicated.shards[0].replicas[0]
        shard0_keys = [key for key in keys if replicated.shard_of(key) == 0]
        assert any(dead.get(key) == b"old" for key in shard0_keys)
        assert replicated.shards[0].hints_outstanding(0) == len(shard0_keys)
        replicated.shards[0].revive(0)
        assert replicated.shards[0].hints_outstanding(0) == 0
        for key in shard0_keys:
            expected = None if key == keys[0] else b"new"
            assert dead.get(key) == expected

    def test_a_revived_replica_serves_current_reads(self, replicated):
        keys = [key for key in range(200) if replicated.shard_of(key) == 0][:20]
        group = replicated.shards[0]
        replicated.multi_put(keys, [b"old"] * len(keys))
        group.fail(0)
        replicated.multi_put(keys, [b"new"] * len(keys))
        assert group.hints_outstanding(0) == len(keys)
        assert group.revive(0) == len(keys)
        assert group.hints_outstanding(0) == 0 and group.alive == [True, True]
        assert {group.pick_reader() for _ in range(4)} == {0, 1}
        for _ in range(4):
            assert replicated.get(keys[0]) == b"new"
        assert group.replicas[0].get(keys[0]) == b"new"
        # A live replica applies every new write: it never owes a hint.
        fresh = [key for key in range(200, 400) if replicated.shard_of(key) == 0][:5]
        replicated.multi_put(fresh, [b"post"] * len(fresh))
        assert group.hints_outstanding(0) == group.hints_outstanding(1) == 0

    def test_cannot_fail_the_only_caught_up_replica(self, replicated):
        """The group must always keep one live replica: it is the only
        copy holding every acknowledged write, so losing it would leave
        no donor for a revive."""
        replicated.put(1, b"x")
        shard = replicated.shard_of(1)
        replicated.shards[shard].fail(0)
        replicated.put(1, b"y")
        with pytest.raises(StorageError):
            replicated.shards[shard].fail(1)  # the only complete copy
        # Once the dead replica is revived, the same kill is legal.
        replicated.shards[shard].revive(0)
        replicated.shards[shard].fail(1)
        assert replicated.get(1) == b"y"

    def test_disjoint_gaps_cannot_lose_acknowledged_writes(self, replicated):
        """Regression: fail 0 → write v1 → revive → fail 1 → write v2
        must leave both replicas holding v2: each revive replays its own
        gap from the complete replica, so v1 never lands over v2."""
        key = 42
        group = replicated.shards[replicated.shard_of(key)]
        group.fail(0)
        replicated.put(key, b"v1")
        group.revive(0)
        group.fail(1)
        replicated.put(key, b"v2")
        group.revive(1)
        for group_replica in group.replicas:
            assert group_replica.get(key) == b"v2"
        assert group.hints_outstanding(0) == group.hints_outstanding(1) == 0

    def test_hint_overflow_triggers_full_resync(self, tmp_path, ssd):
        store = replicated_store(
            lambda shard, replica: FasterKV(
                str(tmp_path / f"o{shard}r{replica}"), ssd=ssd
            ),
            num_shards=1,
            replication=2,
            max_hints=10,
        )
        keys = list(range(100))
        store.multi_put(keys, [b"seed"] * 100)
        store.shards[0].fail(0)
        store.multi_put(keys, [b"fresh"] * 100)  # >> max_hints
        store.delete(99)
        group = store.shards[0]
        assert group.hints_outstanding(0) == -1  # overflowed
        store.shards[0].revive(0)
        assert group.resyncs == 1
        dead = group.replicas[0]
        assert all(dead.get(key) == b"fresh" for key in keys[:99])
        assert dead.get(99) is None  # resync drops deleted records
        store.close()


class TestRoutedReads:
    """Every read of a group goes through ``pick_reader``: one live
    replica, and every live replica is current."""

    @pytest.fixture
    def trio(self, tmp_path, ssd):
        store = replicated_store(
            lambda shard, replica: FasterKV(
                str(tmp_path / f"q{shard}r{replica}"), ssd=ssd
            ),
            num_shards=1,
            replication=3,
        )
        yield store
        store.close()

    def test_routed_reads_survive_minority_failure(self, trio):
        trio.multi_put([1, 2, 3], [b"a", b"b", b"c"])
        trio.shards[0].fail(0)
        for _ in range(3):  # the cursor visits both survivors
            assert trio.multi_get([1, 2, 3]) == [b"a", b"b", b"c"]
            assert trio.get(2) == b"b"
            assert trio.snapshot_read(3) == b"c"

    def test_a_revived_replica_rejoins_the_read_route(self, trio):
        trio.put(1, b"v1")
        group = trio.shards[0]
        group.fail(2)
        trio.put(1, b"v2")
        for _ in range(3):
            assert group.pick_reader() != 2
        group.revive(2)  # replays v2 before it serves
        assert group.hints_outstanding(2) == 0
        assert 2 in {group.pick_reader() for _ in range(3)}
        for _ in range(6):
            assert trio.get(1) == b"v2"
            assert trio.multi_get([1]) == [b"v2"]

    def test_short_group_reads_count_as_failovers(self, trio):
        trio.put(1, b"x")
        trio.get(1)
        assert trio.shards[0].failovers == 0
        trio.shards[0].fail(0)
        trio.get(1)
        assert trio.shards[0].failovers == 1

    def test_last_caught_up_replica_cannot_fail(self, trio):
        group = trio.shards[0]
        group.fail(2)
        trio.put(1, b"x")
        group.fail(0)
        with pytest.raises(StorageError):
            group.fail(1)  # no dead replica could repair the group
        assert group.alive == [False, True, False]
        assert trio.get(1) == b"x"
        group.revive(2)
        group.fail(1)
        assert trio.get(1) == b"x"


class TestServingSurface:
    def test_shared_clock_and_ssd_exposed(self, tmp_path, ssd):
        store = replicated_store(
            lambda shard, replica: FasterKV(
                str(tmp_path / f"c{shard}r{replica}"), ssd=ssd
            ),
            num_shards=2,
            replication=2,
        )
        assert store.clock is ssd.clock
        assert store.ssd is ssd
        store.close()

    def test_scan_yields_each_record_once(self, replicated):
        keys = list(range(80))
        replicated.multi_put(keys, [f"v{key}".encode() for key in keys])
        scanned = dict(replicated.scan())
        assert scanned == {key: f"v{key}".encode() for key in keys}
        assert len(replicated) == 80

    def test_stats_track_replication_health(self, replicated):
        replicated.multi_put(list(range(40)), [b"v"] * 40)
        replicated.shards[0].fail(1)
        replicated.multi_put(list(range(40)), [b"w"] * 40)
        replicated.multi_get(list(range(40)))
        stats = replicated.stats
        assert stats.extra["shard_ops"][0] > 0
        # One shape: the router joins the groups' vectors and sums their
        # counters under the keys one group reports them with.
        groups = [group.stats.extra for group in replicated.shards]
        assert set(groups[0]) <= set(stats.extra)
        for name in ("hints_outstanding", "slow_penalties"):
            assert stats.extra[name] == groups[0][name] + groups[1][name]
        for name in ("failovers", "catchup_keys"):
            assert stats.extra[name] == groups[0][name] + groups[1][name]
        assert stats.extra["hints_outstanding"][1] > 0  # shard 0, replica 1
        assert stats.extra["failovers"] == replicated.shards[0].failovers > 0
        assert stats.extra["shards"][0]["hints_outstanding"] == groups[0]["hints_outstanding"]

    def test_freeze_propagates(self, replicated):
        replicated.put(1, b"x")
        replicated.freeze()
        with pytest.raises(StorageError):
            replicated.put(2, b"y")
        assert replicated.get(1) == b"x"

    def test_staleness_bound_exposed_for_mlkv_children(self, tmp_path, ssd):
        store = replicated_store(
            lambda shard, replica: MLKV(
                str(tmp_path / f"m{shard}r{replica}"), ssd=ssd, staleness_bound=4
            ),
            num_shards=1,
            replication=2,
        )
        assert store.staleness_bound == 4
        store.close()

    def test_slow_replica_is_avoided(self, replicated):
        replicated.put(1, b"x")
        shard = replicated.shard_of(1)
        replicated.shards[shard].slow(0, 5e-3)
        group = replicated.shards[shard]
        for _ in range(4):
            assert group.pick_reader() == 1
        assert group.failovers > 0
        # Both slowed: least penalty wins and the charge hits the clock.
        replicated.shards[shard].slow(1, 10e-3)
        before = replicated.clock.now
        assert replicated.get(1) == b"x"
        assert replicated.clock.now - before >= 5e-3


class TestGroupLookahead:
    """A prefetch batch is staged on every live replica, so whichever
    replica the next read routes to finds it in memory."""

    DIM = 16

    def _group(self, tmp_path, ssd):
        group = ReplicaGroup([
            MLKV(str(tmp_path / f"la{replica}"), ssd=ssd,
                 memory_budget_bytes=64 << 10, page_bytes=4 << 10)
            for replica in range(2)
        ])
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((4000, self.DIM)).astype(np.float32)
        group.put_rows(np.arange(4000, dtype=np.int64), frame_vectors(rows))
        return group, rng

    def test_staged_batches_serve_the_next_reads_from_memory(self, tmp_path, ssd):
        group, rng = self._group(tmp_path, ssd)
        out = np.empty((64, framed_width(self.DIM)), dtype=np.uint8)
        staged_total = 0
        for _ in range(6):
            batch = np.sort(rng.choice(4000, 64, replace=False))
            staged = group.lookahead(batch)
            assert staged > 0  # the batch was mostly on disk
            staged_total += staged
            before = [replica.stats.hits for replica in group.replicas]
            assert group.get_rows(batch, out).all()
            hits = sum(replica.stats.hits for replica in group.replicas) - sum(before)
            assert hits >= 60, hits
        # Each replica staged every batch; the reads alternated replicas.
        assert [replica.mlkv_stats.lookahead_copied for replica in group.replicas] == [
            staged_total, staged_total
        ]
        group.close()

    def test_a_dead_replica_stages_nothing(self, tmp_path, ssd):
        group, rng = self._group(tmp_path, ssd)
        group.fail(0)
        staged = group.lookahead(np.sort(rng.choice(4000, 64, replace=False)))
        assert staged > 0
        assert [replica.mlkv_stats.lookahead_copied for replica in group.replicas] == [0, staged]
        group.close()

    @pytest.mark.parametrize("penalties", [(5e-3, 0.0), (5e-3, 10e-3)])
    def test_a_prefetch_pays_no_penalty_and_counts_no_failover(
        self, tmp_path, ssd, penalties
    ):
        group, rng = self._group(tmp_path, ssd)
        for replica, penalty in enumerate(penalties):
            group.slow(replica, penalty)
        assert group.lookahead(np.sort(rng.choice(4000, 64, replace=False))) > 0
        assert group.failovers == 0
        assert ssd.clock.busy_seconds("chaos") == 0.0
        group.close()


class TestLiveSplit:
    """begin_split: copy-then-cutover, no lost mappings."""

    def _make(self, kind, tmp_path):
        counter = [0]

        def factory(index):
            counter[0] += 1
            return make_engine(kind, str(tmp_path / f"{kind}{counter[0]}-{index}"))
        return factory

    @pytest.mark.parametrize("kind", ENGINES)
    def test_split_under_live_writes_preserves_every_mapping(self, kind, tmp_path):
        factory = self._make(kind, tmp_path)
        store = ShardedKVStore(factory, 2)
        rng = np.random.default_rng(5)
        expected = {}
        keys = list(range(600))
        for key in keys:
            expected[key] = f"v{key}".encode()
        store.multi_put(keys, [expected[key] for key in keys])

        migration = store.begin_split(0, factory)
        step = 0
        while migration.copy_step(64):
            # Interleave puts, overwrites and deletes with the copy.
            write_keys = rng.integers(0, 700, size=16).tolist()
            values = [f"w{key}.{step}".encode() for key in write_keys]
            store.multi_put(write_keys, values)
            for key, value in zip(write_keys, values):
                expected[key] = value
            victim = int(rng.integers(0, 700))
            store.delete(victim)
            expected.pop(victim, None)
            step += 1
        new_index = migration.cutover()

        assert new_index == 2 and len(store.shards) == 3
        all_keys = sorted(set(range(700)))
        got = store.multi_get(all_keys)
        for key, value in zip(all_keys, got):
            assert value == expected.get(key), (kind, key)
        # Each key is held by exactly its owning engine.
        for key in list(expected)[::37]:
            holders = [
                index for index, child in enumerate(store.shards)
                if child.get(key) is not None
            ]
            assert holders == [store.shard_of(key)]
        store.close()

    def test_deferred_cleanup_is_invisible_and_drains_in_batches(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        keys = list(range(600))
        store.multi_put(keys, [f"v{key}".encode() for key in keys])
        before = len(store)

        migration = store.begin_split(0, factory)
        while migration.copy_step(128):
            pass
        migration.cutover(defer_cleanup=True)

        # Source-side deletes are queued, not executed — yet the moved
        # keys are already invisible on the old engine's surface.
        pending = store.cleanup_pending()
        assert pending > 0
        assert len(store) == before
        assert sorted(key for key, _ in store.scan()) == keys
        assert store.multi_get(keys) == [f"v{key}".encode() for key in keys]

        # Each step deletes at most the batch and reports the remainder.
        assert store.cleanup_step(100) == pending - 100
        while store.cleanup_pending():
            store.cleanup_step(100)
        assert len(store) == before
        moved = [key for key in keys if store.shard_of(key) == 2]
        assert all(store.shards[0].get(key) is None for key in moved)
        store.close()

    def test_new_migration_drains_deferred_cleanup_first(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        keys = list(range(300))
        store.multi_put(keys, [b"v"] * 300)
        migration = store.begin_split(0, factory)
        while migration.copy_step(128):
            pass
        migration.cutover(defer_cleanup=True)
        assert store.cleanup_pending() > 0
        # A fresh migration snapshots raw engine scans, so beginning one
        # finishes the queued deletes synchronously first.
        follow_up = store.begin_split(1, factory)
        assert store.cleanup_pending() == 0
        follow_up.abort()
        store.close()

    def test_split_moves_only_the_split_slot(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        keys = list(range(400))
        store.multi_put(keys, [b"v"] * 400)
        owners_before = {key: store.shard_of(key) for key in keys}
        store.begin_split(0, factory).cutover()
        moved = [key for key in keys if store.shard_of(key) != owners_before[key]]
        assert moved, "a split must move some keys"
        # Only keys previously owned by engine 0 may move, all to engine 2.
        for key in moved:
            assert owners_before[key] == 0
            assert store.shard_of(key) == 2
        store.close()

    def test_repeated_splits_rescale_n_to_m(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        keys = list(range(500))
        store.multi_put(keys, [f"k{key}".encode() for key in keys])
        for source in (0, 1, 2):
            store.begin_split(source, factory).cutover()
        assert len(store.shards) == 5
        assert store.multi_get(keys) == [f"k{key}".encode() for key in keys]
        assert len(store) == 500
        store.close()

    def test_split_carries_a_write_made_before_the_copy(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        keys = list(range(300))
        store.multi_put(keys, [b"m"] * 300)
        old_engine = store.shards[1]
        migration = store.begin_split(1, factory)
        moving = next(key for key in keys if store.slot_of(key) == migration.moving_slot)
        store.put(moving, b"live")  # dual-logged before any copy step
        assert migration.cutover() == 2
        assert store.shards[1] is old_engine and len(store.shards) == 3
        assert store.shard_of(moving) == 2 and store.shards[2].get(moving) == b"live"
        expected = [b"live" if key == moving else b"m" for key in keys]
        assert store.multi_get(keys) == expected
        store.close()

    def test_concurrent_migrations_rejected(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        store.begin_split(0, factory)
        with pytest.raises(ConfigError):
            store.begin_split(1, factory)
        with pytest.raises(ConfigError):
            store.begin_split(0, factory)
        store.close()

    def test_abort_unblocks_the_store_and_keeps_it_intact(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        keys = list(range(200))
        store.multi_put(keys, [b"a"] * 200)
        migration = store.begin_split(0, factory)
        migration.copy_step(32)  # half-done
        store.put(keys[0], b"live")  # dual-logged delta
        migration.abort()
        # The source never lost ownership: all data intact, and a new
        # migration can start (the in-flight slot is cleared).
        expected = [b"live" if key == keys[0] else b"a" for key in keys]
        assert store.multi_get(keys) == expected
        with pytest.raises(ConfigError):
            migration.cutover()
        second = store.begin_split(0, factory)
        assert second.cutover() == 2
        assert store.multi_get(keys) == expected
        store.close()

    def test_cutover_is_terminal(self, tmp_path):
        factory = self._make("faster", tmp_path)
        store = ShardedKVStore(factory, 2)
        store.multi_put(list(range(50)), [b"x"] * 50)
        migration = store.begin_split(0, factory)
        migration.cutover()
        with pytest.raises(ConfigError):
            migration.cutover()
        with pytest.raises(ConfigError):
            migration.copy_step()
        store.close()

    def test_split_slot_table_survives_checkpoint_restore(self, tmp_path):
        base = tmp_path / "ckpt"
        base.mkdir()

        def factory(index):
            return make_engine("faster", str(base / f"shard{index}"))

        store = ShardedKVStore(factory, 2, directory=str(base))
        keys = list(range(200))
        store.multi_put(keys, [f"s{key}".encode() for key in keys])
        store.begin_split(0, factory).cutover()
        slots = list(store._slots)
        store.checkpoint()
        store.close()

        restored = ShardedKVStore.restore(str(base))
        assert restored._slots == slots
        assert restored.multi_get(keys) == [f"s{key}".encode() for key in keys]
        restored.close()

    def test_a_group_splits_around_a_dead_replica(self, tmp_path, ssd):
        """A split on a router of groups: the copy reads from the source
        group's fully caught-up replica while one is dead and a writer
        keeps going, and the new group owns the moved slot after."""
        built = []

        def factory(shard):
            built.append(shard)
            return ReplicaGroup([
                FasterKV(str(tmp_path / f"m{len(built)}s{shard}r{replica}"), ssd=ssd)
                for replica in range(2)
            ])

        store = ShardedKVStore(factory, 2)
        keys = list(range(300))
        expected = {key: f"m{key}".encode() for key in keys}
        store.multi_put(keys, list(expected.values()))
        old_group = store.shards[1]
        old_group.fail(0)
        migration = store.begin_split(1, factory)
        step = 0
        while migration.copy_step(32):
            moving = [key for key in keys if store.slot_of(key) == migration.moving_slot]
            moving = moving[step::17][:3]
            store.multi_put(moving, [b"live%d" % step] * len(moving))
            expected.update((key, b"live%d" % step) for key in moving)
            step += 1
        assert migration.cutover() == 2 and step > 1
        new_group = store.shards[2]
        assert store.shards[1] is old_group and isinstance(new_group, ReplicaGroup)
        assert new_group.alive == [True, True] and store.num_shards == 3
        assert old_group.alive == [False, True] and old_group.hints_outstanding(0) > 0
        assert store.multi_get(keys) == [expected[key] for key in keys]
        moved = [key for key in keys if store.shard_of(key) == 2]
        assert moved
        for replica in new_group.replicas:  # both copies received the move
            for key in moved:
                assert replica.get(key) == expected[key]
        store.close()

    def test_replicated_store_of_split_capable_groups(self, tmp_path, ssd):
        """Replication composes over sharded children: each 'replica' can
        itself be a sharded store, and fan-out still preserves data."""
        def factory(shard, replica):
            return ShardedKVStore(
                lambda index: FasterKV(
                    str(tmp_path / f"n{shard}r{replica}e{index}"), ssd=ssd
                ),
                num_shards=2,
            )

        store = replicated_store(factory, num_shards=1, replication=2)
        keys = list(range(120))
        store.multi_put(keys, [b"deep"] * 120)
        store.shards[0].fail(0)
        assert store.multi_get(keys) == [b"deep"] * 120
        store.shards[0].revive(0)
        assert store.shards[0].hints_outstanding(0) == 0
        store.close()


class TestCoordinatedCheckpoint:
    """Checkpoint/restore of a router of groups: the router's manifest
    binds one image per group, and each group's own manifest binds its
    replica images plus the group state a restore cannot rediscover."""

    def _build(self, base, ssd):
        return replicated_store(
            lambda shard, replica: FasterKV(str(base / f"g{shard}" / f"r{replica}"), ssd=ssd),
            num_shards=2,
            base=base,
        )

    def test_round_trip_preserves_data_and_group_state(self, tmp_path, ssd):
        store = self._build(tmp_path, ssd)
        keys = list(range(80))
        store.multi_put(keys, [bytes([k % 251]) * 6 for k in keys])
        store.shards[0].fail(1)
        store.put(1000, b"hinted")  # queues a hint against the dead replica
        store.checkpoint()
        assert (tmp_path / "sharded.manifest.json").exists()
        assert (tmp_path / "g0" / "group.manifest.json").exists()
        store.close()

        restored = ShardedKVStore.restore(str(tmp_path), ssd=SSDModel(SimClock()))
        assert restored.num_shards == 2
        assert [type(group) for group in restored.shards] == [ReplicaGroup, ReplicaGroup]
        assert [len(group.replicas) for group in restored.shards] == [2, 2]
        assert restored.directory == str(tmp_path)
        for k in keys:
            assert restored.get(k) == bytes([k % 251]) * 6
        assert restored.get(1000) == b"hinted"
        # Liveness and hint queues survived: the dead replica is still
        # dead, still owes the hinted key, and replays it on revive.
        group = restored.shards[0]
        assert group.alive == [True, False]
        assert group.hints_outstanding(1) == 1
        assert group.revive(1) == 1
        assert group.hints_outstanding(1) == 0
        restored.close()

    def test_an_image_naming_a_read_policy_still_restores(self, tmp_path, ssd):
        """Group manifests written before reads had one route carry
        ``"read_policy": "one"``; restore ignores the key."""
        store = self._build(tmp_path, ssd)
        store.multi_put(list(range(30)), [b"v"] * 30)
        store.shards[1].fail(0)
        store.multi_put(list(range(30)), [b"w"] * 30)  # hinted on shard 1
        store.checkpoint()
        groups = [
            (list(group.alive), group.hints_outstanding(0), group.hints_outstanding(1))
            for group in store.shards
        ]
        store.close()
        for shard in range(2):
            path = str(tmp_path / f"g{shard}" / "group.manifest.json")
            manifest = load_checkpoint_json(path)
            assert "read_policy" not in manifest
            manifest["read_policy"] = "one"
            write_checkpoint_json(path, manifest)

        restored = ShardedKVStore.restore(str(tmp_path), ssd=SSDModel(SimClock()))
        assert [
            (group.alive, group.hints_outstanding(0), group.hints_outstanding(1))
            for group in restored.shards
        ] == groups
        assert groups[1][0] == [False, True] and groups[1][1] > 0
        assert restored.multi_get(list(range(30))) == [b"w"] * 30
        restored.close()

    def test_an_older_image_with_a_bound_and_a_lagging_live_replica_restores(
        self, tmp_path, ssd
    ):
        """Group manifests written while a group had a divergence bound
        record it and version clocks, and may record a live replica that
        still owes hints (revived without replaying them).  Restore
        ignores the bound and the clocks, brings the owing replica back
        dead, and the next revive replays its recorded hints."""
        store = self._build(tmp_path, ssd)
        keys = list(range(30))
        store.multi_put(keys, [b"v"] * 30)
        shard0 = [key for key in keys if store.shard_of(key) == 0]
        store.shards[0].fail(0)
        store.multi_put(shard0, [b"w"] * len(shard0))  # replica 0 misses these
        store.checkpoint()
        written = [
            load_checkpoint_json(str(tmp_path / f"g{shard}" / "group.manifest.json"))
            for shard in range(2)
        ]
        store.close()
        moved, other = len(shard0), 30 - len(shard0)
        # The manifests as an image of that time records them, by hand.
        write_checkpoint_json(str(tmp_path / "g0" / "group.manifest.json"), {
            "replicas": written[0]["replicas"],
            "types": written[0]["types"],
            "clocks": {"version": 2 * moved, "applied": [moved, 2 * moved]},
            "alive": [True, True],
            "max_hints": 100000,
            "hints": [shard0, []],
            "divergence_bound": 64,
        })
        write_checkpoint_json(str(tmp_path / "g1" / "group.manifest.json"), {
            "replicas": written[1]["replicas"],
            "types": written[1]["types"],
            "clocks": {"version": other, "applied": [other, other]},
            "alive": [True, True],
            "max_hints": 100000,
            "hints": [[], []],
            "divergence_bound": 64,
        })

        restored = ShardedKVStore.restore(str(tmp_path), ssd=SSDModel(SimClock()))
        lagging, current = restored.shards
        assert current.alive == [True, True] and current.hints_outstanding(0) == 0
        assert lagging.alive == [False, True]
        assert lagging.hints_outstanding(0) == len(shard0)
        for _ in range(4):
            assert restored.multi_get(shard0) == [b"w"] * len(shard0)
        assert lagging.revive(0) == len(shard0)
        assert lagging.hints_outstanding(0) == 0
        assert [lagging.replicas[0].get(key) for key in shard0] == [b"w"] * len(shard0)
        restored.close()

    def test_restore_via_factory_keeps_the_slot_table(self, tmp_path, ssd):
        store = self._build(tmp_path, ssd)
        store.multi_put(list(range(40)), [b"v"] * 40)
        store.begin_split(
            0,
            lambda shard: ReplicaGroup(
                [FasterKV(str(tmp_path / f"g{shard}" / f"r{replica}"), ssd=ssd)
                 for replica in range(2)],
                directory=str(tmp_path / f"g{shard}"),
            ),
        ).cutover()
        store.shards[2].fail(0)
        store.multi_put(list(range(40)), [b"w"] * 40)  # hinted on shard 2
        slots, hinted = list(store._slots), store.shards[2].hints_outstanding(0)
        store.checkpoint()
        store.close()

        opened = []
        fresh = SSDModel(SimClock())

        def factory(shard, directory):
            def replica(index, path):
                opened.append((shard, index))
                return FasterKV.restore(path, ssd=fresh)

            return ReplicaGroup.restore(directory, factory=replica)

        restored = ShardedKVStore.restore(str(tmp_path), factory=factory)
        assert sorted(opened) == [(shard, index) for shard in range(3) for index in range(2)]
        assert restored._slots == slots and hinted > 0
        assert restored.shards[2].alive == [False, True]
        assert restored.shards[2].hints_outstanding(0) == hinted
        assert restored.multi_get(list(range(40))) == [b"w"] * 40
        assert restored.clock is fresh.clock
        restored.close()

    def test_checkpoint_without_directory_skips_manifest(self, tmp_path, ssd):
        store = replicated_store(
            lambda shard, replica: FasterKV(
                str(tmp_path / f"s{shard}r{replica}"), ssd=ssd
            ),
            num_shards=1,
            replication=2,
        )
        store.put(1, b"a")
        store.checkpoint()  # per-replica images only, no manifest
        assert not list(tmp_path.rglob("*.manifest.json"))
        store.close()

    def test_replica_outside_base_is_rejected(self, tmp_path, ssd):
        outside = tmp_path / "elsewhere"
        base = tmp_path / "base"
        base.mkdir()
        store = replicated_store(
            lambda shard, replica: FasterKV(
                str(outside / f"s{shard}r{replica}"), ssd=ssd
            ),
            num_shards=1,
            replication=2,
            base=base,
        )
        store.put(1, b"a")
        with pytest.raises(CheckpointError):
            store.checkpoint()
        store.close()

    def test_cloud_upload_round_trip(self, tmp_path, ssd):
        """The coordinated image uploads/restores through the
        content-addressed CloudCheckpointer like any other engine."""
        from repro.core.checkpoint import CloudCheckpointer

        base = tmp_path / "image"
        base.mkdir()
        store = self._build(base, ssd)
        store.multi_put(list(range(50)), [b"cloud"] * 50)
        uploader = CloudCheckpointer(store, str(tmp_path / "bucket"))
        assert uploader.checkpoint() == 1
        store.close()

        restored = uploader.restore(
            str(tmp_path / "downloaded"), ssd=SSDModel(SimClock())
        )
        assert restored.multi_get(list(range(50))) == [b"cloud"] * 50
        restored.close()
