"""Replica groups against a dict: a model-based state machine.

One ``hypothesis`` ``RuleBasedStateMachine`` drives a replica group —
bare RF-2 and RF-3 groups of FASTER and of MLKV (at ASP), and a 2-shard
router of RF-2 groups, one of FASTER and one of MLKV — through the
store's verbs (``put``, ``delete``, ``multi_put``, ``put_rows``,
``get``, ``multi_get``, ``snapshot_read_many``, ``get_rows``,
``lookahead``) interleaved with a group's faults and lifecycle (``fail``,
``revive``, ``slow``, checkpoint → restore), and checks it against a
dict after every step:

* every read equals the dict;
* ``fail`` raises :class:`~repro.errors.StorageError` exactly when no
  other live replica would remain;
* every live replica owes no hints and holds every record of the dict
  itself, read directly, not through the group's routing;
* ``len`` and ``scan`` are exact.

Budgets are 4 KiB of log memory in 1 KiB pages, so records cross the
memory/disk line mid-batch, and values are 8 or 16 bytes wide, so a
batch often mixes widths.  Runs are derandomized: the same examples
every run.

Shrinking is off.  Every shrink attempt replays the machine over real
engine files, so on a mutant that fails all five compositions (a revive
that acks without replaying) the file took 5 min 9 s with hypothesis's
default shrink and 4.8 s without it (2-vCPU host).  A failure is
printed as its unshrunk run of at most 40 steps; add ``Phase.shrink``
to the phases locally to minimise it, and commit the minimal run as a
plain test below the machine.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.errors import StorageError
from repro.kv import ReplicaGroup, ShardedKVStore
from repro.kv.faster import FasterKV

BUDGET = 1 << 12
PAGE = 1 << 10
WIDTHS = (8, 16)
KEYS = st.integers(0, 47)
KEY_LISTS = st.lists(KEYS, min_size=1, max_size=12)
TAGS = st.integers(0, 255)


def value_of(width: int, tag: int) -> bytes:
    """A ``width``-byte value that differs from its neighbours' tags."""
    return bytes((tag + i) % 256 for i in range(width))


class GroupMachine(RuleBasedStateMachine):
    """One composition; subclasses set the engines and the shape."""

    #: Engine class of each group's replicas, one entry per group.
    ENGINES: tuple = (FasterKV,)
    REPLICATION = 2
    #: A bare group when ``False``; a router of ``len(ENGINES)`` groups otherwise.
    ROUTER = False

    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="group-model-")
        self.model: dict[int, bytes] = {}
        self.store = self._build(SSDModel(SimClock()))

    def _group(self, shard: int, ssd: SSDModel) -> ReplicaGroup:
        directory = os.path.join(self.root, f"g{shard}")
        return ReplicaGroup(
            [
                self.ENGINES[shard](
                    os.path.join(directory, f"r{replica}"),
                    ssd=ssd, memory_budget_bytes=BUDGET, page_bytes=PAGE,
                )
                for replica in range(self.REPLICATION)
            ],
            directory=directory,
        )

    def _build(self, ssd: SSDModel):
        if not self.ROUTER:
            return self._group(0, ssd)
        return ShardedKVStore(
            lambda shard: self._group(shard, ssd), len(self.ENGINES), directory=self.root
        )

    @property
    def groups(self) -> list:
        return list(self.store.shards) if self.ROUTER else [self.store]

    def _group_of(self, shard: int) -> ReplicaGroup:
        return self.groups[shard % len(self.groups)]

    def _owned(self, index: int) -> list[int]:
        """The model's keys group ``index`` holds, ascending."""
        if not self.ROUTER:
            return sorted(self.model)
        return sorted(key for key in self.model if self.store.shard_of(key) == index)

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    @rule(key=KEYS, width=st.sampled_from(WIDTHS), tag=TAGS)
    def put(self, key, width, tag):
        self.store.put(key, value_of(width, tag))
        self.model[key] = value_of(width, tag)

    @rule(key=KEYS)
    def delete(self, key):
        assert self.store.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(keys=KEY_LISTS, widths=st.lists(st.sampled_from(WIDTHS), min_size=12, max_size=12),
          tag=TAGS)
    def multi_put(self, keys, widths, tag):
        values = [value_of(widths[i], tag + i) for i in range(len(keys))]
        self.store.multi_put(keys, values)
        self.model.update(zip(keys, values))

    @rule(keys=KEY_LISTS, width=st.sampled_from(WIDTHS), tag=TAGS)
    def put_rows(self, keys, width, tag):
        rows = np.array([list(value_of(width, tag + i)) for i in range(len(keys))],
                        dtype=np.uint8)
        self.store.put_rows(np.array(keys, dtype=np.int64), rows)
        self.model.update((key, bytes(row)) for key, row in zip(keys, rows))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @rule(key=KEYS)
    def get(self, key):
        assert self.store.get(key) == self.model.get(key)

    @rule(keys=KEY_LISTS)
    def multi_get(self, keys):
        assert self.store.multi_get(keys) == [self.model.get(key) for key in keys]

    @rule(keys=KEY_LISTS)
    def snapshot_read_many(self, keys):
        assert self.store.snapshot_read_many(keys) == [self.model.get(key) for key in keys]

    @rule(keys=KEY_LISTS, width=st.sampled_from(WIDTHS))
    def get_rows(self, keys, width):
        out = np.zeros((len(keys), width), dtype=np.uint8)
        present = [self.model.get(key) for key in keys]
        if any(value is not None and len(value) != width for value in present):
            with pytest.raises(ValueError):
                self.store.get_rows(np.array(keys, dtype=np.int64), out)
            return
        found = self.store.get_rows(np.array(keys, dtype=np.int64), out)
        assert found.tolist() == [value is not None for value in present]
        for row, value in zip(out, present):
            assert bytes(row) == (bytes(width) if value is None else value)

    @rule(keys=KEY_LISTS)
    def lookahead(self, keys):
        assert self.store.lookahead(np.array(keys, dtype=np.int64)) >= 0

    # ------------------------------------------------------------------
    # faults and lifecycle
    # ------------------------------------------------------------------
    @rule(shard=st.integers(0, 1), replica=st.integers(0, 2))
    def fail(self, shard, replica):
        group = self._group_of(shard)
        replica %= group.replication
        others = [index for index in group.live_indices() if index != replica]
        if group.alive[replica] and not others:
            with pytest.raises(StorageError):
                group.fail(replica)
            assert group.alive[replica]
        else:
            group.fail(replica)
            assert not group.alive[replica]

    @rule(shard=st.integers(0, 1), replica=st.integers(0, 2))
    def revive(self, shard, replica):
        group = self._group_of(shard)
        replica %= group.replication
        group.revive(replica)
        assert group.alive[replica]

    @rule(shard=st.integers(0, 1), replica=st.integers(0, 2),
          penalty=st.sampled_from((0.0, 1e-4)))
    def slow(self, shard, replica, penalty):
        group = self._group_of(shard)
        group.slow(replica % group.replication, penalty)

    @rule()
    def checkpoint_and_restore(self):
        states = [
            (list(group.alive), [group.hints_outstanding(index)
                                 for index in range(group.replication)])
            for group in self.groups
        ]
        self.store.checkpoint()
        self.store.close()
        opener = ShardedKVStore if self.ROUTER else ReplicaGroup
        directory = self.root if self.ROUTER else os.path.join(self.root, "g0")
        self.store = opener.restore(
            directory, ssd=SSDModel(SimClock()), memory_budget_bytes=BUDGET
        )
        assert [
            (list(group.alive), [group.hints_outstanding(index)
                                 for index in range(group.replication)])
            for group in self.groups
        ] == states

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def every_live_replica_is_current(self):
        for index, group in enumerate(self.groups):
            owned = self._owned(index)
            expected = [self.model[key] for key in owned]
            for replica in group.live_indices():
                assert group.hints_outstanding(replica) == 0
                assert group.replicas[replica].snapshot_read_many(owned) == expected

    @invariant()
    def len_and_scan_are_exact(self):
        assert len(self.store) == len(self.model)
        assert dict(self.store.scan()) == self.model


def machine(name: str, engines: tuple, replication: int, router: bool = False):
    """A ``unittest`` case running :class:`GroupMachine` on one composition."""
    composition = type(name, (GroupMachine,), {
        "ENGINES": engines, "REPLICATION": replication, "ROUTER": router,
    })
    case = composition.TestCase
    case.settings = settings(
        max_examples=25, stateful_step_count=40, derandomize=True,
        database=None, deadline=None, phases=(Phase.explicit, Phase.generate),
    )
    return case


TestFasterRF2 = machine("FasterRF2", (FasterKV,), 2)
TestFasterRF3 = machine("FasterRF3", (FasterKV,), 3)
TestMlkvRF2 = machine("MlkvRF2", (MLKV,), 2)
TestMlkvRF3 = machine("MlkvRF3", (MLKV,), 3)
TestRouterOfRF2Groups = machine("RouterOfRF2Groups", (FasterKV, MLKV), 2, router=True)
