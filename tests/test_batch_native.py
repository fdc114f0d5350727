"""Batched engine ops ≡ the per-key loop, observed from outside.

``FasterKV``/``MLKV`` serve the plain keys of a batch as array operations
and hand every other key to the per-key methods.  Two stores are fed the
same operation sequence here: one takes the batched paths, the other is
the same class with ``_key_array`` answering ``None`` — "these keys cannot
form an array" — which is the engines' own switch to the per-key loop for
a whole batch.  They must agree on everything a caller or the simulated
clock can see: results and exceptions, ``stats``, ``mlkv_stats``,
``clock.now``, device counters, region boundaries, the stall handler's
call sequence, every key's staleness, the scan, and the bytes of every
checkpoint file.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.device import SimClock, SSDModel
from repro.errors import StalenessViolation
from repro.kv.faster.store import FALLBACK_SHARE, FasterKV

PAGE = 1024
WIDTH = 24  # 44-byte records, 23 to a page
KEYS = 240  # keys 0..KEYS-1 are populated; a few above stay absent

#: In-memory window in pages (with the mutable fraction) per regime.  The
#: populated table is ~11 pages.
BUDGETS = {
    "mutable": (64, 0.9),  # everything updatable in place for a long time
    "read_only": (24, 0.25),  # resident, the older ~40% read-only: RCU appends
    "evict": (6, 1.0),  # over half the table on disk
}


class PerKeyFaster(FasterKV):
    @staticmethod
    def _key_array(keys):
        return None


class PerKeyMLKV(MLKV):
    @staticmethod
    def _key_array(keys):
        return None


def value_for(key: int, salt: int, width: int = WIDTH) -> bytes:
    return bytes([(key * 7 + salt) % 251]) * width


class Pipeline:
    """A trainer's update pipeline in miniature: deferred update batches,
    applied oldest-first by the stall handler (``BaseTrainer._on_stall``)."""

    def __init__(self, store) -> None:
        self.store = store
        self.pending: deque = deque()
        self.calls: list = []

    def on_stall(self, key: int) -> bool:
        self.calls.append((key, len(self.pending)))
        if not self.pending:
            return False
        keys, values = self.pending.popleft()
        self.store.multi_put(keys, values)
        return True


class Side:
    """One store under test plus everything observable about it."""

    def __init__(self, cls, directory, budget, bound, handler):
        pages, mutable_fraction = BUDGETS[budget]
        kwargs = dict(
            ssd=SSDModel(SimClock()),
            memory_budget_bytes=pages * PAGE,
            page_bytes=PAGE,
            mutable_fraction=mutable_fraction,
        )
        if bound is not None:
            kwargs["staleness_bound"] = bound
        self.store = cls(directory, **kwargs)
        self.pipeline = Pipeline(self.store)
        if handler:
            self.store.set_stall_handler(self.pipeline.on_stall)
        self.per_key_calls: Counter = Counter()

    def count_per_key_calls(self) -> None:
        """Start counting trips through the per-key Get/Put methods."""
        for name in ("_get_bounded", "_put_bounded"):
            inner = getattr(self.store, name)

            def counted(*args, _inner=inner, _name=name):
                self.per_key_calls[_name] += 1
                return _inner(*args)

            setattr(self.store, name, counted)

    def apply(self, op):
        kind = op[0]
        try:
            if kind == "get":
                return self.store.multi_get(op[1])
            if kind == "put":
                return self.store.multi_put(op[1], op[2])
            if kind == "defer":
                return self.pipeline.pending.append((op[1], op[2]))
            if kind == "step":  # a training step at pipeline depth 2
                rows = self.store.multi_get(op[1])
                self.pipeline.pending.append((op[1], op[2]))
                if len(self.pipeline.pending) > 2:
                    self.store.multi_put(*self.pipeline.pending.popleft())
                return rows
            if kind == "lookahead":
                return self.store.lookahead(op[1])
            if kind == "snapshot":
                return self.store.snapshot_read_many(op[1])
            if kind == "delete":
                return self.store.delete(op[1])
            raise AssertionError(kind)
        except StalenessViolation as error:
            return ("raised", str(error))

    def observe(self) -> dict:
        store = self.store
        seen = {
            "stats": (store.stats.gets, store.stats.puts, store.stats.deletes,
                      store.stats.hits, store.stats.misses),
            "clock": store.clock.now,
            "ssd": store.ssd.stats(),
            "regions": (store.log.tail_address, store.log.read_only_address,
                        store.log.head_address),
            "handler_calls": list(self.pipeline.calls),
            "pending": len(self.pipeline.pending),
            "entries": len(store),
        }
        if isinstance(store, MLKV):
            seen["mlkv_stats"] = asdict(store.mlkv_stats)
        return seen

    def final(self) -> dict:
        store = self.store
        seen = {}
        if isinstance(store, MLKV):
            seen["staleness"] = [store.staleness_of(key) for key in range(KEYS + 16)]
        seen["scan"] = dict(store.scan())
        store.checkpoint()
        for name in sorted(os.listdir(store.directory)):
            with open(os.path.join(store.directory, name), "rb") as f:
                seen["sha256:" + name] = hashlib.sha256(f.read()).hexdigest()
        seen.update(self.observe())
        return seen


class Pair:
    """The batched store and its per-key twin, driven in lockstep."""

    def __init__(self, root, engine, budget, bound=None, handler=False):
        batched_cls, looped_cls = {
            "faster": (FasterKV, PerKeyFaster),
            "mlkv": (MLKV, PerKeyMLKV),
        }[engine]
        self.batched = Side(batched_cls, os.path.join(root, "batched"), budget, bound, handler)
        self.looped = Side(looped_cls, os.path.join(root, "looped"), budget, bound, handler)
        self.run(("put", list(range(KEYS)), [value_for(key, 0) for key in range(KEYS)]))

    def run(self, op):
        got, expected = self.batched.apply(op), self.looped.apply(op)
        assert got == expected, f"{op[0]} results differ"
        assert self.batched.observe() == self.looped.observe(), f"state differs after {op[0]}"
        return got



@contextmanager
def paired(engine, budget, bound=None, handler=False):
    """A populated :class:`Pair` in a scratch directory; leaving the block
    cleanly runs the final comparison (staleness, scan, checkpoint bytes)."""
    with tempfile.TemporaryDirectory() as root:
        pair = Pair(root, engine, budget, bound, handler)
        try:
            yield pair
            assert pair.batched.final() == pair.looped.final()
        finally:
            pair.batched.store.close()
            pair.looped.store.close()


# ----------------------------------------------------------------------
# generated operation sequences
# ----------------------------------------------------------------------
@st.composite
def key_batches(draw):
    """A few keys (both sides loop: sets up keys that will stall), or many
    distinct keys from one stretch of the table plus a few strays.

    Keys written together sit together in the log, so a stretch is mostly
    plain or mostly not, and the strays — absent, on disk, read before, or
    a repeat of a key in the batch — are the keys that cut a batch into
    runs.  The array path tolerates one of them per ``FALLBACK_SHARE`` keys.
    """
    anywhere = st.integers(0, KEYS + 12)
    if draw(st.sampled_from(["few", "many", "many"])) == "few":
        return draw(st.lists(anywhere, min_size=1, max_size=5))
    low = draw(st.integers(0, KEYS - 60))
    high = min(low + draw(st.sampled_from([60, 140, KEYS])), KEYS + 12)
    keys = draw(
        st.lists(st.integers(low, high), min_size=FALLBACK_SHARE, max_size=110, unique=True)
    )
    for stray in draw(st.lists(anywhere, max_size=4)):
        keys.insert(draw(st.integers(0, len(keys))), stray)
    return keys


@st.composite
def value_batches(draw, keys):
    salt = draw(st.integers(1, 250))
    shape = draw(st.sampled_from(["same", "same", "same", "wider", "one_odd"]))
    if shape == "wider":  # a whole batch at a new width: every put appends
        return [value_for(key, salt, WIDTH + 16) for key in keys]
    values = [value_for(key, salt) for key in keys]
    if shape == "one_odd":  # a width change in the middle of the batch
        position = draw(st.integers(0, len(keys) - 1))
        values[position] = value_for(keys[position], salt, WIDTH + 3)
    return values


@st.composite
def operations(draw, engine):
    kinds = ["get", "get", "put", "put", "snapshot", "delete"]
    if engine == "mlkv":
        kinds += ["defer", "step", "step", "step", "lookahead"]
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "delete":
            ops.append((kind, draw(st.integers(0, KEYS + 12))))
            continue
        keys = draw(key_batches())
        if kind in ("put", "defer", "step"):
            ops.append((kind, keys, draw(value_batches(keys))))
        else:
            ops.append((kind, keys))
    return ops


def check_sequence(engine, budget, bound, handler, ops) -> None:
    with paired(engine, budget, bound, handler) as pair:
        for op in ops:
            pair.run(op)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
class TestGeneratedSequences:
    @settings(max_examples=40, deadline=None)
    @given(ops=operations("faster"))
    def test_faster(self, budget, ops):
        check_sequence("faster", budget, None, False, ops)

    @pytest.mark.parametrize("bound", [0, 2, ASP_BOUND])
    @settings(max_examples=60, deadline=None)
    @given(handler=st.booleans(), ops=operations("mlkv"))
    def test_mlkv(self, budget, bound, handler, ops):
        check_sequence("mlkv", budget, bound, handler, ops)


# ----------------------------------------------------------------------
# generated batches around the two events that reorder nothing in the loop
# and everything in a careless array path: a stall, and an append
# ----------------------------------------------------------------------
def fill_tail_page(pair) -> None:
    """Append single records (the lowest keys, rewritten wider) until the
    tail page has no room for another: the next append opens a new page."""
    log = pair.batched.store.log
    filler = 0
    while PAGE - log.tail_address % PAGE >= WIDTH + 1 + 20:
        pair.run(("put", [filler], [value_for(filler, 1, WIDTH + 1)]))
        filler += 1


@pytest.mark.parametrize("budget", sorted(BUDGETS))
class TestGeneratedEvents:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stall_inside_a_get_batch(self, budget, data):
        """A few keys over the bound inside a large batch; the handler
        applies deferred updates to other keys of the batch — in place,
        or by appending where they are read-only or change width — and
        then the ones that settle the stalled keys."""
        bound = data.draw(st.sampled_from([0, 2]))
        stale = data.draw(st.lists(st.integers(0, KEYS - 1), min_size=1, max_size=3, unique=True))
        batch = [key for key in data.draw(key_batches()) if key not in stale]
        for key in stale:
            batch.insert(data.draw(st.integers(0, len(batch))), key)
        updates = []
        for _ in range(data.draw(st.integers(0, 2))):
            keys = data.draw(key_batches())
            updates.append(("defer", keys, data.draw(value_batches(keys))))
        updates.append(("defer", stale, [value_for(key, 3) for key in stale]))
        with paired("mlkv", budget, bound, handler=True) as pair:
            for _ in range(bound + 1):
                pair.run(("get", stale))
            for update in updates:
                pair.run(update)
            pair.run(("get", batch))

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_append_inside_a_put_batch(self, budget, engine, data):
        """A large batch of in-place puts with a few appends in it, the
        first of which opens a new page and may push the oldest resident
        page — with records the batch has just overwritten — to the file."""
        with paired(engine, budget, bound=2 if engine == "mlkv" else None) as pair:
            fill_tail_page(pair)  # rewrites fewer than 23 of the lowest keys
            store = pair.batched.store
            in_place = [
                key for key in range(23, KEYS) if store.log.in_mutable(store.index.find(key))
            ]
            keys = data.draw(
                st.lists(st.sampled_from(in_place), min_size=2 * FALLBACK_SHARE,
                         max_size=110, unique=True)
            )
            for stray in data.draw(st.lists(st.integers(0, KEYS + 12), min_size=1, max_size=4)):
                keys.insert(data.draw(st.integers(0, len(keys))), stray)
            pair.run(("put", keys, [value_for(key, 8) for key in keys]))
            pair.run(("snapshot", keys))


# ----------------------------------------------------------------------
# the three orderings the array path must keep, pinned down
# ----------------------------------------------------------------------
class TestOrderWithinABatch:
    def test_stall_handler_moves_later_keys(self):
        """Key 10 stalls mid-batch.  The handler's update batch rewrites
        keys behind it — by appending, they sit in the read-only region —
        so their addresses and words, and the region boundaries, have to
        be read afresh before the batch goes on."""
        with paired("mlkv", "read_only", bound=0, handler=True) as pair:
            store = pair.batched.store
            batch = list(range(140))
            moved = list(range(11, 40))
            assert not any(store.log.in_mutable(store.index.find(key)) for key in moved)
            pair.run(("get", [10, 20, 21]))  # staleness 1 > bound 0: each would stall
            pair.run(("defer", moved, [value_for(key, 9) for key in moved]))
            pair.run(("defer", [10], [value_for(10, 9)]))
            pair.batched.count_per_key_calls()
            values = pair.run(("get", batch))
            assert values[20] == value_for(20, 9) and values[40] == value_for(40, 0)
            # Only key 10 stalled (twice: the first update batch did not hold
            # it), 20 and 21 were settled by then; everything else went as runs.
            assert pair.batched.pipeline.calls == [(10, 2), (10, 1)]
            assert pair.batched.per_key_calls["_get_bounded"] == 1
            assert all(store.log.in_mutable(store.index.find(key)) for key in moved)

    @pytest.mark.parametrize("bound", [0, 2])
    def test_key_over_the_bound_is_not_admitted(self, bound):
        """Without a handler the first key over the bound raises, with the
        keys before it admitted and the keys after it untouched."""
        with paired("mlkv", "mutable", bound=bound, handler=False) as pair:
            for _ in range(bound + 1):
                pair.run(("get", [90, 91]))
            outcome = pair.run(("get", list(range(40, 140))))
            assert outcome[0] == "raised" and "Get(90)" in outcome[1]
            store = pair.batched.store
            assert [store.staleness_of(key) for key in (89, 90, 91, 92)] == [
                1, bound + 1, bound + 1, 0,
            ]

    def test_in_place_put_lands_before_a_later_append_flushes_its_page(self):
        """A batch of in-place puts with an append near its end that opens
        a new page, which pushes the head page — holding the batch's first
        records — to the file: their new values must already be in it."""
        with paired("mlkv", "evict", bound=2, handler=False) as pair:
            store, log = pair.batched.store, pair.batched.store.log
            fill_tail_page(pair)
            address_of = {key: store.index.find(key) for key in range(KEYS)}
            head_page = log.head_address // PAGE
            on_head_page = [
                key for key in range(KEYS)
                if address_of[key] // PAGE == head_page and log.in_mutable(address_of[key])
            ]
            # The newest stay mutable (the lowest keys are the tail-page fillers).
            others = sorted(range(23, KEYS), key=address_of.get)[-60:]
            absent = KEYS + 1  # appended at its turn, the last but one
            keys = on_head_page + others[:-1] + [absent] + others[-1:]
            pair.batched.count_per_key_calls()
            pair.run(("put", keys, [value_for(key, 6) for key in keys]))
            assert pair.batched.per_key_calls["_put_bounded"] == 1
            assert on_head_page and log.head_address // PAGE == head_page + 1  # flushed
            expected = [value_for(key, 6) for key in on_head_page]
            assert pair.run(("snapshot", on_head_page)) == expected
