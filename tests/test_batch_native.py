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

A third store takes the same sequence through the array verbs: every
``multi_get`` as a ``get_rows``, every ``multi_put`` whose values make a
matrix as a ``put_rows`` (the stall handler's included).  It is the list
verbs' twin in all of the above, and where a list holds a value that is
not a row the array call raises ``ValueError`` once the batch is read.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.mlkv import MLKV
from repro.core.staleness import ASP_BOUND
from repro.device import SimClock, SSDModel
from repro.errors import StalenessViolation, StorageError
from repro.kv.faster.hashindex import WALK_KEYS
from repro.kv.faster.store import FALLBACK_SHARE, MIN_ARRAY_BATCH, FasterKV

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

#: The regimes of the cold-path tests: the window holds about half the
#: table, or under a fifth of it (most of any batch is on disk, and what a
#: look-ahead stages is evicted again before the batch that wanted it).
COLD_BUDGETS = {"evict": BUDGETS["evict"], "thrash": (2, 1.0)}


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

    def __init__(self, put) -> None:
        self.put = put
        self.pending: deque = deque()
        self.calls: list = []

    def on_stall(self, key: int) -> bool:
        self.calls.append((key, len(self.pending)))
        if not self.pending:
            return False
        self.put(*self.pending.popleft())
        return True


class Side:
    """One store under test plus everything observable about it."""

    def __init__(self, cls, directory, budget, bound, handler, rows=False):
        self.rows = rows  # drive the array verbs wherever the batch allows
        pages, mutable_fraction = {**BUDGETS, **COLD_BUDGETS}[budget]
        kwargs = dict(
            ssd=SSDModel(SimClock()),
            memory_budget_bytes=pages * PAGE,
            page_bytes=PAGE,
            mutable_fraction=mutable_fraction,
        )
        if bound is not None:
            kwargs["staleness_bound"] = bound
        self.store = cls(directory, **kwargs)
        self.pipeline = Pipeline(self.put)
        if handler:
            self.store.set_stall_handler(self.pipeline.on_stall)
        self.per_key_calls: Counter = Counter()

    def count_per_key_calls(self, names=("_get_bounded", "_put_bounded")) -> None:
        """Start counting trips through the per-key methods ``names``."""
        for name in names:
            inner = getattr(self.store, name)

            def counted(*args, _inner=inner, _name=name):
                self.per_key_calls[_name] += 1
                return _inner(*args)

            setattr(self.store, name, counted)

    @staticmethod
    def key_array(keys) -> np.ndarray:
        return np.array(keys, dtype=np.int64 if len(keys) % 2 else np.uint64)

    def put(self, keys, values):
        if self.rows and len(set(map(len, values))) <= 1:
            width = len(values[0]) if values else WIDTH
            rows = np.frombuffer(b"".join(values), dtype=np.uint8).reshape(len(keys), width)
            return self.store.put_rows(self.key_array(keys), rows)
        return self.store.multi_put(keys, values)

    def get(self, keys, like):
        """``multi_get``; on the array side ``get_rows`` into rows as wide
        as the first value of ``like`` (what the list verb returned on the
        twin store), read back as the list verb's result."""
        if not self.rows:
            return self.store.multi_get(keys)
        widths = [len(value) for value in like if value is not None] if type(like) is list else []
        out = np.full((len(keys), widths[0] if widths else WIDTH), 0xEE, dtype=np.uint8)
        try:
            found = self.store.get_rows(self.key_array(keys), out)
        except ValueError as error:
            odd = next(i for i, value in enumerate(like) if value is not None and len(value) != out.shape[1])
            assert str(error) == f"key {keys[odd]} holds {len(like[odd])} bytes, not {out.shape[1]}"
            return like
        assert found.dtype == bool and (out[~found] == 0xEE).all()
        return [row.tobytes() if held else None for row, held in zip(out, found)]

    def apply(self, op, like=None):
        kind = op[0]
        try:
            if kind == "get":
                return self.get(op[1], like)
            if kind == "put":
                return self.put(op[1], op[2])
            if kind == "defer":
                return self.pipeline.pending.append((op[1], op[2]))
            if kind == "step":  # a training step at pipeline depth 2
                rows = self.get(op[1], like)
                self.pipeline.pending.append((op[1], op[2]))
                if len(self.pipeline.pending) > 2:
                    self.put(*self.pipeline.pending.popleft())
                return rows
            if kind == "lookahead":
                return self.store.lookahead(op[1])
            if kind == "snapshot":
                return self.store.snapshot_read_many(op[1])
            if kind == "delete":
                return self.store.delete(op[1])
            raise AssertionError(kind)
        except (StalenessViolation, StorageError) as error:
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
    """The batched store, its per-key twin and its array-verb twin, driven
    in lockstep."""

    def __init__(self, root, engine, budget, bound=None, handler=False):
        batched_cls, looped_cls = {
            "faster": (FasterKV, PerKeyFaster),
            "mlkv": (MLKV, PerKeyMLKV),
        }[engine]
        args = (budget, bound, handler)
        self.batched = Side(batched_cls, os.path.join(root, "batched"), *args)
        self.looped = Side(looped_cls, os.path.join(root, "looped"), *args)
        self.arrays = Side(batched_cls, os.path.join(root, "arrays"), *args, rows=True)
        self.sides = (self.batched, self.looped, self.arrays)
        self.run(("put", list(range(KEYS)), [value_for(key, 0) for key in range(KEYS)]))

    def run(self, op):
        got, expected = self.batched.apply(op), self.looped.apply(op)
        assert got == expected, f"{op[0]} results differ"
        assert self.arrays.apply(op, like=expected) == expected, f"{op[0]} rows differ"
        state = self.looped.observe()
        assert self.batched.observe() == state, f"state differs after {op[0]}"
        assert self.arrays.observe() == state, f"state differs after {op[0]} through the array verbs"
        return got



@contextmanager
def paired(engine, budget, bound=None, handler=False):
    """A populated :class:`Pair` in a scratch directory; leaving the block
    cleanly runs the final comparison (staleness, scan, checkpoint bytes)."""
    with tempfile.TemporaryDirectory() as root:
        pair = Pair(root, engine, budget, bound, handler)
        try:
            yield pair
            final = pair.looped.final()
            assert pair.batched.final() == final and pair.arrays.final() == final
        finally:
            for side in pair.sides:
                side.store.close()


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
def spread_batches(draw):
    """Distinct keys drawn across the whole table, a few absent ones among
    them: under the cold budgets half or more of such a batch is on disk,
    resident and cold keys alternate, and a batch of puts appends enough
    to open several pages.  Sometimes a key repeats (a Get or Put batch
    with a repeated key keeps the per-key path; a look-ahead stages it
    once on the array path)."""
    keys = draw(
        st.lists(st.integers(0, KEYS + 12), min_size=MIN_ARRAY_BATCH, max_size=140, unique=True)
    )
    if draw(st.integers(0, 7)) == 0:
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
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
def operations(draw, engine, batches=key_batches):
    kinds = ["get", "get", "put", "put", "snapshot", "delete"]
    if engine == "mlkv":
        kinds += ["defer", "step", "step", "step", "lookahead"]
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "delete":
            ops.append((kind, draw(st.integers(0, KEYS + 12))))
            continue
        keys = draw(batches())
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


@pytest.mark.parametrize("budget", sorted(COLD_BUDGETS))
class TestGeneratedColdSequences:
    """The same sequences over batches spread across the table: every
    batch mixes resident, cold and absent keys, Gets bump the overflow
    table, Puts append across page openings and evictions, look-ahead
    stages more than the window holds, and — with a finite bound and the
    handler — Gets stall on keys that are on disk."""

    @settings(max_examples=40, deadline=None)
    @given(ops=operations("faster", spread_batches))
    def test_faster(self, budget, ops):
        check_sequence("faster", budget, None, False, ops)

    @pytest.mark.parametrize("bound", [0, 2, ASP_BOUND])
    @settings(max_examples=60, deadline=None)
    @given(handler=st.booleans(), ops=operations("mlkv", spread_batches))
    def test_mlkv(self, budget, bound, handler, ops):
        check_sequence("mlkv", budget, bound, handler, ops)

    @pytest.mark.parametrize("bound", [0, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_training_steps_stall_on_cold_keys(self, budget, bound, data):
        """A trainer's loop at pipeline depth 2 over spread batches drawn
        from a small pool, so keys come back before their update has been
        applied: with most of the table on disk the Gets that run into
        the bound are Gets of cold keys, the handler's ``multi_put``
        appends in the middle of the Get batch, and the look-ahead ahead
        of each step moves what it can back into the window."""
        pool = data.draw(st.lists(spread_batches(), min_size=2, max_size=3))
        with paired("mlkv", budget, bound, handler=True) as pair:
            for step in range(data.draw(st.integers(3, 8))):
                keys = pool[step % len(pool)]
                if data.draw(st.booleans()):
                    pair.run(("lookahead", pool[(step + 1) % len(pool)]))
                pair.run(("step", keys, data.draw(value_batches(keys))))


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

    def test_stall_handler_rewrites_an_earlier_key_in_place(self):
        """The keys of one log page, side by side in the arena.  The last
        but two stalls; the handler's update also overwrites the third, in
        place, which the batch has already read: the batch returns what it
        read then.  (Values are copied out of the arena run by run — a run
        handed on as a view of the arena would show the new value.)"""
        with paired("mlkv", "mutable", bound=0, handler=True) as pair:
            store = pair.batched.store
            batch = [key for key in range(KEYS) if store.index.find(key) // PAGE == 2]
            early, stale = batch[2], batch[-3]
            assert len(batch) == 23 and store.log.in_mutable(store.index.find(early))
            pair.run(("get", [stale]))
            pair.run(("defer", [early, stale], [value_for(early, 9), value_for(stale, 9)]))
            values = pair.run(("get", batch))
            assert values[2] == value_for(early, 0) and values[-3] == value_for(stale, 9)
            assert pair.run(("snapshot", [early])) == [value_for(early, 9)]

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

    @staticmethod
    def rebuilt_mid_batch(engine: str, read_only_keys: int) -> None:
        """Read-only keys get new copies, their index entries swung when
        the batch is over; five fresh keys before each take the index
        past its load limit partway through, so the table is rebuilt and
        the slots the batch's lookup found the read-only keys in hold
        other keys by then."""
        with paired(engine, "read_only") as pair:
            store = pair.batched.store
            read_only = [
                key for key in range(KEYS) if not store.log.in_mutable(store.index.find(key))
            ][:read_only_keys]
            fresh = list(range(1000, 1000 + 5 * read_only_keys))  # 240 + 300 or more: past 512 of 1,024 slots
            assert len(read_only) == read_only_keys and store.index.slot_count == 1024
            keys = []
            for position, key in enumerate(read_only):
                keys += fresh[5 * position : 5 * position + 5] + [key]
            pair.run(("put", keys, [value_for(key, 5) for key in keys]))
            assert store.index.slot_count > 1024
            entries = [array.tolist() for array in pair.looped.store.index.entries()]
            for side in (pair.batched, pair.arrays):
                assert [array.tolist() for array in side.store.index.entries()] == entries
            assert pair.run(("snapshot", keys)) == [value_for(key, 5) for key in keys]

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_swing_after_the_index_is_rebuilt_mid_batch(self, engine):
        """360 keys: the swing walks the read-only keys' chains."""
        self.rebuilt_mid_batch(engine, 60)

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_swing_of_a_long_batch_after_the_index_is_rebuilt_mid_batch(self, engine):
        """``WALK_KEYS`` keys: the lookup's slots were remembered, and the
        fresh keys' inserts made the index forget them."""
        assert 64 * 6 == WALK_KEYS
        self.rebuilt_mid_batch(engine, 64)


class TestOneProbePerBatch:
    """A Put or a look-ahead of ``WALK_KEYS`` keys or more probes the
    index once: the swing of its new copies starts from the slots its
    lookup found, and a batch with nothing to swing looks nothing up
    again."""

    COUNT = WALK_KEYS + 16

    @staticmethod
    def loaded(engine: str, directory: str, pages: int, mutable_fraction: float):
        """``3 * COUNT`` keys put as one batch of fresh keys."""
        store = {"faster": FasterKV, "mlkv": MLKV}[engine](
            directory, ssd=SSDModel(SimClock()), memory_budget_bytes=pages * PAGE,
            page_bytes=PAGE, mutable_fraction=mutable_fraction,
        )
        count = 3 * TestOneProbePerBatch.COUNT
        store.put_rows(np.arange(count, dtype=np.uint64), np.ones((count, WIDTH), dtype=np.uint8))
        return store

    @staticmethod
    def probes(store) -> list:
        """The sizes of the index's array probes from now on."""
        sizes: list = []
        probe = store.index._probe_slots
        store.index._probe_slots = lambda keys: sizes.append(len(keys)) or probe(keys)
        return sizes

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_a_put_of_present_read_only_keys(self, engine, tmp_path):
        store = self.loaded(engine, str(tmp_path), 64, 0.25)
        keys = np.arange(self.COUNT, dtype=np.uint64)
        addresses = [store.index.find(key) for key in keys.tolist()]
        assert all(store.log.in_memory(at) and not store.log.in_mutable(at) for at in addresses)
        tail, sizes = store.log.tail_address, self.probes(store)
        store.put_rows(keys, np.full((self.COUNT, WIDTH), 2, dtype=np.uint8))
        assert sizes == [self.COUNT]
        assert (store.index.find_many(keys) >= tail).all()  # every key swung to its new copy

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_a_put_of_fresh_keys(self, engine, tmp_path):
        store = self.loaded(engine, str(tmp_path), 64, 0.25)
        keys = np.arange(self.COUNT, dtype=np.uint64) + (1 << 40)
        sizes = self.probes(store)
        store.put_rows(keys, np.full((self.COUNT, WIDTH), 2, dtype=np.uint8))
        assert sizes == [self.COUNT]
        assert len(store) == 4 * self.COUNT

    def test_a_look_ahead_of_cold_keys(self, tmp_path):
        store = self.loaded("mlkv", str(tmp_path), 6, 1.0)
        keys = np.arange(self.COUNT, dtype=np.uint64)
        assert not any(store.log.in_memory(store.index.find(key)) for key in keys.tolist())
        tail, sizes = store.log.tail_address, self.probes(store)
        assert store.lookahead(keys) == self.COUNT
        assert sizes == [self.COUNT]
        assert (store.index.find_many(keys) >= tail).all()  # every key swung to its copy


# ----------------------------------------------------------------------
# the cold cases, pinned down
# ----------------------------------------------------------------------
def on_disk_keys(pair, count: int) -> list:
    """The ``count`` populated keys oldest in the log, all below the head."""
    store = pair.batched.store
    keys = sorted(range(KEYS), key=store.index.find)[:count]
    assert not any(store.log.in_memory(store.index.find(key)) for key in keys)
    return keys


class TestColdBatches:
    def test_a_cold_batch_goes_per_key_only_where_a_page_opens(self):
        """100 keys on disk: the Get and the look-ahead make no per-key
        call at all, the Put one for each log page its appends open."""
        names = ("_get_bounded", "_put_bounded", "_stage_one")
        with paired("mlkv", "evict", bound=2) as pair:
            log = pair.batched.store.log
            keys = on_disk_keys(pair, 100)
            pair.batched.count_per_key_calls(names)
            values = pair.run(("get", keys))
            assert values == [value_for(key, 0) for key in keys]
            page = log.tail_address // PAGE
            pair.run(("put", keys, [value_for(key, 4) for key in keys]))
            opened = log.tail_address // PAGE - page
            assert 4 <= opened <= 5
            assert pair.batched.per_key_calls == {"_put_bounded": opened}
            # The first of those copies are on disk again by now.
            keys = on_disk_keys(pair, 100)
            assert pair.run(("lookahead", keys)) == 100
            assert pair.batched.per_key_calls == {"_put_bounded": opened}
            assert pair.run(("snapshot", keys)) == [
                value_for(key, 4 if key < 100 else 0) for key in keys
            ]

    def test_a_cold_snapshot_batch_makes_no_per_key_read(self):
        with paired("faster", "thrash") as pair:
            keys = on_disk_keys(pair, 100)
            pair.batched.count_per_key_calls(("_read_at", "_upsert"))
            reads = pair.batched.store.ssd.reads
            assert pair.run(("get", keys)) == [value_for(key, 0) for key in keys]
            assert pair.batched.store.ssd.reads == reads + 100
            pair.run(("put", keys, [value_for(key, 4) for key in keys]))
            assert pair.batched.per_key_calls == {"_upsert": 4}  # page openings

    @pytest.mark.parametrize("bound", [0, 2])
    def test_cold_key_over_the_bound_is_not_admitted(self, bound):
        """The clock of a record on disk lives in the overflow table:
        without a handler the first cold key over the bound raises, the
        keys before it admitted and the keys after it untouched."""
        with paired("mlkv", "evict", bound=bound, handler=False) as pair:
            keys = on_disk_keys(pair, 60)
            stale = keys[30:32]
            for _ in range(bound + 1):
                pair.run(("get", stale))
            outcome = pair.run(("get", keys))
            assert outcome[0] == "raised" and f"Get({stale[0]})" in outcome[1]
            store = pair.batched.store
            assert [store.staleness_of(key) for key in keys[28:34]] == [
                1, 1, bound + 1, bound + 1, 0, 0,
            ]
            assert store.mlkv_stats.overflow_entries == 32

    def test_cold_key_over_the_bound_stalls_at_its_turn(self):
        """Cold key 31 of the batch stalls; the handler's update batch
        rewrites it and cold keys behind it (new copies at the tail), so
        the stalled key and the rest of the batch are resolved again: the
        rewritten keys are read from memory, once, the stalled one too."""
        with paired("mlkv", "evict", bound=0, handler=True) as pair:
            store = pair.batched.store
            keys = on_disk_keys(pair, 60)
            moved = keys[30:50]
            pair.run(("get", keys[30:31]))
            pair.run(("defer", moved, [value_for(key, 9) for key in moved]))
            pair.batched.count_per_key_calls()
            reads = store.ssd.reads
            values = pair.run(("get", keys))
            assert values == [value_for(key, 9 if key in moved else 0) for key in keys]
            assert pair.batched.pipeline.calls == [(keys[30], 1)]
            assert pair.batched.per_key_calls["_get_bounded"] == 1
            # One blocking read per key still on disk: the 30 in front of
            # the stall and the 10 behind the rewritten ones.  The stalled
            # key's Get reads its new copy in memory, not the one on disk
            # the update superseded.
            assert store.ssd.reads == reads + 30 + 10
            # Its clock is where the Put left it, in the new copy's word,
            # plus this Get: no overflow entry is left behind for it.
            assert store.staleness_of(keys[30]) == 1
            assert keys[30] not in store._overflow_staleness

    def test_nothing_pending_leaves_no_staleness(self):
        """A cold Get that stalled, then every update applied: each Get has
        met its Put, so every key's clock reads 0 and the overflow table is
        empty — also once the records are back on disk, where a clock is
        read from that table."""
        with paired("mlkv", "evict", bound=0, handler=True) as pair:
            store = pair.batched.store
            keys = on_disk_keys(pair, 60)
            pair.run(("get", keys[30:31]))
            pair.run(("defer", keys[30:50], [value_for(key, 9) for key in keys[30:50]]))
            pair.run(("get", keys))  # stalls on keys[30]: the handler applies the update
            pair.run(("put", keys, [value_for(key, 4) for key in keys]))
            assert not pair.batched.pipeline.pending
            fresh = list(range(KEYS + 20, KEYS + 320))
            pair.run(("put", fresh, [value_for(key, 1) for key in fresh]))
            assert not any(store.log.in_memory(store.index.find(key)) for key in keys)
            assert [store.staleness_of(key) for key in keys] == [0] * len(keys)
            assert store._overflow_staleness == {}

    def test_stalls_do_not_fetch_the_remaining_cold_records_again(self, monkeypatch):
        """Four cold keys of a 100-key batch stall, and each time the rest
        of the batch is classified again: a record fetched before is read
        from the file again only if the handler's update moved its key."""
        with paired("mlkv", "evict", bound=0, handler=True) as pair:
            keys = on_disk_keys(pair, 100)
            stalling = keys[10:90:20]
            pair.run(("get", stalling))
            for key in stalling:  # one update batch per stall, two keys each
                moved = [key, key + 1]
                pair.run(("defer", moved, [value_for(key, 9) for key in moved]))
            fetched = []
            preadv = os.preadv
            monkeypatch.setattr(
                os, "preadv", lambda fd, buffers, at: fetched.append(at) or preadv(fd, buffers, at)
            )
            pair.batched.count_per_key_calls()
            pair.batched.apply(("get", keys))
            assert len(pair.batched.pipeline.calls) == len(stalling)
            assert pair.batched.per_key_calls["_get_bounded"] == len(stalling)
            assert len(fetched) <= len(keys) + 2 * len(stalling)
            monkeypatch.undo()
            pair.arrays.apply(("get", keys), like=pair.looped.apply(("get", keys)))
            assert pair.batched.observe() == pair.looped.observe() == pair.arrays.observe()

    def test_key_moved_and_evicted_again_by_a_stall_is_fetched_again(self):
        """The handler's update batch is longer than the window: most of
        its new copies are back on disk, elsewhere, by the time the rest
        of the Get batch is classified again."""
        with paired("mlkv", "thrash", bound=0, handler=True) as pair:
            store = pair.batched.store
            keys = on_disk_keys(pair, 100)
            moved = keys[10:80]
            pair.run(("get", keys[10:11]))
            pair.run(("defer", moved, [value_for(key, 9) for key in moved]))
            values = pair.run(("get", keys))
            assert values == [value_for(key, 9 if key in moved else 0) for key in keys]
            assert sum(not store.log.in_memory(store.index.find(key)) for key in moved) > 20

    def test_lookahead_window_larger_than_the_buffer(self):
        """Staging some 190 records into a window of 46: the first copies
        are pushed out again by the later ones, and the batch that wanted
        them reads them from disk, overflow entries and all."""
        with paired("mlkv", "thrash", bound=2) as pair:
            keys = on_disk_keys(pair, 60) + list(range(KEYS - 1, 59, -1))
            pair.run(("get", keys[:40]))  # overflow entries the staging folds in
            assert pair.run(("lookahead", keys)) >= 180
            store = pair.batched.store
            assert not store.log.in_memory(store.index.find(keys[0]))
            pair.run(("step", keys, [value_for(key, 5) for key in keys]))
            pair.run(("get", keys[:40]))

    def test_populate_sized_fresh_batch(self):
        """A batch of nothing but new keys, several windows long."""
        with paired("mlkv", "evict", bound=2) as pair:
            fresh = list(range(KEYS + 20, KEYS + 520))
            pair.batched.count_per_key_calls()
            pair.run(("put", fresh, [value_for(key, 1) for key in fresh]))
            assert pair.batched.per_key_calls["_put_bounded"] <= 500 // 23 + 1
            assert pair.run(("get", fresh[::3])) == [value_for(key, 1) for key in fresh[::3]]

    def test_new_copies_of_present_keys_leave_the_index_layout_alone(self):
        """An index twelve entries short of growing: new copies of 100
        keys it already holds — appended by a Put, staged by a look-ahead
        — change addresses and nothing else, as 100 ``upsert`` calls do."""
        with paired("mlkv", "evict", bound=2) as pair:
            fresh = list(range(KEYS + 20, KEYS + 280))
            pair.run(("put", fresh, [value_for(key, 1) for key in fresh]))
            index = pair.batched.store.index
            assert (len(index), index.slot_count) == (500, 1024)
            layout = index.entries()[0].tolist()
            keys = on_disk_keys(pair, 100)
            pair.run(("put", keys, [value_for(key, 2) for key in keys]))
            assert pair.run(("lookahead", on_disk_keys(pair, 100))) == 100
            assert (index.slot_count, index.entries()[0].tolist()) == (1024, layout)

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_cold_records_of_another_width_and_deleted_keys(self, engine):
        """Among the cold keys of a batch: records written at another
        width in the middle of a batch, and keys deleted since (their
        tombstones on disk, their index entries gone)."""
        with paired(engine, "thrash", bound=2 if engine == "mlkv" else None) as pair:
            odd = [5, 40, 41, 90]
            keys = list(range(120))
            values = [value_for(key, 2, WIDTH + 3 if key in odd else WIDTH) for key in keys]
            pair.run(("put", keys, values))
            for key in (7, 41, 100):
                pair.run(("delete", key))
            later = list(range(120, KEYS))  # pushes all of that out of the window
            pair.run(("put", later, [value_for(key, 2) for key in later]))
            store = pair.batched.store
            assert not any(
                store.log.in_memory(store.index.find(key)) for key in keys if key not in (7, 41, 100)
            )
            got = pair.run(("get", keys))
            assert got == [None if key in (7, 41, 100) else value for key, value in zip(keys, values)]
            if engine == "mlkv":
                pair.run(("lookahead", keys))
            pair.run(("put", keys, [value_for(key, 3) for key in keys]))
            pair.run(("snapshot", keys))

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_torn_log_and_crossed_index_entries_raise_typed_errors(self, engine):
        """A record the file ends inside, and a record that belongs to
        another key, fail the batch exactly where the loop fails."""
        with tempfile.TemporaryDirectory() as root:  # no final scan: the log is torn
            pair = Pair(root, engine, "evict", bound=2 if engine == "mlkv" else None)
            keys = on_disk_keys(pair, 60)
            for side in pair.sides:
                index = side.store.index
                first, second = index.find(keys[20]), index.find(keys[21])
                index.upsert(keys[20], second)
                index.upsert(keys[21], first)
            outcome = pair.run(("get", keys))
            assert outcome[0] == "raised" and "index corruption" in outcome[1]
            for side in pair.sides:
                side.store.log._file.flush()
                os.truncate(side.store.log.path, side.store.index.find(keys[10]) + 30)
            outcome = pair.run(("get", keys[:20]))
            assert outcome[0] == "raised" and "log truncated" in outcome[1]
            # The first cold record of a batch, the one whose header gives
            # the batch its width, torn as well: the keys before it (absent
            # ones) are served first, as in the loop.
            absent = list(range(KEYS + 1, KEYS + 9))
            misses = pair.batched.store.stats.misses
            outcome = pair.run(("get", absent + keys[11:20]))
            assert outcome[0] == "raised" and "log truncated" in outcome[1]
            assert pair.batched.store.stats.misses == misses + len(absent)
            for side in pair.sides:
                side.store.close()

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_crossed_entry_into_a_resident_record_raises_a_typed_error(self, engine):
        """An index entry that points into the middle of a resident record
        reads value bytes as a length no record can have: the batch takes
        no width from it, and the key fails as it does in the loop."""
        with tempfile.TemporaryDirectory() as root:  # no final scan: the index is crossed
            pair = Pair(root, engine, "mutable", bound=2 if engine == "mlkv" else None)
            keys = list(range(1, 41))
            for side in pair.sides:
                side.store.index.upsert(keys[0], side.store.index.find(keys[0]) + 4)
            outcome = pair.run(("get", keys))
            assert outcome[0] == "raised" and "index corruption" in outcome[1]
            outcome = pair.run(("get", keys[1:] + keys[:1]))
            assert outcome[0] == "raised" and "index corruption" in outcome[1]
            for side in pair.sides:
                side.store.close()


# ----------------------------------------------------------------------
# the array verbs: every test above already drives them on the third store;
# here the configurations, batch lengths and argument errors those leave out
# ----------------------------------------------------------------------
#: engine, staleness bound, stall handler.  "unbounded" is MLKV built with
#: no bound (its default, ASP) under a trainer's stall handler, which no
#: Get may then call.
ARRAY_CONFIGS = {
    "faster": ("faster", None, False),
    "bsp": ("mlkv", 0, True),
    "ssp4": ("mlkv", 4, True),
    "asp": ("mlkv", ASP_BOUND, False),
    "unbounded": ("mlkv", None, True),
}


def assert_no_stall_without_a_bound(config, pair):
    if config == "unbounded":
        assert not any(side.pipeline.calls for side in pair.sides)


@pytest.mark.parametrize("config", sorted(ARRAY_CONFIGS))
@pytest.mark.parametrize("budget", ["mutable", "read_only", "evict", "thrash"])
class TestArrayVerbs:
    @seed(23)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_generated_sequences(self, config, budget, data):
        engine, bound, handler = ARRAY_CONFIGS[config]
        batches = data.draw(st.sampled_from([key_batches, spread_batches]))
        ops = data.draw(operations(engine, batches))
        with paired(engine, budget, bound, handler) as pair:
            for op in ops:
                pair.run(op)
            assert_no_stall_without_a_bound(config, pair)

    def test_batch_lengths_on_both_sides_of_the_array_threshold(self, config, budget):
        """0, 1, 15, 16 and 1,024 keys: the per-key loop, the first batch
        served as arrays, and one that is mostly fresh keys and fills pages."""
        engine, bound, handler = ARRAY_CONFIGS[config]
        with paired(engine, budget, bound, handler) as pair:
            for length in (0, 1, MIN_ARRAY_BATCH - 1, MIN_ARRAY_BATCH, 1024):
                keys = list(range(7, 7 + length))
                pair.run(("step", keys, [value_for(key, length % 250) for key in keys]))
                pair.run(("put", keys, [value_for(key, 5) for key in keys]))
                assert pair.run(("get", keys[::-1])) == [value_for(key, 5) for key in keys[::-1]]
            assert_no_stall_without_a_bound(config, pair)


class TestArrayVerbArguments:
    def test_an_odd_width_record_raises_once_the_batch_is_read(self):
        """Every key of the batch is admitted, as ``multi_get`` admits it;
        then the value that is no row is named."""
        with paired("mlkv", "mutable", bound=2) as pair:
            pair.run(("put", [30], [value_for(30, 1, WIDTH + 3)]))
            store, keys = pair.arrays.store, np.arange(20, 60)
            out = np.zeros((40, WIDTH), dtype=np.uint8)
            with pytest.raises(ValueError, match=f"key 30 holds {WIDTH + 3} bytes, not {WIDTH}"):
                store.get_rows(keys, out)
            assert [store.staleness_of(key) for key in (29, 30, 31, 59)] == [1, 1, 1, 1]
            for side in (pair.batched, pair.looped):
                side.store.multi_get(keys.tolist())

    def test_out_and_rows_are_the_callers(self):
        """``out`` is a copy (a later Put does not reach it) and ``rows`` is
        not kept (changing it after the call does not reach the store)."""
        with paired("mlkv", "mutable", bound=ASP_BOUND) as pair:
            store, keys = pair.arrays.store, np.arange(40, 140, dtype=np.uint64)
            out = np.empty((100, WIDTH), dtype=np.uint8)
            assert store.get_rows(keys, out).all()
            before = out.copy()
            rows = np.full((100, WIDTH), 7, dtype=np.uint8)
            store.put_rows(keys, rows)
            assert (out == before).all() and not np.shares_memory(out, store.log._arena)
            rows[:] = 9
            assert store.get_rows(keys, out).all() and (out == 7).all()
            for side in (pair.batched, pair.looped):
                side.store.multi_get(keys.tolist())
                side.store.multi_put(keys.tolist(), [bytes([7]) * WIDTH] * 100)
                side.store.multi_get(keys.tolist())

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_malformed_arguments_raise_before_anything_is_charged(self, engine):
        with paired(engine, "mutable", bound=2 if engine == "mlkv" else None) as pair:
            store, state = pair.arrays.store, pair.arrays.observe()
            keys, rows = np.arange(40), np.zeros((40, WIDTH), dtype=np.uint8)
            wide = np.zeros((40, 2 * WIDTH), dtype=np.uint8)
            for bad_keys, bad_rows in [
                (keys.astype(np.float64), rows),  # not an integer dtype
                (keys.reshape(2, 20), rows),  # not 1-D
                (keys.tolist(), rows),  # not an array
                (keys, rows.astype(np.int8)),  # wrong dtype
                (keys, rows[0]),  # wrong rank
                (keys, rows[:39]),  # wrong row count
                (keys, wide[:, ::2]),  # not contiguous
                (keys, np.asfortranarray(rows)),
            ]:
                with pytest.raises(ValueError, match="1-D integer key array"):
                    store.get_rows(bad_keys, bad_rows)
                with pytest.raises(ValueError, match="1-D integer key array"):
                    store.put_rows(bad_keys, bad_rows)
            assert pair.arrays.observe() == state

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    @pytest.mark.parametrize("length", [3, 40])
    def test_a_negative_key_is_treated_as_the_list_verb_treats_it(self, engine, length):
        """A miss for a Get, whatever the record header makes of it for a
        Put: the array verbs leave such a batch to the per-key methods."""

        def outcome(call, *args):
            try:
                return call(*args)
            except Exception as error:  # the same one, whatever it is
                return type(error), str(error)

        with paired(engine, "mutable", bound=2 if engine == "mlkv" else None) as pair:
            keys = np.arange(length) - 1
            values = [value_for(key, 3) for key in range(length)]
            rows = np.frombuffer(b"".join(values), dtype=np.uint8).reshape(length, WIDTH)
            stores = [side.store for side in pair.sides]
            puts = [outcome(store.multi_put, keys.tolist(), values) for store in stores[:2]]
            assert puts[0] == puts[1] == outcome(stores[2].put_rows, keys, rows)
            gets = [outcome(store.multi_get, keys.tolist()) for store in stores[:2]]
            out = np.zeros((length, WIDTH), dtype=np.uint8)
            found = outcome(stores[2].get_rows, keys, out)
            assert gets[0] == gets[1]
            if type(gets[0]) is list:
                assert found.tolist() == [value is not None for value in gets[0]]
                assert [row.tobytes() for row in out[found]] == [v for v in gets[0] if v is not None]
            else:
                assert found == gets[0]
            assert pair.batched.observe() == pair.looped.observe() == pair.arrays.observe()

    @pytest.mark.parametrize("engine", ["faster", "mlkv"])
    def test_a_frozen_store_refuses_put_rows_as_it_refuses_multi_put(self, engine):
        with paired(engine, "mutable", bound=2 if engine == "mlkv" else None) as pair:
            for side in pair.sides:
                side.store.freeze()
            with pytest.raises(StorageError) as listed:
                pair.batched.store.multi_put(list(range(40)), [bytes(WIDTH)] * 40)
            with pytest.raises(StorageError) as rowed:
                pair.arrays.store.put_rows(np.arange(40), np.zeros((40, WIDTH), dtype=np.uint8))
            assert str(rowed.value) == str(listed.value) and "frozen" in str(rowed.value)
            for side in pair.sides:
                side.store.read_only = False  # the final checkpoint comparison writes
