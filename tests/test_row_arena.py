"""Row-optimizer state indexed by arrays: arena ≡ dict, saved state, no keys.

``_RowArena`` maps keys to rows with a slot -> key array plus two sorted
runs of keys, each with the slot of every key (a main run and a run of
recent keys that merges into it).  The reference is the dict it replaced:
``slots.setdefault(key, len(slots))`` in order of appearance.  The two
files under ``tests/data/row_*_state_parent.pkl`` are ``state_dict()``s
pickled by the commit before the arrays (dict-backed arena) after
``fixture_rounds()``; the formats, the key order and the bytes must not
move.
"""

from __future__ import annotations

import os
import pickle
import time

import numpy as np
import pytest

from repro.nn.optim import RowAdagrad, RowAdam, _RowArena

DIM = 8
DATA = os.path.join(os.path.dirname(__file__), "data")
INT64 = np.iinfo(np.int64)


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, np.float32)).view(np.uint32)


# ----------------------------------------------------------------------
# (c) resolve against the dict it replaced
# ----------------------------------------------------------------------
class DictArena:
    def __init__(self) -> None:
        self.slots: dict[int, int] = {}

    def resolve(self, keys: np.ndarray) -> np.ndarray:
        return np.array(
            [self.slots.setdefault(key, len(self.slots)) for key in keys.tolist()],
            dtype=np.int64,
        )


@pytest.mark.parametrize("seed", range(8))
def test_resolve_matches_the_dict_reference(seed):
    rng = np.random.default_rng(seed)
    universe = np.concatenate([
        rng.integers(-50, 50, 40),
        rng.integers(INT64.min, INT64.max, 40),
        [INT64.min, INT64.max, 0, -1],
    ])
    arena, reference = _RowArena(DIM, ("acc",), counts=True), DictArena()
    doublings = 0
    for _ in range(60):
        # known, new and in-call duplicate keys, sorted or not
        keys = rng.choice(universe, size=int(rng.integers(0, 30)))
        if rng.random() < 0.3:
            keys = np.unique(keys)
        capacity = arena.columns["acc"].shape[0]
        got, want = arena.resolve(keys), reference.resolve(keys)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert arena.keys.tolist() == list(reference.slots)
        assert len(arena) == len(reference.slots) <= arena.columns["acc"].shape[0]
        assert arena.counts is not None and len(arena.counts) == arena.columns["acc"].shape[0]
        doublings += arena.columns["acc"].shape[0] > capacity
        # a row written through a slot is read back through the same key
        arena.columns["acc"][got] = keys[:, None].astype(np.float32)
        assert np.array_equal(arena.columns["acc"][arena.resolve(keys)],
                              np.broadcast_to(keys[:, None].astype(np.float32), (len(keys), DIM)))
    assert doublings >= 2


@pytest.mark.parametrize("seed", range(4))
def test_resolve_matches_the_dict_reference_over_many_merges(seed):
    """Thousands of keys arriving a few dozen at a time, so the run of
    recent keys merges into the main one many times over, in batches that
    are ascending (the path that skips the dedupe), unsorted with repeats,
    or known keys only; halfway the state is saved and loaded into a new
    optimizer, whose arena carries on."""
    rng = np.random.default_rng(seed)
    universe = np.unique(np.concatenate([
        rng.integers(INT64.min, INT64.max, 3000), np.arange(-1000, 1000), [INT64.min, INT64.max],
    ]))
    universe = rng.permutation(universe)
    arena, reference = _RowArena(DIM, ("acc",)), DictArena()
    merges = 0
    for round_ in range(400):
        seen = len(reference.slots)
        fresh = universe[seen : seen + int(rng.integers(0, 40))]
        known = rng.choice(universe[:seen], int(rng.integers(0, 60))) if seen else fresh[:0]
        keys = np.concatenate([known, fresh] if round_ % 7 else [known])
        shape = round_ % 3
        if shape == 0:
            keys = np.unique(keys)
        elif shape == 1:
            keys = rng.permutation(np.concatenate([keys, keys[: len(keys) // 3]]))
        main = len(arena._sorted_keys)
        got, want = arena.resolve(keys), reference.resolve(keys)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        merges += len(arena._sorted_keys) != main
        # each slot's row holds the slot number, through saving and loading
        arena.columns["acc"][got] = got[:, None].astype(np.float32)
        if round_ == 200:
            saved = {"accumulators": {
                key: arena.columns["acc"][slot] for slot, key in enumerate(arena.keys.tolist())
            }}
            loaded = RowAdagrad()
            loaded.load_state_dict(saved)
            assert loaded._arena is not None
            arena = loaded._arena
            assert list(loaded.state_dict()["accumulators"]) == list(reference.slots)
        assert np.array_equal(arena.columns["acc"][arena.resolve(keys), 0], want)
    assert arena.keys.tolist() == list(reference.slots) and len(arena) > 3000
    assert merges >= 10


def test_state_dict_lists_keys_in_first_appearance_order():
    keys = np.array([9, 3, INT64.max, 3, -4, 9, INT64.min], dtype=np.int64)
    for optimizer, field in ((RowAdagrad(), "accumulators"), (RowAdam(), "state")):
        optimizer.delta_rows(keys[[0, 1, 2, 4, 6]], np.ones((5, DIM), np.float32))
        optimizer.delta_rows(np.array([5, 3, 1]), np.ones((3, DIM), np.float32))
        assert list(optimizer.state_dict()[field]) == [9, 3, INT64.max, -4, INT64.min, 5, 1]
        assert all(type(key) is int for key in optimizer.state_dict()[field])


# ----------------------------------------------------------------------
# the state a dict-backed arena saved
# ----------------------------------------------------------------------
def fixture_rounds(rounds: int, seed: int = 2024):
    """Key batches in neither sorted nor insertion-stable order, with
    keys coming back in later rounds."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        count = int(rng.integers(5, 60))
        keys = rng.choice(2000, size=count, replace=False).astype(np.int64) - 700
        yield keys, rng.standard_normal((count, DIM)).astype(np.float32)


def build(cls, rounds: int):
    optimizer = cls()
    for keys, grads in fixture_rounds(rounds):
        optimizer.delta_rows(keys, grads)
    return optimizer


SAVED_ROUNDS = 12


@pytest.mark.parametrize(
    "cls,filename,field",
    [(RowAdagrad, "row_adagrad_state_parent.pkl", "accumulators"),
     (RowAdam, "row_adam_state_parent.pkl", "state")],
)
def test_state_saved_before_the_arrays_loads_and_repickles(cls, filename, field):
    with open(os.path.join(DATA, filename), "rb") as f:
        saved_bytes = f.read()
    saved = pickle.loads(saved_bytes)
    keys = list(saved[field])
    assert len(keys) > 300 and keys != sorted(keys)

    never_saved = build(cls, SAVED_ROUNDS)
    assert pickle.dumps(never_saved.state_dict(), protocol=4) == saved_bytes
    loaded = cls()
    loaded.load_state_dict(saved)
    assert pickle.dumps(loaded.state_dict(), protocol=4) == saved_bytes

    continued = list(fixture_rounds(SAVED_ROUNDS + 6))[SAVED_ROUNDS:]
    for keys_, grads in continued:
        rows = grads[::-1].copy()
        assert np.array_equal(bits(loaded.updated_rows(keys_, rows, grads)),
                              bits(never_saved.updated_rows(keys_, rows, grads)))
    assert pickle.dumps(loaded.state_dict()) == pickle.dumps(never_saved.state_dict())


class TestLoadStateDict:
    def test_a_hundred_thousand_keys_load_in_one_resolve(self):
        rng = np.random.default_rng(0)
        keys = rng.permutation(300_000)[:100_000]
        row = np.ones(32, dtype=np.float32)
        for optimizer, state in (
            (RowAdagrad(), {"accumulators": {int(k): row for k in keys}}),
            (RowAdam(), {"state": {int(k): (row, row, 3) for k in keys}}),
        ):
            started = time.perf_counter()
            optimizer.load_state_dict(state)
            # One key at a time is one ``np.insert`` into a sorted array per
            # key: over a minute at this size.
            assert time.perf_counter() - started < 5.0
            assert optimizer._arena.keys.tolist() == keys.tolist()
            assert optimizer._arena.width == 32

    def test_mixed_row_widths_raise(self):
        with pytest.raises(ValueError):
            RowAdagrad().load_state_dict(
                {"accumulators": {1: np.zeros(4, np.float32), 2: np.zeros(5, np.float32)}})
        with pytest.raises(ValueError):
            RowAdam().load_state_dict(
                {"state": {1: (np.zeros(4), np.zeros(4), 1), 2: (np.zeros(5), np.zeros(5), 1)}})
        with pytest.raises(ValueError):
            RowAdam().load_state_dict({"state": {1: (np.zeros(4), np.zeros(5), 1)}})

    def test_an_empty_state_loads_and_forgets_the_old_one(self):
        for optimizer, state in ((RowAdagrad(), {"accumulators": {}}), (RowAdam(), {"state": {}})):
            optimizer.delta_rows(np.arange(3), np.ones((3, DIM), np.float32))
            optimizer.load_state_dict(state)
            assert optimizer._arena is None and optimizer.state_dict() == state
            assert optimizer.delta_rows(np.arange(2), np.ones((2, 4), np.float32)).shape == (2, 4)

    def test_numpy_integer_keys_load(self):
        optimizer = RowAdagrad()
        optimizer.load_state_dict({"accumulators": {np.int64(7): np.ones(DIM), 3: np.zeros(DIM)}})
        assert list(optimizer.state_dict()["accumulators"]) == [7, 3]


# ----------------------------------------------------------------------
# a batch of no keys
# ----------------------------------------------------------------------
def restored(optimizer, state):
    optimizer.load_state_dict(state)
    return optimizer


@pytest.mark.parametrize(
    "make",
    [
        RowAdagrad,
        # state from a checkpoint: the arena's width comes from the load
        lambda: restored(RowAdagrad(), {"accumulators": {9: np.ones(DIM, np.float32)}}),
        RowAdam,
    ],
)
@pytest.mark.parametrize("warm", [False, True])
def test_no_keys_give_no_rows_and_touch_no_state(make, warm):
    optimizer = make()
    if warm:
        optimizer.delta_rows(np.arange(4), np.ones((4, DIM), np.float32))
    before = pickle.dumps(optimizer.state_dict())
    no_keys = np.zeros(0, dtype=np.int64)
    for grads in (np.zeros((0, DIM), np.float32), np.zeros(0, np.float32), []):
        width = DIM if np.ndim(grads) > 1 or optimizer._arena is not None else 0
        for out in (optimizer.delta_rows(no_keys, grads),
                    optimizer.updated_rows(no_keys, np.zeros((0, width), np.float32), grads)):
            assert out.shape == (0, width) and out.dtype == np.float32
    assert pickle.dumps(optimizer.state_dict()) == before
    # and the next real batch is unaffected (an empty push fixed no width)
    assert optimizer.delta_rows(np.arange(2), np.ones((2, DIM), np.float32)).shape == (2, DIM)
