"""Vectorized hot paths vs their per-key reference loops — bit identity.

The golden-trajectory tests pin three end-to-end workloads; these tests
pin each vectorized component *directly* against an inline copy of the
per-key loop it replaced, over many randomized rounds with overlapping
sparse key sets.  Comparisons are on raw float32 bits (``view(uint32)``),
not ``allclose`` — the refactor's contract is exact equivalence, so any
reassociated float op fails here by name instead of as a drifted loss.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro._arrays import sorted_unique
from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.kv.common.serialization import decode_vector
from repro.nn.optim import RowAdagrad, RowAdam
from repro.train.loop import BaseTrainer

DIM = 8


def bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, np.float32)).view(np.uint32)


# ----------------------------------------------------------------------
# per-key reference optimizers (the loops the arena rewrite replaced)
# ----------------------------------------------------------------------
class RefAdagrad:
    def __init__(self, lr, eps):
        self.lr, self.eps = lr, eps
        self.acc: dict[int, np.ndarray] = {}

    def delta_rows(self, keys, grads):
        out = np.empty_like(grads)
        for i, key in enumerate(keys):
            acc = self.acc.get(int(key))
            if acc is None:
                acc = np.zeros(grads.shape[1], dtype=np.float32)
            acc = acc + grads[i] * grads[i]
            self.acc[int(key)] = acc
            out[i] = -(self.lr * grads[i] / (np.sqrt(acc) + self.eps))
        return out


class RefAdam:
    def __init__(self, lr, beta1, beta2, eps):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.state: dict[int, tuple] = {}

    def delta_rows(self, keys, grads):
        out = np.empty_like(grads)
        for i, key in enumerate(keys):
            m, v, t = self.state.get(int(key), (None, None, 0))
            if m is None:
                m = np.zeros(grads.shape[1], dtype=np.float32)
                v = np.zeros(grads.shape[1], dtype=np.float32)
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * grads[i]
            v = self.beta2 * v + (1.0 - self.beta2) * grads[i] * grads[i]
            self.state[int(key)] = (m, v, t)
            bias1 = np.float32(1.0 - self.beta1**t)
            bias2 = np.float32(1.0 - self.beta2**t)
            out[i] = -(self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps))
        return out


def _rounds(rng, num_rounds=30, universe=200):
    for _ in range(num_rounds):
        count = int(rng.integers(1, 40))
        keys = rng.choice(universe, size=count, replace=False).astype(np.int64)
        grads = rng.standard_normal((count, DIM)).astype(np.float32)
        yield keys, grads


class TestOptimizerBitIdentity:
    def test_adagrad_delta_rows_matches_reference_loop(self):
        rng = np.random.default_rng(42)
        vec = RowAdagrad(lr=0.05)
        ref = RefAdagrad(lr=vec.lr, eps=vec.eps)
        for keys, grads in _rounds(rng):
            got = vec.delta_rows(keys, grads)
            want = ref.delta_rows(keys, grads)
            assert np.array_equal(bits(got), bits(want))

    def test_adagrad_updated_rows_is_rows_plus_delta(self):
        rng = np.random.default_rng(43)
        a = RowAdagrad(lr=0.05)
        b = RowAdagrad(lr=0.05)
        for keys, grads in _rounds(rng, num_rounds=10):
            rows = rng.standard_normal((len(keys), DIM)).astype(np.float32)
            assert np.array_equal(
                bits(a.updated_rows(keys, rows, grads)),
                bits(rows + b.delta_rows(keys, grads)),
            )

    def test_adam_delta_rows_matches_reference_loop(self):
        rng = np.random.default_rng(44)
        vec = RowAdam(lr=0.01)
        ref = RefAdam(vec.lr, vec.beta1, vec.beta2, vec.eps)
        for keys, grads in _rounds(rng):
            got = vec.delta_rows(keys, grads)
            want = ref.delta_rows(keys, grads)
            assert np.array_equal(bits(got), bits(want))

    def test_adam_per_key_timesteps_survive_state_round_trip(self):
        rng = np.random.default_rng(45)
        first = RowAdam(lr=0.01)
        ref = RefAdam(first.lr, first.beta1, first.beta2, first.eps)
        for keys, grads in _rounds(rng, num_rounds=10):
            first.delta_rows(keys, grads)
            ref.delta_rows(keys, grads)
        second = RowAdam(lr=0.01)
        second.load_state_dict(first.state_dict())
        for keys, grads in _rounds(rng, num_rounds=10):
            assert np.array_equal(
                bits(second.delta_rows(keys, grads)),
                bits(ref.delta_rows(keys, grads)),
            )

    def test_adagrad_state_dict_keeps_per_key_format(self):
        vec = RowAdagrad(lr=0.05)
        keys = np.array([3, 9], dtype=np.int64)
        grads = np.ones((2, DIM), dtype=np.float32)
        vec.delta_rows(keys, grads)
        state = vec.state_dict()
        assert set(state["accumulators"]) == {3, 9}
        assert np.array_equal(state["accumulators"][3], np.ones(DIM, np.float32))


# ----------------------------------------------------------------------
# embedding facade vs the per-key gather/scatter it replaced
# ----------------------------------------------------------------------
@pytest.fixture
def tables():
    with tempfile.TemporaryDirectory(prefix="vec-emb-") as td:
        store = MLKV(td, ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 20)
        yield EmbeddingTables(store, dim=DIM, seed=9, cache_entries=0)
        store.close()


class TestEmbeddingEquivalence:
    def test_get_matches_per_key_reference(self, tables):
        rng = np.random.default_rng(50)
        keys = rng.integers(0, 300, size=64)
        batch = tables.get(keys)
        per_key = np.stack(
            [
                decode_vector(tables.store.snapshot_read(int(key)), dim=DIM)
                for key in keys
            ]
        )
        assert batch.shape == (64, DIM)
        assert np.array_equal(bits(batch), bits(per_key))

    def test_put_last_duplicate_wins_like_sequential_loop(self, tables):
        keys = np.array([5, 7, 5, 9, 7, 5], dtype=np.int64)
        values = np.arange(6 * DIM, dtype=np.float32).reshape(6, DIM)
        tables.put(keys, values)
        # sequential per-key reference: later occurrences overwrite
        expected: dict[int, np.ndarray] = {}
        for key, row in zip(keys, values):
            expected[int(key)] = row
        for key, row in expected.items():
            stored = decode_vector(tables.store.snapshot_read(key), dim=DIM)
            assert np.array_equal(bits(stored), bits(row))

    def test_lazy_init_is_deterministic_and_order_independent(self, tables):
        forward = tables.get(np.arange(40))
        with tempfile.TemporaryDirectory(prefix="vec-emb2-") as td:
            store = MLKV(td, ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 20)
            other = EmbeddingTables(store, dim=DIM, seed=9, cache_entries=0)
            backward = other.get(np.arange(39, -1, -1))
            store.close()
        assert np.array_equal(bits(forward), bits(backward[::-1]))


class TestPeekDtypeRegression:
    """``peek``/``get``/``put`` must accept any integer key array dtype —
    the numpy scalars must be marshalled to Python ints before reaching
    the store layer (which validates ``isinstance(key, int)``)."""

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32]
    )
    def test_peek_accepts_any_integer_dtype(self, tables, dtype):
        tables.put(np.arange(10), np.ones((10, DIM), dtype=np.float32))
        reference = tables.peek(np.arange(10, dtype=np.int64))
        got = tables.peek(np.arange(10, dtype=dtype))
        assert got.dtype == np.float32
        assert np.array_equal(bits(got), bits(reference))

    def test_peek_python_list_and_scalar_shapes(self, tables):
        tables.put([3], np.ones((1, DIM), dtype=np.float32))
        flat = tables.peek([3, 4])
        assert flat.shape == (2, DIM)
        nested = tables.peek(np.array([[3, 4]], dtype=np.int32))
        assert nested.shape == (1, 2, DIM)
        assert np.array_equal(bits(flat), bits(nested[0]))

    def test_peek_unseen_keys_do_not_insert(self, tables):
        before = len(tables.store)
        vectors = tables.peek(np.array([1000, 1001], dtype=np.uint32))
        assert len(tables.store) == before
        expected = np.stack(
            [tables.init_vector(1000), tables.init_vector(1001)]
        )
        assert np.array_equal(bits(vectors), bits(expected))

    def test_get_accepts_numpy_integer_keys(self, tables):
        got = tables.get(np.array([11, 12], dtype=np.uint32))
        again = tables.get(np.array([11, 12], dtype=np.int16))
        assert np.array_equal(bits(got), bits(again))


# ----------------------------------------------------------------------
# the trainers' gather index
# ----------------------------------------------------------------------
class TestGatherIndex:
    """``BaseTrainer.gather_index`` (one sort of the batch, a search in key
    order, a scatter back) ≡ ``np.searchsorted(unique, keys)``."""

    # 1-D (a GNN frontier), [batch, fields] (DLRM), [batch, negatives] (KGE)
    @pytest.mark.parametrize("shape", [(700,), (256, 26), (64, 32)])
    @pytest.mark.parametrize("order", ["random", "sorted", "reversed"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    def test_equals_searchsorted(self, shape, order, dtype):
        rng = np.random.default_rng(sum(shape))
        keys = rng.integers(0, 900, size=shape).astype(dtype)  # duplicates galore
        if order != "random":
            ordered = np.sort(keys, axis=None)
            keys = (ordered if order == "sorted" else ordered[::-1]).reshape(shape)
        unique = sorted_unique(keys)
        for table in (unique, unique.astype(np.int64)):  # keys narrower than the table
            expected = np.searchsorted(table, keys)
            got = BaseTrainer.gather_index(table, keys)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_kge_parts_gather_from_the_union(self):
        """KGE gathers heads, tails and negatives from the unique keys of
        all three: each part holds only some of them, and a key absent
        from the table lands where ``searchsorted`` puts it."""
        rng = np.random.default_rng(7)
        heads, tails = rng.integers(0, 400, 128), rng.integers(0, 400, 128)
        negatives = rng.integers(0, 400, (128, 16))
        unique = sorted_unique(np.concatenate([heads, tails, negatives.reshape(-1)]))
        for part in (heads, tails, negatives, np.array([-5, 401, 10_000])):
            assert np.array_equal(
                BaseTrainer.gather_index(unique, part), np.searchsorted(unique, part)
            )
