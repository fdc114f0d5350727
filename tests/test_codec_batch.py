"""Batch vector codec: per-row views that are safe to hold, the batch
decode equal to the per-row one, and engine round-trips with memoryview
values (arbitrary slices, and the codec's rows) over all four engines."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.kv.btree import BTreeKV
from repro.kv.common.serialization import (
    decode_vector,
    decode_vectors,
    encode_vector,
    encode_vectors,
)
from repro.kv.faster import FasterKV
from repro.kv.lsm import LsmKV

ENGINES = ("faster", "mlkv", "lsm", "btree")

_ENGINE_CLASSES = {
    "faster": FasterKV,
    "mlkv": MLKV,
    "lsm": LsmKV,
    "btree": BTreeKV,
}


def make_engine(kind: str, directory: str):
    return _ENGINE_CLASSES[kind](
        directory, ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 16
    )


class TestAliasing:
    def test_encode_vectors_views_are_safe_to_hold(self):
        # encode_vectors hands out views over an *immutable* bytes object,
        # so they stay valid even after further encodes.
        matrix = np.arange(24, dtype=np.float32).reshape(4, 6)
        raws = encode_vectors(matrix)
        other = encode_vectors(matrix * 2.0)
        assert np.array_equal(decode_vectors(raws, dim=6), matrix)
        assert np.array_equal(decode_vectors(other, dim=6), matrix * 2.0)
        for raw in raws:
            assert isinstance(raw, memoryview)
            assert raw.readonly
        assert [bytes(raw) for raw in raws] == [
            encode_vector(matrix[i]) for i in range(4)
        ]

    def test_decode_vectors_matches_per_row_decode(self):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((32, 8)).astype(np.float32)
        raws = [encode_vector(row) for row in matrix]
        batch = decode_vectors(raws, dim=8)
        loop = np.stack([decode_vector(raw, dim=8) for raw in raws])
        assert batch.dtype == np.float32
        assert np.array_equal(batch, loop)


# ----------------------------------------------------------------------
# engines accept the codec's zero-copy views end to end
# ----------------------------------------------------------------------
class TestEngineRoundTrip:
    @pytest.mark.parametrize("kind", ENGINES)
    def test_memoryview_values_round_trip(self, kind):
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 1 << 48, size=200).tolist()
        lengths = rng.integers(0, 96, size=200)
        buffer = rng.bytes(int(lengths.sum()))
        bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
        views = [memoryview(buffer)[bounds[i] : bounds[i + 1]] for i in range(200)]
        with tempfile.TemporaryDirectory(prefix=f"codec-{kind}-") as td:
            store = make_engine(kind, td)
            # last-wins for duplicate keys, matching multi_put's contract
            expected = {key: bytes(view) for key, view in zip(keys, views)}
            store.multi_put(keys, views)
            got = store.multi_get(list(expected))
            assert [bytes(raw) for raw in got] == list(expected.values())
            store.close()

    @pytest.mark.parametrize("kind", ENGINES)
    def test_vector_views_round_trip(self, kind):
        rng = np.random.default_rng(9)
        matrix = rng.standard_normal((64, 16)).astype(np.float32)
        keys = list(range(64))
        with tempfile.TemporaryDirectory(prefix=f"codecv-{kind}-") as td:
            store = make_engine(kind, td)
            store.multi_put(keys, encode_vectors(matrix))
            raws = store.multi_get(keys)
            assert np.array_equal(decode_vectors(raws, dim=16), matrix)
            store.close()
