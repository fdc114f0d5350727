"""Chunked draws read the stream a seed always produced.

The key choosers and the think-time process draw arrays and hand the
values out one at a time (:mod:`repro.data.draws`).  What must hold:

* NumPy fills an array from the same bit stream as that many scalar
  calls — the premise, asserted here rather than assumed;
* ``batch(n)`` ≡ ``n × next_key()`` ≡ the scalar reference
  (``fnv1a_64(_next_rank(u)) % item_count`` over ``rng.random()``), for
  any interleaving of the two verbs and any chunk size;
* ``batch(0)`` is an empty ``int64`` array that moves no cursor;
* a zero-mean think time draws nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ThinkTimeProcess, UniformGenerator, ZipfianGenerator
from repro.data import draws
from repro.data.ycsb import fnv1a_64, fnv1a_64_many

ITEM_COUNTS = [2, 10, 1_000, 100_000, 10**7]
SEEDS = [0, 1, 20241002]

#: Reads of one stream, mixing both verbs: ``0`` is ``next_key()`` and a
#: positive ``n`` is ``batch(n)`` — including a batch that ends inside a
#: chunk, one that spans two, and one asked for right after a refill.
READS = [0, 0, 5, 0, 4090, 0, 0, 3, 5000, 0, 1, 0]
TOTAL = sum(n or 1 for n in READS)


@pytest.fixture(autouse=True, scope="module")
def cheap_zeta():
    """``zeta(10**7)`` in one piece is three 80 MB temporaries and seconds
    of first-touch page faults: sum it in 1M-element pieces, once.  The
    constant's last bits differ from the one-shot sum, which none of the
    equivalences here depends on (every side reads the same generator)."""
    import functools

    original = ZipfianGenerator._zeta

    @functools.lru_cache(maxsize=None)
    def pieces(n, theta):
        step = 1 << 20
        return sum(
            float((1.0 / np.power(np.arange(start, min(start + step, n + 1), dtype=np.float64),
                                  theta)).sum())
            for start in range(1, n + 1, step)
        )

    ZipfianGenerator._zeta = staticmethod(pieces)
    yield
    ZipfianGenerator._zeta = staticmethod(original)


def read(generator, reads=READS) -> list[int]:
    out: list[int] = []
    for n in reads:
        if n == 0:
            out.append(generator.next_key())
        else:
            keys = generator.batch(n)
            assert keys.dtype == np.int64 and keys.shape == (n,)
            out.extend(keys.tolist())
    return out


def zipfian_reference(item_count: int, seed: int, count: int) -> list[int]:
    """The pre-chunking ``next_key()``: one scalar draw, scalar rank, scalar FNV."""
    generator = ZipfianGenerator(item_count, seed=seed)
    rng = np.random.default_rng(seed)
    return [
        fnv1a_64(generator._next_rank(float(rng.random()))) % item_count
        for _ in range(count)
    ]


def uniform_reference(item_count: int, seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(rng.integers(0, item_count)) for _ in range(count)]


class TestNumpyPremise:
    """Array fills and repeated scalar calls consume one bit stream."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_exponential_integers(self, seed):
        n = 3000
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert a.random(n).tolist() == [float(b.random()) for _ in range(n)]
        assert a.exponential(20e-6, n).tolist() == [
            float(b.exponential(20e-6)) for _ in range(n)
        ]
        for high in (2, 1_000, 10**7, 1 << 40):
            assert a.integers(0, high, n).tolist() == [
                int(b.integers(0, high)) for _ in range(n)
            ]
        # ... and the two generators are still in step afterwards.
        assert float(a.random()) == float(b.random())


class TestFnvArray:
    def test_matches_scalar_hash(self):
        values = np.array([0, 1, 2, 255, 256, 10**7, 2**40 + 12345, 2**62], dtype=np.int64)
        assert fnv1a_64_many(values).tolist() == [fnv1a_64(int(v)) for v in values]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("item_count", ITEM_COUNTS)
class TestKeyStreams:
    def test_zipfian_batch_next_key_and_reference_agree(self, item_count, seed):
        reference = zipfian_reference(item_count, seed, TOTAL)
        assert read(ZipfianGenerator(item_count, seed=seed)) == reference
        assert ZipfianGenerator(item_count, seed=seed).batch(TOTAL).tolist() == reference
        one_by_one = ZipfianGenerator(item_count, seed=seed)
        assert [one_by_one.next_key() for _ in range(TOTAL)] == reference
        assert 0 <= min(reference) and max(reference) < item_count

    def test_uniform_batch_next_key_and_reference_agree(self, item_count, seed):
        reference = uniform_reference(item_count, seed, TOTAL)
        assert read(UniformGenerator(item_count, seed=seed)) == reference
        assert UniformGenerator(item_count, seed=seed).batch(TOTAL).tolist() == reference


@pytest.mark.parametrize("chunk", [1, 7])
class TestChunkSizeIsInvisible:
    READS = [0, 0, 3, 0, 20, 0, 7, 0, 0]

    def test_key_streams(self, monkeypatch, chunk):
        total = sum(n or 1 for n in self.READS)
        monkeypatch.setattr(draws, "DRAW_CHUNK", chunk)
        assert read(ZipfianGenerator(1000, seed=3), self.READS) == zipfian_reference(
            1000, 3, total
        )
        assert read(UniformGenerator(1000, seed=3), self.READS) == uniform_reference(
            1000, 3, total
        )

    def test_think_times(self, monkeypatch, chunk):
        monkeypatch.setattr(draws, "DRAW_CHUNK", chunk)
        think = ThinkTimeProcess(20e-6, seed=5)
        rng = np.random.default_rng(5)
        assert [think.sample() for _ in range(40)] == [
            float(rng.exponential(20e-6)) for _ in range(40)
        ]


class TestEmptyBatch:
    @pytest.mark.parametrize("make", [ZipfianGenerator, UniformGenerator])
    def test_batch_of_zero_is_empty_and_draws_nothing(self, monkeypatch, make):
        """``batch(0)`` — before the first refill, mid-chunk and at a
        chunk's end — is an empty ``int64`` array and moves no cursor."""
        monkeypatch.setattr(draws, "DRAW_CHUNK", 2)
        reads = [1, 0, 2]
        expected = read(make(1000, seed=4), reads)
        generator = make(1000, seed=4)
        out = []
        for n in reads:
            empty = generator.batch(0)
            assert empty.dtype == np.int64 and empty.shape == (0,)
            out.extend(read(generator, [n]))
        assert out == expected


class TestBoundaryRecompute:
    def test_rank_next_to_an_integer_goes_through_the_scalar_code(self, monkeypatch):
        """A draw whose scaled rank sits on an integer is where an ulp of
        ``pow`` flips the truncation: those elements must be re-derived
        by ``_next_rank``, the others must not."""
        generator = ZipfianGenerator(1000, seed=1)
        # eta * u - eta + 1 == 1 exactly at u = 1: 1000 * 1 ** alpha is
        # the integer 1000 whatever pow's last bit.  random() never
        # returns 1.0, so plant it.
        planted = np.array([0.5, 1.0, 0.75])
        monkeypatch.setattr(generator, "_rng", type("R", (), {"random": lambda self, n: planted})())
        seen = []
        scalar = generator._next_rank
        monkeypatch.setattr(generator, "_next_rank", lambda u: seen.append(u) or scalar(u))
        keys = generator._draw(3)
        assert seen == [1.0]
        assert keys.tolist() == [fnv1a_64(scalar(float(u))) % 1000 for u in planted]


class TestThinkTime:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_samples_are_the_scalar_stream(self, seed):
        think = ThinkTimeProcess(3e-3, seed=seed)
        rng = np.random.default_rng(seed)
        count = draws.DRAW_CHUNK + 50  # across a refill
        assert [think.sample() for _ in range(count)] == [
            float(rng.exponential(3e-3)) for _ in range(count)
        ]

    def test_zero_mean_draws_nothing(self, monkeypatch):
        think = ThinkTimeProcess(0.0, seed=1)
        monkeypatch.setattr(draws, "DRAW_CHUNK", -1)  # any draw would raise
        assert [think.sample() for _ in range(5)] == [0.0] * 5
        assert isinstance(think.sample(), float)
