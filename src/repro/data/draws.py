"""Draws served out of array draws.

``Generator.random`` / ``.exponential`` / ``.integers`` fill an array
from the same bit stream as that many scalar calls, so a generator asked
for one value at a time (a user's next key, its next think time) draws
:data:`DRAW_CHUNK` at once (:class:`ChunkedStream`): same stream, one
NumPy call per chunk.

:class:`Categorical` is the one weighted draw: the integers NumPy's
``Generator.choice`` returns for weights ``p``, from a table built once
instead of a CDF rebuilt and binary-searched on every call.

:func:`_next_uint32s` and :func:`_lemire_draws` replay a run of scalar
bounded draws (``integers(0, n)``, ``choice`` of ``n`` items, the steps
of ``choice(replace=False)``) from one array of words; the neighbour
sampler and the KG tails draw through them.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

#: Values drawn per refill.
DRAW_CHUNK = 4096

#: Guide-table size: this many buckets per outcome, rounded up to a power
#: of two, and never more than :data:`GUIDE_MAX_BUCKETS` (256 KiB of
#: ``int64``) — past that a bucket spans several tail outcomes and a draw
#: landing there takes a few more bisection steps.
GUIDE_BUCKETS_PER_OUTCOME = 8
GUIDE_MAX_BUCKETS = 1 << 15


class ChunkedStream:
    """The stream ``draw(n)`` continues, read a value or ``n`` at a time.

    Keeps the current chunk as an array and as a list of Python scalars
    with an iterator over it, whose position is the stream's cursor.
    :meth:`take` slices the array from the cursor (joining slices across
    a refill) and moves the iterator past the slice.  ``next(scalars)``
    reads one value: :attr:`scalars` is a generator delegating to the
    iterator, the cheapest one-value read CPython has (a method call
    costs a Python frame more).  Every read, in any interleaving of the
    two, continues where the last one stopped.
    """

    __slots__ = ("_draw", "_chunk", "_values", "_cursor", "scalars")

    def __init__(self, draw: Callable[[int], np.ndarray]) -> None:
        self._draw = draw
        self._chunk = draw(0)  # empty, of the stream's dtype; draws nothing
        self._values: list = []
        self._cursor = iter(self._values)
        #: The stream as Python scalars.
        self.scalars: Iterator = self._read()

    def _refill(self) -> None:
        self._chunk = self._draw(DRAW_CHUNK)
        self._values = self._chunk.tolist()
        self._cursor = iter(self._values)

    def _read(self) -> Iterator:
        while True:
            cursor = self._cursor
            yield from cursor
            if self._cursor is cursor:  # take() did not refill meanwhile
                self._refill()

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` values, as an array (slices of the chunks)."""
        parts = []
        while True:
            end = len(self._values)
            at = end - self._cursor.__length_hint__()
            stop = min(at + n, end)
            parts.append(self._chunk[at:stop])
            self._cursor.__setstate__(stop)
            n -= stop - at
            if n <= 0:
                return parts[0] if len(parts) == 1 else np.concatenate(parts)
            self._refill()


class Categorical:
    """Exact draws of outcome ``i`` with probability ``p[i]``.

    ``draw(rng, shape)`` returns the integers ``rng.choice(len(p),
    size=shape, p=p)`` returns and leaves ``rng`` in the state it leaves
    it in.  ``choice`` checks ``p``, builds ``cdf = p.cumsum(); cdf /=
    cdf[-1]`` and answers ``cdf.searchsorted(rng.random(shape), "right")``
    on every call; this checks and builds once and answers the same
    uniforms through a guide table (Chen & Asau, 1974).

    The table has ``M`` buckets, ``M`` a power of two: uniform ``u`` falls
    in bucket ``b = floor(u * M)``, ``b / M <= u < (b + 1) / M``, with no
    rounding anywhere (scaling by a power of two and ``k / M`` are exact).
    The answer only grows with ``u``, so every ``u`` of bucket ``b`` is
    answered by an index between those of its first and last uniforms,
    ``searchsorted(cdf, b / M, "right")`` and ``searchsorted(cdf, (b + 1)
    / M, "left")`` (counted in one pass over the CDF, not searched).  A
    bucket whose two bounds agree holds one outcome and answers by
    lookup; a wider one is bisected between its bounds, comparing
    ``cdf[i] <= u`` as ``searchsorted(..., "right")`` does, in
    ``ceil(log2(widest bucket + 1))`` vectorized steps.
    """

    def __init__(self, p) -> None:
        # choice's checks, in its order, at its tolerance.
        atol = np.sqrt(np.finfo(np.float64).eps)
        if isinstance(p, np.ndarray) and np.issubdtype(p.dtype, np.floating):
            atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
        p = np.ascontiguousarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a non-empty 1-dimensional array")
        total = p.sum()
        if np.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > atol:
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        wanted = GUIDE_BUCKETS_PER_OUTCOME * p.size
        self.buckets = min(GUIDE_MAX_BUCKETS, 1 << (wanted - 1).bit_length())
        # Bucket b's first uniform is b / M, its last the double below
        # (b + 1) / M; their answers, by counting CDF values per bucket:
        # high[b] = #(cdf < (b + 1) / M) and low[b] = #(cdf <= b / M),
        # which is high[b - 1] plus the CDF values equal to b / M.
        scaled = cdf * self.buckets  # exact: M is a power of two
        bucket = scaled.astype(np.intp)
        upto = np.bincount(bucket, minlength=self.buckets + 1).cumsum()
        high = upto[:-1]
        low = np.bincount(bucket[scaled == bucket], minlength=self.buckets + 1)[:-1]
        low[1:] += upto[:-2]
        #: Per bucket: its one outcome, or ``~low`` where bisection starts.
        self.guide = np.where(low == high, low, ~low)
        #: Bisection steps, largest first: ``widest < 2 ** len(steps)``.
        self.steps = [1 << k for k in reversed(range(int((high - low).max()).bit_length()))]
        # Probes run up to ``2 ** len(steps) - 1`` past a bucket's low
        # bound; the padding (1.0 > every u) keeps them in the array.
        self._cdf = np.concatenate([cdf, np.ones(1 << len(self.steps))])

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """What ``rng.choice`` draws with these weights: integers and stream."""
        return self.locate(rng.random(shape))

    def locate(self, u: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(u, "right")`` (``int64``) for uniforms in [0, 1)."""
        found = self.guide[(u * self.buckets).astype(np.intp)]
        wide = np.flatnonzero(found < 0)
        if wide.size:
            flat = found.reshape(-1)
            values = u.reshape(-1)[wide]
            index = ~flat[wide]
            for step in self.steps:  # index + #(cdf[index:] <= u), bit by bit
                index += (self._cdf[index + (step - 1)] <= values) * step
            flat[wide] = index
        return found


def _next_uint32s(bit_generator: np.random.BitGenerator, n: int) -> np.ndarray:
    """The next ``n`` words ``bit_generator``'s ``next_uint32`` returns
    (``uint32``), leaving it where ``n`` calls would: numpy's integers
    over the whole 32-bit range are exactly those calls."""
    return np.random.Generator(bit_generator).integers(0, 1 << 32, n, dtype=np.uint32)


def _lemire_draws(words: np.ndarray, bounds: np.ndarray) -> np.ndarray | None:
    """Lemire's bounded integers in ``[0, bound]``, one word each, as numpy's
    ``random_bounded_uint64`` computes them from ``next_uint32`` words;
    ``None`` if any word falls under its rejection threshold (numpy would
    draw another word for it).  A bound of 0 answers 0 whatever its word,
    so callers put a 0 word where numpy draws none."""
    bound = bounds.astype(np.uint64)
    span = bound + np.uint64(1)
    scaled = words.astype(np.uint64)
    scaled *= span
    leftover = scaled & np.uint64(0xFFFFFFFF)
    # The threshold is below the span, so only a leftover under the bound
    # can fall under it; the division runs for those alone.
    near = leftover < bound
    if near.any() and (leftover[near] < (2**32 - span[near]) % span[near]).any():
        return None
    scaled >>= np.uint64(32)
    return scaled.view(np.int64)
