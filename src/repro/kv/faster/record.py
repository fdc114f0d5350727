"""Record layout and the 64-bit latch word (paper Figure 5a).

Every record begins with a single 64-bit word packed as::

    [ locked : 1 ][ replaced : 1 ][ generation : 30 ][ staleness : 32 ]

FASTER itself uses ``locked`` as a record-level latch, ``replaced`` to
signal that the record's memory address has been superseded by a newer
copy, and ``generation`` to detect stale reads.  MLKV implements its
latch-free vector clocks by *stealing the unused low 32 bits* for a
per-record staleness counter — a Get increments it, a Put decrements it,
and a Get admission spins until it is below the staleness bound.

Python has no hardware CAS on bytearrays; :class:`RecordWord` provides the
same primitive semantics (``compare_and_swap``, ``fetch_and_sub``-style
transitions) with a lock striped per word, which is faithful at the level
the paper's protocol needs: each transition is atomic, and contenders
observe either the old or the new word.
"""

from __future__ import annotations

import struct
import threading

import numpy as np

_WORD = struct.Struct("<Q")
_KEYLEN = struct.Struct("<QI")

#: word, key, value-length — prefix of every log record.
RECORD_HEADER_BYTES = _WORD.size + _KEYLEN.size

#: The same prefix as a packed NumPy record type, for the batched paths
#: that read many headers with one gather.
HEADER_DTYPE = np.dtype([("word", "<u8"), ("key", "<u8"), ("value_len", "<u4")])

_LOCKED_BIT = 1 << 63
_REPLACED_BIT = 1 << 62
_FLAGS_SHIFT = 62  # the two flag bits are the top of the word
_GENERATION_SHIFT = 32
_GENERATION_MASK = (1 << 30) - 1
_STALENESS_MASK = (1 << 32) - 1

#: Generation value 0 is reserved for log padding; live records start at 1.
FIRST_GENERATION = 1

#: Largest value the 32-bit staleness counter holds.
MAX_STALENESS = _STALENESS_MASK


def pack_word(locked: bool, replaced: bool, generation: int, staleness: int) -> int:
    """Assemble a 64-bit latch word from its fields."""
    if not 0 <= generation <= _GENERATION_MASK:
        raise ValueError(f"generation out of range: {generation}")
    if not 0 <= staleness <= _STALENESS_MASK:
        raise ValueError(f"staleness out of range: {staleness}")
    word = (generation << _GENERATION_SHIFT) | staleness
    if locked:
        word |= _LOCKED_BIT
    if replaced:
        word |= _REPLACED_BIT
    return word


def unpack_word(word: int) -> tuple[bool, bool, int, int]:
    """Split a latch word into ``(locked, replaced, generation, staleness)``."""
    return (
        bool(word & _LOCKED_BIT),
        bool(word & _REPLACED_BIT),
        (word >> _GENERATION_SHIFT) & _GENERATION_MASK,
        word & _STALENESS_MASK,
    )


def next_generation(generation: int) -> int:
    """Increment a 30-bit generation, wrapping past the padding value 0."""
    nxt = (generation + 1) & _GENERATION_MASK
    return nxt if nxt != 0 else FIRST_GENERATION


def word_flags(words: np.ndarray) -> np.ndarray:
    """The locked/replaced bit pair of each word; 0 means neither is set."""
    return words >> np.uint64(_FLAGS_SHIFT)


def word_staleness(words: np.ndarray) -> np.ndarray:
    """The staleness counter of each word."""
    return words & np.uint64(_STALENESS_MASK)


def released_words(words: np.ndarray, staleness: np.ndarray) -> np.ndarray:
    """Array form of ``pack_word(False, False, next_generation(g), s)``.

    The word an operation leaves behind when it releases a record: flags
    clear, generation of ``words`` advanced by one, ``staleness`` as given.
    """
    generation = ((words >> np.uint64(_GENERATION_SHIFT)) + np.uint64(1)) & np.uint64(
        _GENERATION_MASK
    )
    generation[generation == 0] = FIRST_GENERATION
    return (generation << np.uint64(_GENERATION_SHIFT)) | staleness


def replaced_words(words: np.ndarray) -> np.ndarray:
    """``words`` with the replaced bit set: copies a newer one supersedes."""
    return words | np.uint64(_REPLACED_BIT)


def restaled_words(words: np.ndarray, staleness: np.ndarray) -> np.ndarray:
    """``words`` with their staleness counters exchanged for ``staleness``."""
    return (words & ~np.uint64(_STALENESS_MASK)) | staleness


class RecordWord:
    """Atomic view of one record's latch word inside a log page.

    The word physically lives in ``page`` (any writable buffer: the log
    passes its page arena) at ``offset``; all transitions re-read and
    re-write it under a stripe lock, which emulates a hardware
    compare-and-swap.
    """

    _STRIPES = [threading.Lock() for _ in range(64)]

    def __init__(self, page, offset: int) -> None:
        self._page = page
        self._offset = offset
        self._lock = self._STRIPES[(id(page) ^ offset) % len(self._STRIPES)]

    def load(self) -> int:
        """Read the packed header word from the page."""
        return _WORD.unpack_from(self._page, self._offset)[0]

    def store(self, word: int) -> None:
        """Write the packed header word back to the page."""
        _WORD.pack_into(self._page, self._offset, word)

    def compare_and_swap(self, expected: int, desired: int) -> bool:
        """Atomically replace ``expected`` with ``desired``; False on race."""
        with self._lock:
            if self.load() != expected:
                return False
            self.store(desired)
            return True

    def fields(self) -> tuple[bool, bool, int, int]:
        """Unpack the header word into its fields."""
        return unpack_word(self.load())

    def set_replaced(self) -> None:
        """Mark this copy superseded and bump the generation (release step)."""
        with self._lock:
            locked, _, generation, staleness = unpack_word(self.load())
            self.store(pack_word(locked, True, next_generation(generation), staleness))


def encode_record_header(word: int, key: int, value_len: int) -> bytes:
    """Serialize the fixed header ``[word][key][value_len]``."""
    return _WORD.pack(word) + _KEYLEN.pack(key, value_len)


def encode_record_header_into(
    buffer, offset: int, word: int, key: int, value_len: int
) -> None:
    """Pack the fixed header directly into ``buffer`` at ``offset``.

    The zero-allocation twin of :func:`encode_record_header`: the append
    hot path writes headers straight into the log page instead of
    materializing an intermediate ``bytes`` per record.
    """
    _WORD.pack_into(buffer, offset, word)
    _KEYLEN.pack_into(buffer, offset + _WORD.size, key, value_len)


def decode_record_header(buffer, offset: int = 0) -> tuple[int, int, int]:
    """Decode the fixed header; returns ``(word, key, value_len)``."""
    word = _WORD.unpack_from(buffer, offset)[0]
    key, value_len = _KEYLEN.unpack_from(buffer, offset + _WORD.size)
    return word, key, value_len
