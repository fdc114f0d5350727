"""Binary record and vector encodings shared by the engines.

Records are length-prefixed ``(key, value)`` pairs::

    [u64 key][u32 value_len][value bytes]

Embedding vectors are float32 little-endian arrays with a one-byte dtype
tag so recovery can validate dimensions.

The per-record functions (:func:`encode_record` / :func:`decode_record`,
:func:`encode_vector` / :func:`decode_vector`) are the framing reference;
the WAL frames its records with :data:`RECORD_HEADER` under its own op
tags.  A batch of vectors moves as one matrix: the embedding facade frames
it for the stores' array verbs (:func:`frame_vectors` /
:func:`unframe_vectors`), and :func:`encode_vectors` /
:func:`decode_vectors` cut the same framing into rows for callers of the
list verbs — one buffer per batch, not one per row.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

#: The ``[u64 key][u32 value_len]`` record header, for callers that
#: interleave their own framing (the WAL's op tags) with the shared layout.
RECORD_HEADER = struct.Struct("<QI")
_VECTOR_TAG_F32 = 0x01


def encode_record(key: int, value: bytes) -> bytes:
    """Serialize one record for the log / SSTable / page payloads."""
    if key < 0:
        raise ValueError("keys must be non-negative integers")
    if not isinstance(value, bytes):
        value = bytes(value)  # accept memoryviews (encode_vectors' rows)
    return RECORD_HEADER.pack(key, len(value)) + value


def decode_record(buffer: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Decode a record at ``offset``; returns ``(key, value, next_offset)``."""
    if offset + RECORD_HEADER.size > len(buffer):
        raise ValueError("truncated record header")
    key, value_len = RECORD_HEADER.unpack_from(buffer, offset)
    start = offset + RECORD_HEADER.size
    end = start + value_len
    if end > len(buffer):
        raise ValueError("truncated record")
    return key, bytes(buffer[start:end]), end


def record_size(value_len: int) -> int:
    """On-disk size of a record holding ``value_len`` value bytes."""
    return RECORD_HEADER.size + value_len


def encode_vector(vector: np.ndarray) -> bytes:
    """Serialize a float32 embedding vector."""
    arr = np.ascontiguousarray(vector, dtype=np.float32)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return bytes([_VECTOR_TAG_F32]) + arr.tobytes()

def decode_vector(data: bytes, dim: int | None = None) -> np.ndarray:
    """Deserialize a vector, optionally validating its dimension."""
    if not data or data[0] != _VECTOR_TAG_F32:
        raise ValueError("not an encoded float32 vector")
    arr = np.frombuffer(data, dtype=np.float32, offset=1).copy()
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected dim {dim}, got {arr.shape[0]}")
    return arr


# ----------------------------------------------------------------------
# batch vector codec: contiguous (n, dim) matrices in and out
# ----------------------------------------------------------------------
def framed_width(dim: int) -> int:
    """Bytes of one framed ``dim``-vector: the tag and the float32s."""
    return 1 + 4 * dim


def frame_vectors(matrix: np.ndarray) -> np.ndarray:
    """A ``(n, dim)`` float32 matrix as a ``uint8[n, framed_width(dim)]``
    one: row ``i`` is :func:`encode_vector` of vector ``i``, byte for byte
    — what :meth:`~repro.kv.api.KVStore.put_rows` takes."""
    arr = np.ascontiguousarray(matrix, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"expected a (n, dim) matrix, got shape {arr.shape}")
    framed = np.empty((arr.shape[0], framed_width(arr.shape[1])), dtype=np.uint8)
    framed[:, 0] = _VECTOR_TAG_F32
    framed[:, 1:] = arr.view(np.uint8)
    return framed


def unframe_vectors(framed: np.ndarray) -> np.ndarray:
    """The inverse of :func:`frame_vectors`: a new, writable float32 matrix;
    every row's tag is validated."""
    if not (framed[:, 0] == _VECTOR_TAG_F32).all():
        raise ValueError("not an encoded float32 vector")
    return np.ascontiguousarray(framed[:, 1:]).view(np.float32)


def encode_vectors(matrix: np.ndarray) -> list[memoryview]:
    """:func:`frame_vectors` for the list verbs: per-row encodings.

    The whole batch is rendered into **one** immutable buffer; the
    returned read-only memoryviews alias it (safe to retain — the backing
    bytes cannot be mutated or reused).  Engines accept these views
    anywhere a value is expected.
    """
    framed = frame_vectors(matrix)
    n, record = framed.shape
    view = memoryview(framed.tobytes())
    return [view[i * record : (i + 1) * record] for i in range(n)]


def decode_vectors(
    raws: Sequence[Optional[bytes]],
    dim: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Decode a batch of encoded vectors into one ``(n, dim)`` matrix.

    ``raws`` must hold no ``None`` entries (callers resolve misses
    first).  The fast path joins the encodings and strips the tag bytes
    with two vectorized passes — no per-row decode calls; validation
    (tag + dimension) still covers every row.  ``out`` reuses a caller
    buffer.
    """
    n = len(raws)
    if out is None:
        out = np.empty((n, dim), dtype=np.float32)
    if n == 0:
        return out
    record = 1 + 4 * dim
    try:
        joined = b"".join(raws)
    except TypeError:
        raise ValueError("decode_vectors cannot decode absent (None) entries")
    if len(joined) != n * record:
        # Mixed lengths: fall back to the per-row path for a precise error.
        for i, raw in enumerate(raws):
            out[i] = decode_vector(raw, dim=dim)
        return out
    out[:] = unframe_vectors(np.frombuffer(joined, dtype=np.uint8).reshape(n, record))
    return out
