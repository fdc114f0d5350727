"""Binary record and vector encodings shared by the engines.

Records are length-prefixed ``(key, value)`` pairs::

    [u64 key][u32 value_len][value bytes]

Embedding vectors are float32 little-endian arrays with a one-byte dtype
tag so recovery can validate dimensions.

Two families of entry points exist.  The per-record functions
(:func:`encode_record` / :func:`decode_record`, :func:`encode_vector` /
:func:`decode_vector`) are the framing reference — one allocation per
record.  The batch variants (:func:`encode_records` /
:func:`decode_records`, :func:`encode_vectors` / :func:`decode_vectors`)
produce byte-identical framing but move a whole batch through **one**
preallocated buffer: ``struct.pack_into`` writes on the encode side,
``memoryview`` slices (no data copies) on the decode side.  A 10k-key
batch therefore costs O(1) buffer allocations instead of O(n), which is
what keeps the wall-clock hot paths (WAL group commit, process-pool
shard fan-out) off the allocator.  The embedding facade frames a batch of
vectors as one matrix (:func:`frame_vectors` / :func:`unframe_vectors`)
for the stores' array verbs; :func:`encode_vectors` / :func:`decode_vectors`
cut the same framing into rows for callers of the list verbs.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.obs.trace import span as obs_span

_RECORD_HEADER = struct.Struct("<QI")
#: Public alias of the ``[u64 key][u32 value_len]`` header struct for
#: callers that interleave their own framing (the WAL's op tags) while
#: reusing the shared record layout.
RECORD_HEADER = _RECORD_HEADER
_VECTOR_TAG_F32 = 0x01

#: value_len sentinel framing an absent value (``None``) in an optional
#: value stream; real values are capped far below it by the engines'
#: page/record size limits.
_ABSENT_LEN = 0xFFFFFFFF


def encode_record(key: int, value: bytes) -> bytes:
    """Serialize one record for the log / SSTable / page payloads."""
    if key < 0:
        raise ValueError("keys must be non-negative integers")
    if not isinstance(value, bytes):
        value = bytes(value)  # accept memoryviews from the batch codec
    return _RECORD_HEADER.pack(key, len(value)) + value


def decode_record(buffer: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Decode a record at ``offset``; returns ``(key, value, next_offset)``."""
    key, value_len = _RECORD_HEADER.unpack_from(buffer, offset)
    start = offset + _RECORD_HEADER.size
    end = start + value_len
    if end > len(buffer):
        raise ValueError("truncated record")
    return key, bytes(buffer[start:end]), end


def record_size(value_len: int) -> int:
    """On-disk size of a record holding ``value_len`` value bytes."""
    return _RECORD_HEADER.size + value_len


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
# batch record codec: one buffer per batch, not one per record
# ----------------------------------------------------------------------
def encoded_records_size(values: Sequence[bytes]) -> int:
    """Exact byte size of :func:`encode_records` over ``values``."""
    return _RECORD_HEADER.size * len(values) + sum(len(v) for v in values)


def encode_records(
    keys: Sequence[int],
    values: Sequence[bytes],
    out: Optional[bytearray] = None,
    offset: int = 0,
) -> bytearray:
    """Pack many records into one buffer; framing matches
    :func:`encode_record` byte for byte.

    ``out`` (grown as needed) lets callers reuse a scratch buffer across
    batches; the packed region is ``out[offset:offset + size]``.  Returns
    the buffer written.
    """
    if len(keys) != len(values):
        raise ValueError(
            f"encode_records requires equally many keys and values; "
            f"got {len(keys)} keys and {len(values)} values"
        )
    with obs_span("codec.encode_records", keys=len(keys)):
        header = _RECORD_HEADER.size
        n = len(keys)
        width = len(values[0]) if n else 0
        uniform = n > 1 and all(len(value) == width for value in values)
        size = n * (header + width) if uniform else encoded_records_size(values)
        if out is None:
            out = bytearray(offset + size)
        elif len(out) < offset + size:
            out.extend(b"\x00" * (offset + size - len(out)))
        if uniform:
            # Uniform-width batch (the embedding-record case): view the
            # destination as an (n, header + width) byte matrix and fill the
            # key, length and payload columns with three vectorized passes
            # instead of n pack calls.  int64 staging keeps numpy's
            # negative-int check (uint64 would silently wrap on NumPy 1.x);
            # 2**63.. keys fall through to the loop below, which handles the
            # full uint64 range.
            try:
                key_arr = np.asarray(keys, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                key_arr = None
            if key_arr is not None:
                if key_arr.min(initial=0) < 0:
                    raise ValueError("keys must be non-negative integers")
                framed = np.frombuffer(
                    out, dtype=np.uint8, count=size, offset=offset
                ).reshape(n, header + width)
                framed[:, :8] = (
                    np.ascontiguousarray(key_arr.astype("<u8")).reshape(n, 1).view(np.uint8)
                )
                framed[:, 8:header] = np.full((n, 1), width, dtype="<u4").view(np.uint8)
                framed[:, header:] = np.frombuffer(
                    b"".join(values), dtype=np.uint8
                ).reshape(n, width)
                return out
        pack = _RECORD_HEADER.pack_into
        cursor = offset
        for key, value in zip(keys, values):
            if key < 0:
                raise ValueError("keys must be non-negative integers")
            length = len(value)
            pack(out, cursor, key, length)
            cursor += header
            out[cursor : cursor + length] = value
            cursor += length
        return out


def decode_records(
    buffer, offset: int = 0, end: Optional[int] = None, copy: bool = True
):
    """Yield ``(key, value)`` for every record in ``buffer[offset:end]``.

    With ``copy=False`` the yielded values are :class:`memoryview` slices
    into ``buffer`` — zero copies, but the views alias the buffer: they
    are only valid while the buffer is alive and unmodified (reusing a
    scratch ``bytearray`` invalidates them; views over immutable ``bytes``
    are always safe to retain).  ``copy=True`` yields independent
    ``bytes``.  A record whose claimed length overruns ``end`` raises
    :class:`ValueError` ("truncated record") exactly like
    :func:`decode_record`.
    """
    view = memoryview(buffer)
    stop = len(view) if end is None else end
    unpack = _RECORD_HEADER.unpack_from
    header = _RECORD_HEADER.size
    cursor = offset
    while cursor < stop:
        if cursor + header > stop:
            raise ValueError("truncated record")
        key, value_len = unpack(view, cursor)
        start = cursor + header
        cursor = start + value_len
        if cursor > stop:
            raise ValueError("truncated record")
        value = view[start:cursor]
        yield key, (bytes(value) if copy else value)


# ----------------------------------------------------------------------
# optional-value stream: the shard fan-out's multi_get reply framing
# ----------------------------------------------------------------------
def encode_values(values: Sequence[Optional[bytes]]) -> bytearray:
    """Pack a positional stream of optional values into one buffer.

    Each entry is ``[u32 len][bytes]``; an absent value (``None``) is the
    length sentinel ``0xFFFFFFFF`` with no payload.  This is the reply
    framing of the process-pool shard executor: one buffer per sub-batch
    regardless of batch size.
    """
    with obs_span("codec.encode_values", keys=len(values)):
        parts = bytearray()
        pack = struct.pack
        for value in values:
            if value is None:
                parts += pack("<I", _ABSENT_LEN)
            else:
                length = len(value)
                if length >= _ABSENT_LEN:
                    raise ValueError(f"value of {length} bytes exceeds frame limit")
                parts += pack("<I", length)
                parts += value
        return parts


def decode_values(buffer, count: int) -> list[Optional[bytes]]:
    """Decode ``count`` optional values framed by :func:`encode_values`."""
    with obs_span("codec.decode_values", keys=count):
        view = memoryview(buffer)
        out: list[Optional[bytes]] = []
        cursor = 0
        unpack = struct.unpack_from
        for _ in range(count):
            if cursor + 4 > len(view):
                raise ValueError("truncated value stream")
            (length,) = unpack("<I", view, cursor)
            cursor += 4
            if length == _ABSENT_LEN:
                out.append(None)
                continue
            if cursor + length > len(view):
                raise ValueError("truncated value stream")
            out.append(bytes(view[cursor : cursor + length]))
            cursor += length
        if cursor != len(view):
            raise ValueError(
                f"value stream holds {len(view) - cursor} trailing byte(s) "
                f"beyond {count} values"
            )
        return out


# ----------------------------------------------------------------------
# batch vector codec: contiguous (n, dim) matrices in and out
# ----------------------------------------------------------------------
def frame_vectors(matrix: np.ndarray) -> np.ndarray:
    """A ``(n, dim)`` float32 matrix as a ``uint8[n, 1 + 4 * dim]`` one:
    row ``i`` is :func:`encode_vector` of vector ``i``, byte for byte —
    what :meth:`~repro.kv.api.KVStore.put_rows` takes."""
    arr = np.ascontiguousarray(matrix, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"expected a (n, dim) matrix, got shape {arr.shape}")
    framed = np.empty((arr.shape[0], 1 + 4 * arr.shape[1]), dtype=np.uint8)
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
