"""Postings compression: delta gaps + variable-byte (varint) encoding.

Search indexes store doc ids as deltas between consecutive ids and
varint-encode the deltas — the classic scheme Lucene used at the time
of the paper.  We use it for on-disk serialization and for the index
size figures in the characterization tables.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.index.postings import check_postings


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a variable-length byte string."""
    if value < 0:
        raise ValueError(f"varint values must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    value = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise ValueError("truncated varint")
        byte = data[position]
        position += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, position
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def encode_varint_stream(values: Sequence[int]) -> bytes:
    """Encode a sequence of non-negative integers as concatenated varints."""
    out = bytearray()
    for value in values:
        out.extend(encode_varint(int(value)))
    return bytes(out)


def decode_varint_stream(data: bytes, count: int) -> List[int]:
    """Decode exactly ``count`` varints from ``data``."""
    values: List[int] = []
    offset = 0
    for _ in range(count):
        value, offset = decode_varint(data, offset)
        values.append(value)
    if offset != len(data):
        raise ValueError(
            f"trailing bytes after {count} varints: "
            f"{len(data) - offset} bytes unread"
        )
    return values


def encode_postings(doc_ids: np.ndarray, frequencies: np.ndarray) -> bytes:
    """Encode a postings list: count, then (gap, frequency) varint pairs.

    Doc ids are delta-gapped (first id stored as-is, subsequent ids as
    the difference to the previous id minus one — gaps are >= 1 because
    ids are strictly increasing, so we can save a little by biasing).
    """
    out = bytearray(encode_varint(len(doc_ids)))
    previous = -1
    for doc_id, frequency in zip(doc_ids.tolist(), frequencies.tolist()):
        out.extend(encode_varint(doc_id - previous - 1))
        out.extend(encode_varint(frequency))
        previous = doc_id
    return bytes(out)


def decode_postings(
    data: bytes, offset: int = 0
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Decode the postings list at ``offset`` of ``data``, in place.

    Returns ``(doc_ids, frequencies, next_offset)``: int64 arrays that
    :func:`~repro.index.postings.check_postings` has validated, and the
    offset just past the list.
    """
    count, offset = decode_varint(data, offset)
    doc_ids = np.empty(count, dtype=np.int64)
    frequencies = np.empty(count, dtype=np.int64)
    previous = -1
    for index in range(count):
        gap, offset = decode_varint(data, offset)
        frequency, offset = decode_varint(data, offset)
        doc_id = previous + gap + 1
        doc_ids[index] = doc_id
        frequencies[index] = frequency
        previous = doc_id
    check_postings(doc_ids, frequencies, np.array([0, count]))
    return doc_ids, frequencies, offset


def compressed_size(doc_ids: np.ndarray, frequencies: np.ndarray) -> int:
    """Size in bytes of the compressed form of a postings list."""
    return len(encode_postings(doc_ids, frequencies))
