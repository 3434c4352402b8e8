"""Binary (de)serialization of inverted indexes.

The on-disk format mirrors a classic search index layout: a header, the
document-length table, then the dictionary interleaved with compressed
postings blocks (delta-gapped doc ids, varint-coded).  The analyzer
configuration is stored so a loaded index normalizes queries exactly
like the index that produced it.

Format (all integers varint unless noted)::

    magic    4 bytes  b"RIDX"
    version  1 byte
    flags    1 byte   bit0=lowercase bit1=remove_stopwords bit2=stem
    max_token_length
    checksum 4 bytes  crc32 (little-endian) of the body below  [v2+]
    block_size                                                 [v3+]
    num_documents
    doc_lengths[num_documents]
    num_terms
    repeat num_terms times:
        term_utf8_length, term_utf8_bytes
        postings block (see repro.index.compression.encode_postings)
        repeat ceil(num_postings / block_size) times:          [v3+]
            last_doc_id_delta   (gap from the previous block's last id,
                                 starting from -1)
            block_max_term_frequency
            block_min_doc_length

Version 2 adds the body checksum: every segment read verifies the
postings it parsed against the stored crc32 and raises
:class:`CorruptedIndexError` on mismatch — a flipped bit in a postings
block is detected instead of silently mis-scoring queries (and the
chaos harness relies on exactly this detection).  Version-1 payloads
(no checksum) still load.

Version 3 stores the per-block metadata (block skip pointer, local
max term frequency, local min document length) the Block-Max WAND
traversal prunes with, so a loaded index skips blocks without
re-deriving the maxima.  The block section sits inside the body, so
the v2 crc32 covers it unchanged.  v1/v2 payloads still load — their
block metadata is derived as they load, as the builder derives it.

The default stopword set is assumed; custom stopword sets are not
persisted (raise at save time rather than silently dropping them).
"""

from __future__ import annotations

import io
import zlib
from typing import List, Optional, Tuple

import numpy as np

from repro.index.blockmax import DEFAULT_BLOCK_SIZE, block_arrays
from repro.index.compression import (
    decode_postings,
    decode_varint,
    encode_postings,
    encode_varint,
)
from repro.index.inverted import InvertedIndex, PostingsLayout
from repro.text.analyzer import Analyzer, AnalyzerConfig
from repro.text.stopwords import DEFAULT_STOPWORDS

_MAGIC = b"RIDX"
_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
_CHECKSUM_BYTES = 4


class CorruptedIndexError(ValueError):
    """A stored index failed its integrity check on read.

    Raised when a version-2 payload's crc32 does not match its body, or
    when corruption makes the body unparseable — the storage-level
    fault the resilience chaos harness injects and expects detected.
    """


def serialize_index(index: InvertedIndex, version: int = _VERSION) -> bytes:
    """Serialize ``index`` to bytes in the RIDX format.

    ``version`` selects the on-disk format revision; older revisions
    remain writable so compatibility tests can produce genuine legacy
    payloads (v1: no checksum, v2: checksum, v3: + block metadata).
    """
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported RIDX version {version}")
    config = index.analyzer.config
    if config.remove_stopwords and config.stopwords != DEFAULT_STOPWORDS:
        raise ValueError(
            "custom stopword sets are not persistable; "
            "use the default stopword set or disable stopword removal"
        )
    body = io.BytesIO()
    if version >= 3:
        body.write(encode_varint(index.block_size))
    body.write(encode_varint(index.num_documents))
    for length in index.doc_lengths:
        body.write(encode_varint(int(length)))
    body.write(encode_varint(index.num_terms))
    for term_id in range(index.num_terms):
        term = index.dictionary.term_for_id(term_id)
        term_bytes = term.encode("utf-8")
        body.write(encode_varint(len(term_bytes)))
        body.write(term_bytes)
        body.write(encode_postings(*index.postings_for_id(term_id)))
        if version >= 3:
            blocks = index.block_metadata_for_id(term_id)
            previous = -1
            for position in range(blocks.num_blocks):
                last_doc_id = int(blocks.last_doc_ids[position])
                body.write(encode_varint(last_doc_id - previous))
                body.write(encode_varint(int(blocks.max_frequencies[position])))
                body.write(encode_varint(int(blocks.min_doc_lengths[position])))
                previous = last_doc_id
    payload = body.getvalue()

    out = io.BytesIO()
    out.write(_MAGIC)
    out.write(bytes([version]))
    flags = (
        (1 if config.lowercase else 0)
        | (2 if config.remove_stopwords else 0)
        | (4 if config.stem else 0)
    )
    out.write(bytes([flags]))
    out.write(encode_varint(config.max_token_length))
    if version >= 2:
        out.write(zlib.crc32(payload).to_bytes(_CHECKSUM_BYTES, "little"))
    out.write(payload)
    return out.getvalue()


def deserialize_index(data: bytes) -> InvertedIndex:
    """Reconstruct an index from RIDX bytes.

    Version-2 payloads are verified against their stored body checksum;
    corruption raises :class:`CorruptedIndexError` whether it breaks the
    parse or merely perturbs the postings.
    """
    if data[:4] != _MAGIC:
        raise ValueError("not a RIDX index (bad magic)")
    version = data[4]
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported RIDX version {version}")
    flags = data[5]
    offset = 6
    max_token_length, offset = decode_varint(data, offset)
    stored_checksum = None
    if version >= 2:
        if len(data) < offset + _CHECKSUM_BYTES:
            raise CorruptedIndexError("RIDX payload truncated in header")
        stored_checksum = int.from_bytes(
            data[offset : offset + _CHECKSUM_BYTES], "little"
        )
        offset += _CHECKSUM_BYTES
    body_start = offset
    analyzer = Analyzer(
        config=AnalyzerConfig(
            lowercase=bool(flags & 1),
            remove_stopwords=bool(flags & 2),
            stem=bool(flags & 4),
            max_token_length=max_token_length,
        )
    )
    block_size = DEFAULT_BLOCK_SIZE
    try:
        if version >= 3:
            block_size, offset = decode_varint(data, offset)
            if block_size <= 0:
                raise ValueError(f"invalid block size {block_size}")
        num_documents, offset = decode_varint(data, offset)
        doc_lengths = np.empty(num_documents, dtype=np.int64)
        for index_position in range(num_documents):
            value, offset = decode_varint(data, offset)
            doc_lengths[index_position] = value
        num_terms, offset = decode_varint(data, offset)
        terms: List[str] = []
        postings: List[Tuple[np.ndarray, np.ndarray]] = []
        stored_blocks: Optional[List[np.ndarray]] = None
        if version >= 3:
            stored_blocks = []
        for _ in range(num_terms):
            term_length, offset = decode_varint(data, offset)
            terms.append(data[offset : offset + term_length].decode("utf-8"))
            offset += term_length
            doc_ids, frequencies, offset = decode_postings(data, offset)
            postings.append((doc_ids, frequencies))
            if stored_blocks is not None:
                # Rows: last doc id, max term frequency, min doc length.
                blocks = np.empty(
                    (3, -(-doc_ids.size // block_size)), dtype=np.int64
                )
                previous = -1
                for position in range(blocks.shape[1]):
                    gap, offset = decode_varint(data, offset)
                    previous += gap
                    blocks[0, position] = previous
                    blocks[1, position], offset = decode_varint(data, offset)
                    blocks[2, position], offset = decode_varint(data, offset)
                stored_blocks.append(blocks)
        index = InvertedIndex(
            terms,
            _layout(postings, stored_blocks, doc_lengths, block_size),
            doc_lengths,
            analyzer,
            block_size,
        )
    except (ValueError, IndexError, OverflowError, UnicodeDecodeError) as exc:
        if stored_checksum is None:
            raise
        # A checksummed payload that cannot even be parsed is corrupt
        # by definition — report it as such, not as a format quirk.
        raise CorruptedIndexError(
            f"RIDX body failed to parse (corrupt payload): {exc}"
        ) from exc
    if stored_checksum is not None:
        actual = zlib.crc32(data[body_start:offset])
        if actual != stored_checksum:
            raise CorruptedIndexError(
                f"RIDX body checksum mismatch: "
                f"stored {stored_checksum:#010x}, computed {actual:#010x}"
            )
    if offset != len(data):
        raise ValueError(f"trailing bytes after index: {len(data) - offset}")
    return index


def _layout(
    postings: List[Tuple[np.ndarray, np.ndarray]],
    stored_blocks: Optional[List[np.ndarray]],
    doc_lengths: np.ndarray,
    block_size: int,
) -> PostingsLayout:
    """Decoded lists, back to back, with their blocks: a v3 payload's
    stored ``(3, num_blocks)`` arrays, or derived for v1/v2."""
    empty = np.empty(0, dtype=np.int64)
    sizes = (ids.size for ids, _ in postings)
    offsets = np.cumsum([0, *sizes], dtype=np.int64)
    doc_ids = np.concatenate([empty, *(ids for ids, _ in postings)])
    frequencies = np.concatenate([empty, *(tfs for _, tfs in postings)])
    if stored_blocks is None:
        blocks = block_arrays(
            offsets, doc_ids, frequencies, doc_lengths, block_size
        )
    else:
        counts = [stored.shape[1] for stored in stored_blocks]
        blocks = (
            np.cumsum([0, *counts], dtype=np.int64),
            *np.concatenate([empty.reshape(3, 0), *stored_blocks], axis=1),
        )
    return PostingsLayout(offsets, doc_ids, frequencies, *blocks)
