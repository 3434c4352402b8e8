"""Zero-copy export of a partitioned index as one mapped image file.

The process execution backend (:mod:`repro.engine.mp`) needs every
worker to see the index's hot state — postings arrays, block-max
metadata, document lengths, global-id maps — without each process
paying a private copy of it.  This module provides that as a two-sided
contract:

- :class:`SharedIndexArena` (parent side) writes a resident
  :class:`~repro.index.partitioner.PartitionedIndex` to **one** image
  file holding a single int64 word array (every hot array in the index
  is int64), and describes the layout with a picklable
  :class:`SharedIndexSpec` of ``(offset, length)`` slices.  The file
  lives in ``/dev/shm`` when that directory exists (so its pages are
  memory, not disk) and in :func:`tempfile.gettempdir` otherwise.
- :func:`attach_shared_index` (worker side) maps the image read-only
  and rebuilds a structurally identical ``PartitionedIndex`` whose
  numpy arrays are **read-only views** into the mapping — no postings
  byte is copied, so worker resident-set cost is the dictionary strings
  plus page tables.

Only array payloads live in the image.  The term dictionary (term
strings plus per-term statistics) and the analyzer travel inside the
spec by pickle: they are small next to postings, and term df is
recovered for free from the postings offset table.

The attached index is *bit-identical* input to the scoring kernel:
views alias the exact arrays the parent would traverse, so BM25 floats
come out equal to the thread backend's, not just close.

Image word layout (all int64, per shard, shards concatenated)::

    postings_offsets   num_terms + 1   prefix sums into doc_ids/frequencies
    doc_ids            total_postings
    frequencies        total_postings
    collection_freqs   num_terms
    doc_lengths        num_documents
    global_doc_ids     num_documents
    block_offsets      num_terms + 1   prefix sums into the block arrays
    block_last_ids     total_blocks
    block_max_freqs    total_blocks
    block_min_lengths  total_blocks
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import weakref
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple

import numpy as np

from repro.index.blockmax import BlockMetadata
from repro.index.dictionary import TermDictionary
from repro.index.inverted import InvertedIndex
from repro.index.partitioner import (
    IndexShard,
    PartitionedIndex,
    PartitionStrategy,
)
from repro.index.postings import PostingsList
from repro.text.analyzer import Analyzer

__all__ = [
    "SharedIndexArena",
    "SharedIndexSpec",
    "SharedShardSpec",
    "attach_shared_index",
]


@dataclass(frozen=True)
class _Slice:
    """One array's placement in the image's word array."""

    offset: int
    length: int

    def view(self, words: np.ndarray) -> np.ndarray:
        return words[self.offset : self.offset + self.length]


@dataclass(frozen=True)
class SharedShardSpec:
    """Layout of one shard inside the image.

    ``terms`` is the shard's dictionary in dense term-id order; per-term
    document frequency is implied by the postings offset table, so only
    collection frequencies need their own array.
    """

    shard_id: int
    terms: Tuple[str, ...]
    block_size: int
    postings_offsets: _Slice
    doc_ids: _Slice
    frequencies: _Slice
    collection_frequencies: _Slice
    doc_lengths: _Slice
    global_doc_ids: _Slice
    block_offsets: _Slice
    block_last_doc_ids: _Slice
    block_max_frequencies: _Slice
    block_min_doc_lengths: _Slice


@dataclass(frozen=True)
class SharedIndexSpec:
    """Everything a worker needs to attach: image path + layout.

    Picklable by construction — it crosses the process boundary once,
    in the worker pool's initializer.
    """

    path: str
    total_words: int
    analyzer: Analyzer
    strategy: PartitionStrategy
    shards: Tuple[SharedShardSpec, ...]

    @property
    def nbytes(self) -> int:
        """Size of the image in bytes."""
        return self.total_words * 8


def _image_dir() -> str:
    """Where images are written: memory-backed when the host has it."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


class _LayoutWriter:
    """Writes arrays one after another to an open file, recording slices."""

    def __init__(self, file: BinaryIO) -> None:
        self.file = file
        self.cursor = 0

    def append(self, array: np.ndarray) -> _Slice:
        array = np.ascontiguousarray(array, dtype=np.int64)
        placed = _Slice(offset=self.cursor, length=int(array.size))
        self.file.write(array)
        self.cursor += int(array.size)
        return placed


def _export_shard(shard: IndexShard, writer: _LayoutWriter) -> SharedShardSpec:
    index = shard.index
    if not isinstance(index, InvertedIndex):
        raise TypeError(
            f"shard {shard.shard_id} holds a {type(index).__name__}; only "
            "resident InvertedIndex shards can be exported to an index "
            "image (tiered indexes are re-tiered inside each worker)"
        )
    num_terms = index.num_terms
    postings = index.all_postings()

    postings_offsets = np.zeros(num_terms + 1, dtype=np.int64)
    postings_offsets[1:] = np.cumsum(
        np.asarray([len(p) for p in postings], dtype=np.int64)
    )
    doc_ids = (
        np.concatenate([p.doc_ids for p in postings])
        if postings
        else np.empty(0, dtype=np.int64)
    )
    frequencies = (
        np.concatenate([p.frequencies for p in postings])
        if postings
        else np.empty(0, dtype=np.int64)
    )
    collection_freqs = np.array(
        [p.collection_frequency() for p in postings], dtype=np.int64
    )

    metadata = [
        index.block_metadata_for_id(term_id) for term_id in range(num_terms)
    ]
    block_offsets = np.zeros(num_terms + 1, dtype=np.int64)
    block_offsets[1:] = np.cumsum(
        np.asarray([m.num_blocks for m in metadata], dtype=np.int64)
    )
    empty = np.empty(0, dtype=np.int64)
    block_last = (
        np.concatenate([m.last_doc_ids for m in metadata])
        if metadata
        else empty
    )
    block_max = (
        np.concatenate([m.max_frequencies for m in metadata])
        if metadata
        else empty
    )
    block_min = (
        np.concatenate([m.min_doc_lengths for m in metadata])
        if metadata
        else empty
    )

    return SharedShardSpec(
        shard_id=shard.shard_id,
        terms=tuple(index.dictionary.terms()),
        block_size=index.block_size,
        postings_offsets=writer.append(postings_offsets),
        doc_ids=writer.append(doc_ids),
        frequencies=writer.append(frequencies),
        collection_frequencies=writer.append(collection_freqs),
        doc_lengths=writer.append(index.doc_lengths),
        global_doc_ids=writer.append(shard.global_doc_ids),
        block_offsets=writer.append(block_offsets),
        block_last_doc_ids=writer.append(block_last),
        block_max_frequencies=writer.append(block_max),
        block_min_doc_lengths=writer.append(block_min),
    )


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


class SharedIndexArena:
    """Owns the image file a partitioned index was exported into.

    Construction writes every hot array exactly once to a fresh file
    (the parent never maps it); :attr:`spec` is the picklable attach
    descriptor for worker processes.  :meth:`close` unlinks the file; a
    :mod:`weakref` finalizer guarantees the file does not outlive the
    arena even if ``close`` is never called (a leaked file in
    ``/dev/shm`` holds its memory until reboot, unlike a leaked thread
    pool).  Workers that still map it keep their pages until they exit.
    """

    def __init__(self, partitioned: PartitionedIndex):
        fd, path = tempfile.mkstemp(prefix="repro-", dir=_image_dir())
        try:
            with open(fd, "wb") as file:
                writer = _LayoutWriter(file)
                shard_specs = tuple(
                    _export_shard(shard, writer) for shard in partitioned
                )
        except BaseException:
            _remove(path)
            raise
        self.spec = SharedIndexSpec(
            path=path,
            total_words=writer.cursor,
            analyzer=partitioned[0].index.analyzer,
            strategy=partitioned.strategy,
            shards=shard_specs,
        )
        self._finalizer = weakref.finalize(self, _remove, path)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink the image file (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "SharedIndexArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _attach_shard(
    spec: SharedShardSpec, words: np.ndarray, analyzer: Analyzer
) -> IndexShard:
    postings_offsets = spec.postings_offsets.view(words)
    doc_ids = spec.doc_ids.view(words)
    frequencies = spec.frequencies.view(words)
    collection_freqs = spec.collection_frequencies.view(words)
    block_offsets = spec.block_offsets.view(words)
    block_last = spec.block_last_doc_ids.view(words)
    block_max = spec.block_max_frequencies.view(words)
    block_min = spec.block_min_doc_lengths.view(words)

    dictionary = TermDictionary()
    postings: List[PostingsList] = []
    metadata: List[Optional[BlockMetadata]] = []
    for term_id, term in enumerate(spec.terms):
        lo = int(postings_offsets[term_id])
        hi = int(postings_offsets[term_id + 1])
        dictionary.add(
            term,
            document_frequency=hi - lo,
            collection_frequency=int(collection_freqs[term_id]),
        )
        postings.append(
            PostingsList.from_trusted_arrays(
                doc_ids[lo:hi], frequencies[lo:hi]
            )
        )
        blo = int(block_offsets[term_id])
        bhi = int(block_offsets[term_id + 1])
        metadata.append(
            BlockMetadata(
                block_size=spec.block_size,
                last_doc_ids=block_last[blo:bhi],
                max_frequencies=block_max[blo:bhi],
                min_doc_lengths=block_min[blo:bhi],
            )
        )
    index = InvertedIndex(
        dictionary=dictionary,
        postings=postings,
        doc_lengths=spec.doc_lengths.view(words),
        analyzer=analyzer,
        block_metadata=metadata,
        block_size=spec.block_size,
    )
    return IndexShard(
        shard_id=spec.shard_id,
        index=index,
        global_doc_ids=spec.global_doc_ids.view(words),
    )


def attach_shared_index(spec: SharedIndexSpec) -> PartitionedIndex:
    """Map the image read-only and rebuild the partitioned index.

    The parent's :class:`SharedIndexArena` owns the file's lifetime
    (attachers never unlink).  The mapping lives as long as any array
    of the returned index does: every view's ``base`` chain ends at it.
    """
    # Plain (read-only) ndarray views: slices of an ``np.memmap`` stay
    # memmaps, and every numpy op on one runs the subclass's Python
    # ``__array_finalize__``.
    words = np.memmap(spec.path, dtype=np.int64, mode="r").view(np.ndarray)
    shards = [
        _attach_shard(shard_spec, words, spec.analyzer)
        for shard_spec in spec.shards
    ]
    return PartitionedIndex(shards=shards, strategy=spec.strategy)
