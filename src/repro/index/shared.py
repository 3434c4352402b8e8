"""Zero-copy shared-memory export of a partitioned index.

The process execution backend (:mod:`repro.engine.mp`) needs every
worker to see the index's hot state — postings arrays, block-max
metadata, document lengths, global-id maps — without each process
paying a private copy of it.  This module provides that as a two-sided
contract:

- :class:`SharedIndexArena` (parent side) flattens a resident
  :class:`~repro.index.partitioner.PartitionedIndex` into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment holding a
  single int64 word array (every hot array in the index is int64), and
  describes the layout with a picklable :class:`SharedIndexSpec` of
  ``(offset, length)`` slices.
- :func:`attach_shared_index` (worker side) maps the segment and
  rebuilds a structurally identical ``PartitionedIndex`` whose numpy
  arrays are **read-only views** into the shared buffer — no postings
  byte is copied, so worker resident-set cost is the dictionary strings
  plus page tables.

Only array payloads live in shared memory.  The term dictionary (term
strings plus per-term statistics) and the analyzer travel inside the
spec by pickle: they are small next to postings, and term df is
recovered for free from the postings offset table.

The attached index is *bit-identical* input to the scoring kernel:
views alias the exact arrays the parent would traverse, so BM25 floats
come out equal to the thread backend's, not just close.

Segment word layout (all int64, per shard, shards concatenated)::

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

import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Tuple

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
    "AttachedSegment",
    "SharedIndexArena",
    "SharedIndexSpec",
    "SharedShardSpec",
    "attach_shared_index",
]


@dataclass(frozen=True)
class _Slice:
    """One array's placement in the shared word buffer."""

    offset: int
    length: int

    def view(self, words: np.ndarray) -> np.ndarray:
        return words[self.offset : self.offset + self.length]


@dataclass(frozen=True)
class SharedShardSpec:
    """Layout of one shard inside the shared segment.

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
    """Everything a worker needs to attach: segment name + layout.

    Picklable by construction — it crosses the process boundary once,
    in the worker pool's initializer.
    """

    shm_name: str
    total_words: int
    analyzer: Analyzer
    strategy: PartitionStrategy
    shards: Tuple[SharedShardSpec, ...]

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self.total_words * 8


class _LayoutWriter:
    """Accumulates arrays into one flat int64 buffer, recording slices."""

    def __init__(self) -> None:
        self.chunks: List[np.ndarray] = []
        self.cursor = 0

    def append(self, array: np.ndarray) -> _Slice:
        array = np.ascontiguousarray(array, dtype=np.int64)
        placed = _Slice(offset=self.cursor, length=int(array.size))
        self.chunks.append(array)
        self.cursor += int(array.size)
        return placed


def _export_shard(shard: IndexShard, writer: _LayoutWriter) -> SharedShardSpec:
    index = shard.index
    if not isinstance(index, InvertedIndex):
        raise TypeError(
            f"shard {shard.shard_id} holds a {type(index).__name__}; only "
            "resident InvertedIndex shards can be exported to shared "
            "memory (tiered indexes are re-tiered inside each worker)"
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


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # already unlinked (e.g. by a prior close)
        pass


class SharedIndexArena:
    """Owns the shared segment a partitioned index was exported into.

    Construction copies every hot array exactly once into shared
    memory; :attr:`spec` is the picklable attach descriptor for worker
    processes.  :meth:`close` unlinks the segment; a
    :mod:`weakref` finalizer guarantees the segment does not outlive
    the arena even if ``close`` is never called (leaked POSIX shm
    segments survive process exit, unlike leaked thread pools).
    """

    def __init__(self, partitioned: PartitionedIndex):
        writer = _LayoutWriter()
        shard_specs = tuple(
            _export_shard(shard, writer) for shard in partitioned
        )
        total_words = writer.cursor
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(8, total_words * 8)
        )
        words = np.frombuffer(self._shm.buf, dtype=np.int64)
        cursor = 0
        for chunk in writer.chunks:
            words[cursor : cursor + chunk.size] = chunk
            cursor += chunk.size
        del words  # release the buffer view before any later close()
        self.spec = SharedIndexSpec(
            shm_name=self._shm.name,
            total_words=total_words,
            analyzer=partitioned[0].index.analyzer,
            strategy=partitioned.strategy,
            shards=shard_specs,
        )
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm
        )

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unmap and unlink the shared segment (idempotent)."""
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


class AttachedSegment:
    """The worker-side mapping handle returned by :func:`attach_shared_index`.

    Holding it keeps the mapping (and therefore every postings view)
    alive; :meth:`close` releases it best-effort — if numpy views are
    still exported the mapping simply lives until process exit, which
    is harmless because attachers never own the segment.
    """

    def __init__(self, keepalive: object, close_fn: Callable[[], None]):
        self._keepalive = keepalive
        self._close_fn = close_fn
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._close_fn()
        except BufferError:
            pass


def attach_shared_index(
    spec: SharedIndexSpec,
) -> Tuple[PartitionedIndex, AttachedSegment]:
    """Map the exported segment and rebuild the partitioned index.

    Returns the index plus the :class:`AttachedSegment` handle keeping
    the mapping alive — the caller must hold the handle as long as the
    index is in use and ``close()`` it afterwards; the parent's
    :class:`SharedIndexArena` owns the segment's lifetime (attachers
    never unlink).

    On Linux the segment is mapped read-only straight off
    ``/dev/shm`` — this sidesteps :mod:`multiprocessing`'s resource
    tracker, which would otherwise count every attacher as an owner and
    try to unlink the parent's segment (or complain about "leaked"
    handles) at exit.  Elsewhere it falls back to
    :class:`~multiprocessing.shared_memory.SharedMemory` with an
    explicit tracker unregister.
    """
    shm_path = os.path.join("/dev/shm", spec.shm_name.lstrip("/"))
    if os.path.exists(shm_path):
        mapped = np.memmap(shm_path, dtype=np.int64, mode="r")
        # Plain (read-only) ndarray views: slices of an ``np.memmap``
        # stay memmaps, and every numpy op on one runs the subclass's
        # Python ``__array_finalize__``.  The handle keeps the map alive.
        words = mapped.view(np.ndarray)
        handle = AttachedSegment(mapped, mapped._mmap.close)
    else:  # pragma: no cover - non-Linux fallback
        shm = shared_memory.SharedMemory(name=spec.shm_name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        words = np.frombuffer(shm.buf, dtype=np.int64)
        words.flags.writeable = False  # read-only attach, enforced
        handle = AttachedSegment(shm, shm.close)
    shards = [
        _attach_shard(shard_spec, words, spec.analyzer)
        for shard_spec in spec.shards
    ]
    return PartitionedIndex(shards=shards, strategy=spec.strategy), handle
