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
  and builds each shard's index from **read-only views** into the
  mapping — no postings byte is copied, so worker resident-set cost is
  the dictionary plus page tables.

The image holds each shard index's
:class:`~repro.index.inverted.PostingsLayout` as it is, plus its
document lengths and global-id map; exporting writes those arrays and
attaching views them and calls the one ``InvertedIndex`` constructor,
which derives the dictionary's statistics from them.  The terms and
the analyzer travel inside the spec by pickle.

The attached index is *bit-identical* input to the scoring kernel:
views alias the exact arrays the parent would traverse, so BM25 floats
come out equal to the thread backend's, not just close.

Image word layout (all int64, per shard, shards concatenated)::

    offsets            num_terms + 1   prefix sums into doc_ids/frequencies
    doc_ids            total_postings
    frequencies        total_postings
    block_offsets      num_terms + 1   prefix sums into the block arrays
    last_doc_ids       total_blocks
    max_frequencies    total_blocks
    min_doc_lengths    total_blocks
    doc_lengths        num_documents
    global_doc_ids     num_documents
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import weakref
from dataclasses import dataclass
from typing import BinaryIO, Tuple

import numpy as np

from repro.index.inverted import InvertedIndex, PostingsLayout
from repro.index.partitioner import (
    IndexShard,
    PartitionedIndex,
    PartitionStrategy,
)
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

    ``terms`` is the shard's dictionary in dense term-id order and
    ``layout`` the slice of each :class:`PostingsLayout` field.
    """

    shard_id: int
    terms: Tuple[str, ...]
    block_size: int
    layout: Tuple[_Slice, ...]
    doc_lengths: _Slice
    global_doc_ids: _Slice


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
    return SharedShardSpec(
        shard_id=shard.shard_id,
        terms=tuple(index.dictionary.terms()),
        block_size=index.block_size,
        layout=tuple(map(writer.append, index.layout)),
        doc_lengths=writer.append(index.doc_lengths),
        global_doc_ids=writer.append(shard.global_doc_ids),
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
    layout = PostingsLayout(*(part.view(words) for part in spec.layout))
    index = InvertedIndex(
        spec.terms,
        layout,
        spec.doc_lengths.view(words),
        analyzer,
        spec.block_size,
    )
    return IndexShard(
        shard_id=spec.shard_id,
        index=index,
        global_doc_ids=spec.global_doc_ids.view(words),
    )


def attach_shared_index(spec: SharedIndexSpec) -> PartitionedIndex:
    """Map the image read-only and build the partitioned index on it.

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
