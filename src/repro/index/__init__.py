"""Inverted index: the data structure at the heart of the benchmark.

The benchmark's index serving node answers queries by intersecting and
scoring posting lists.  An index is its layout: every postings list and
its block metadata back to back in a few int64 arrays, with a term → id
map beside them; a term's postings are views of those arrays, never an
object of their own.  This package provides the full index stack:

- :mod:`repro.index.postings` — the postings-list invariant and its check;
- :mod:`repro.index.dictionary` — the term → id map and term statistics;
- :mod:`repro.index.builder` — builds an index from a document collection;
- :mod:`repro.index.inverted` — the queryable :class:`InvertedIndex` and
  its :class:`~repro.index.inverted.PostingsLayout`;
- :mod:`repro.index.compression` — delta + varint postings codec;
- :mod:`repro.index.partitioner` — intra-server document partitioning,
  the mechanism the paper's central study sweeps;
- :mod:`repro.index.stats` — index statistics for the characterization;
- :mod:`repro.index.serialization` — binary save/load.

:mod:`repro.index.segments` is imported from the submodule only: it
pulls in :mod:`repro.search`, whose traversal modules read block
metadata from this package, so importing it here closes a cycle.
"""

from repro.index.builder import IndexBuilder
from repro.index.compression import (
    decode_postings,
    decode_varint_stream,
    encode_postings,
    encode_varint_stream,
)
from repro.index.dictionary import TermDictionary, TermInfo
from repro.index.inverted import InvertedIndex
from repro.index.partitioner import (
    IndexShard,
    PartitionedIndex,
    PartitionStrategy,
    partition_collection,
    partition_index,
)
from repro.index.positional import (
    PositionalIndex,
    PositionalIndexBuilder,
    PositionalPostings,
)
from repro.index.serialization import (
    load_index,
    load_positional_index,
    save_index,
    save_positional_index,
)
from repro.index.stats import IndexStatistics, compute_statistics

__all__ = [
    "IndexBuilder",
    "InvertedIndex",
    "TermDictionary",
    "TermInfo",
    "PositionalIndex",
    "PositionalIndexBuilder",
    "PositionalPostings",
    "IndexShard",
    "PartitionedIndex",
    "PartitionStrategy",
    "partition_collection",
    "partition_index",
    "IndexStatistics",
    "compute_statistics",
    "encode_postings",
    "decode_postings",
    "encode_varint_stream",
    "decode_varint_stream",
    "save_index",
    "load_index",
    "save_positional_index",
    "load_positional_index",
]
