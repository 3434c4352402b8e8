"""Inverted index: the data structure at the heart of the benchmark.

The benchmark's index serving node answers queries by intersecting and
scoring posting lists.  This package provides the full index stack:

- :mod:`repro.index.postings` — posting lists over dense doc ids;
- :mod:`repro.index.dictionary` — the term dictionary;
- :mod:`repro.index.builder` — builds an index from a document collection;
- :mod:`repro.index.inverted` — the queryable :class:`InvertedIndex`;
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
from repro.index.postings import PostingsList
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
    "PostingsList",
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
