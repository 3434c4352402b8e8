"""Intra-server index partitioning.

This module implements the mechanism at the center of the paper's
study: splitting one server's document collection into ``P`` disjoint
shards, each with its own (smaller) inverted index.  A query is then
executed against all shards in parallel and the per-shard top-k results
are merged.  Because BM25 scores are computed from *local* shard
statistics in the benchmark (as in Lucene/Solr at the time), shards
here are self-contained indexes; the merger combines by score.

Three document-to-shard assignment strategies are provided:

- ``ROUND_ROBIN`` — doc ``d`` goes to shard ``d mod P`` (the benchmark's
  default behaviour when feeding segments in crawl order);
- ``CONTIGUOUS`` — the collection is cut into ``P`` consecutive ranges;
- ``HASH`` — a deterministic hash of the doc id picks the shard.

For a synthetically shuffled corpus all three produce statistically
identical shards; they differ on corpora with temporal/topical locality,
which the ablation benchmark exercises.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex
from repro.text.analyzer import Analyzer


class PartitionStrategy(Enum):
    """How documents are assigned to intra-server partitions."""

    ROUND_ROBIN = "round_robin"
    CONTIGUOUS = "contiguous"
    HASH = "hash"


@dataclass(frozen=True)
class IndexShard:
    """One intra-server partition: a local index plus the global id map.

    Attributes
    ----------
    shard_id:
        Partition number in ``[0, num_partitions)``.
    index:
        Inverted index over the shard's documents with *local* dense ids.
    global_doc_ids:
        ``global_doc_ids[local_id]`` is the document's id in the full
        collection; used when merging shard results.
    """

    shard_id: int
    index: InvertedIndex
    global_doc_ids: np.ndarray

    def to_global(self, local_doc_id: int) -> int:
        """Translate a shard-local doc id to the collection-global id."""
        return int(self.global_doc_ids[local_doc_id])

    @property
    def num_documents(self) -> int:
        """Number of documents in this shard."""
        return self.index.num_documents


@dataclass(frozen=True)
class PartitionedIndex:
    """A server's index split into ``P`` self-contained shards."""

    shards: List[IndexShard]
    strategy: PartitionStrategy

    @property
    def num_partitions(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def num_documents(self) -> int:
        """Total documents across all shards."""
        return sum(shard.num_documents for shard in self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __getitem__(self, shard_id: int) -> IndexShard:
        return self.shards[shard_id]


def assign_documents(
    num_documents: int,
    num_partitions: int,
    strategy: PartitionStrategy = PartitionStrategy.ROUND_ROBIN,
) -> List[List[int]]:
    """Return, per shard, the sorted list of global doc ids assigned to it."""
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive, got {num_partitions}")
    if num_documents < 0:
        raise ValueError("num_documents must be non-negative")
    assignments: List[List[int]] = [[] for _ in range(num_partitions)]
    if strategy is PartitionStrategy.ROUND_ROBIN:
        for doc_id in range(num_documents):
            assignments[doc_id % num_partitions].append(doc_id)
    elif strategy is PartitionStrategy.CONTIGUOUS:
        boundaries = np.linspace(0, num_documents, num_partitions + 1).astype(int)
        for shard_id in range(num_partitions):
            assignments[shard_id] = list(
                range(int(boundaries[shard_id]), int(boundaries[shard_id + 1]))
            )
    elif strategy is PartitionStrategy.HASH:
        for doc_id in range(num_documents):
            digest = zlib.crc32(doc_id.to_bytes(8, "little"))
            assignments[digest % num_partitions].append(doc_id)
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown strategy {strategy}")
    return assignments


def partition_collection(
    collection: DocumentCollection,
    num_partitions: int,
    strategy: PartitionStrategy = PartitionStrategy.ROUND_ROBIN,
) -> List[DocumentCollection]:
    """Split ``collection`` into per-shard collections with local ids.

    The returned collections renumber documents densely from 0; use
    :func:`partition_index` to also retain the global id mapping.  A
    collection's token ids are split with it.
    """
    assignments = assign_documents(len(collection), num_partitions, strategy)
    tokens = collection.tokens
    shards: List[DocumentCollection] = []
    for shard_doc_ids in assignments:
        documents = [
            Document(
                doc_id=local_id,
                url=original.url,
                title=original.title,
                body=original.body,
            )
            for local_id, original in enumerate(collection.slice(shard_doc_ids))
        ]
        shards.append(
            DocumentCollection(
                documents, None if tokens is None else tokens.take(shard_doc_ids)
            )
        )
    return shards


def partition_index(
    collection: DocumentCollection,
    num_partitions: int,
    analyzer: Optional[Analyzer] = None,
    strategy: PartitionStrategy = PartitionStrategy.ROUND_ROBIN,
    block_size: Optional[int] = None,
) -> PartitionedIndex:
    """Partition ``collection`` and build one inverted index per shard.

    ``block_size`` tunes the Block-Max WAND metadata granularity of
    every shard index (defaults to the builder's 128).
    """
    assignments = assign_documents(len(collection), num_partitions, strategy)
    shard_collections = partition_collection(collection, num_partitions, strategy)
    if block_size is None:
        builder = IndexBuilder(analyzer=analyzer)
    else:
        builder = IndexBuilder(analyzer=analyzer, block_size=block_size)
    shards: List[IndexShard] = []
    for shard_id, (doc_ids, shard_collection) in enumerate(
        zip(assignments, shard_collections)
    ):
        shards.append(
            IndexShard(
                shard_id=shard_id,
                index=builder.build(shard_collection),
                global_doc_ids=np.asarray(doc_ids, dtype=np.int64),
            )
        )
    return PartitionedIndex(shards=shards, strategy=strategy)
