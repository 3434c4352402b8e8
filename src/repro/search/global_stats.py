"""Global-statistics (distributed idf) scoring over a partitioned index.

With intra-server partitioning, each shard's document frequencies and
average document length drift from the collection-wide values, so
shard-local BM25 ranks slightly differently than the unpartitioned
index.  Distributed search engines fix this by scoring every shard with
*global* statistics.  :func:`global_scorer_factory` implements that:
it aggregates term statistics across all shards once, then hands every
shard searcher the same globally-weighted scorer, making partitioned
search rank **identically** to the unpartitioned index — an invariant
the test suite exploits heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.index.inverted import InvertedIndex
from repro.index.partitioner import PartitionedIndex
from repro.search.scoring import BM25Scorer, global_bm25_scorer


@dataclass(frozen=True)
class GlobalStats:
    """Collection-wide statistics aggregated over all shards."""

    num_documents: int
    average_doc_length: float
    term_document_frequencies: Dict[str, int]


def collect_global_stats(partitioned: PartitionedIndex) -> GlobalStats:
    """Aggregate document counts, lengths, and per-term dfs over shards."""
    num_documents = 0
    total_length = 0
    dfs: Dict[str, int] = {}
    for shard in partitioned:
        index = shard.index
        num_documents += index.num_documents
        total_length += int(index.doc_lengths.sum())
        dictionary = index.dictionary
        for term, df in zip(dictionary, dictionary.document_frequencies):
            dfs[term] = dfs.get(term, 0) + df
    average = total_length / num_documents if num_documents else 0.0
    return GlobalStats(
        num_documents=num_documents,
        average_doc_length=average,
        term_document_frequencies=dfs,
    )


def global_scorer_factory(
    partitioned: PartitionedIndex, k1: float = 1.2, b: float = 0.75
) -> Callable[[InvertedIndex], BM25Scorer]:
    """Build a scorer factory that scores every shard with global stats.

    Pass the result as ``scorer_factory`` to
    :class:`~repro.search.executor.ShardSearcher` (or to the engine's
    index serving node) to enable distributed-idf scoring.
    """
    stats = collect_global_stats(partitioned)
    scorer = global_bm25_scorer(
        num_documents=stats.num_documents,
        average_doc_length=stats.average_doc_length,
        term_document_frequencies=stats.term_document_frequencies,
        k1=k1,
        b=b,
    )
    return lambda _index: scorer
