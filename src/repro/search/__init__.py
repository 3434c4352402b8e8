"""Query execution: parsing, scoring, traversal, top-k, and merging.

The index serving node's query path is: parse + analyze the query,
fetch the postings of each term, traverse them (document-at-a-time by
default), score candidates with BM25, keep the top-k in a bounded heap,
and — when the index is partitioned — merge the per-shard top-k lists.
Every stage lives in its own module here.
"""

from repro.search.block_max_wand import score_block_max_wand
from repro.search.daat import score_daat
from repro.search.global_stats import (
    GlobalStats,
    collect_global_stats,
    global_scorer_factory,
)
from repro.search.executor import SearchResult, Searcher, ShardSearcher
from repro.search.intersection import intersect_gallop, intersect_merge
from repro.search.merger import merge_shard_results
from repro.search.phrase import parse_phrase, phrase_frequency, score_phrase
from repro.search.query import ParsedQuery, QueryMode, QueryParser
from repro.search.scoring import (
    BM25Scorer,
    Scorer,
    TfIdfScorer,
    global_bm25_scorer,
    resolve_idf,
)
from repro.search.strategy import TraversalStats, TraversalStrategy
from repro.search.taat import score_taat
from repro.search.topk import SearchHit, TopKHeap
from repro.search.wand import score_wand

__all__ = [
    "ParsedQuery",
    "QueryMode",
    "QueryParser",
    "BM25Scorer",
    "TfIdfScorer",
    "Scorer",
    "global_bm25_scorer",
    "resolve_idf",
    "GlobalStats",
    "collect_global_stats",
    "global_scorer_factory",
    "SearchHit",
    "TopKHeap",
    "score_daat",
    "score_taat",
    "score_wand",
    "score_block_max_wand",
    "TraversalStrategy",
    "TraversalStats",
    "score_phrase",
    "parse_phrase",
    "phrase_frequency",
    "intersect_gallop",
    "intersect_merge",
    "Searcher",
    "ShardSearcher",
    "SearchResult",
    "merge_shard_results",
]
