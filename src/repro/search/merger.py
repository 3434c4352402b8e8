"""Merging per-shard top-k results.

With intra-server partitioning, each shard returns its local top-k; the
merge keeps the global best k by score.  The benchmark (like Lucene's
multi-segment search at the time) merges by score with shard-local
statistics, which is exactly what this function does — the ranking
deviation this introduces versus an unpartitioned index is one of the
functional behaviours the characterization study measures.
"""

from __future__ import annotations

from heapq import merge
from itertools import islice
from typing import Iterable, List, Sequence

from repro.search.topk import SearchHit


def merge_shard_results(
    shard_hits: Iterable[Sequence[SearchHit]], k: int
) -> List[SearchHit]:
    """Merge per-shard hit lists into the global top-k (best first).

    Each list must already be best first — score descending, ties
    toward the lower doc id, as every traversal returns it — and carry
    collection-global doc ids (``ShardSearcher`` does this).  The
    merged list holds the shards' own hit objects.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    shards = [hits for hits in shard_hits if hits]
    return list(islice(merge(*shards, key=SearchHit.sort_key), k))
