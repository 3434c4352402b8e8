"""A search reports the matched volume its traversal looked up.

``SearchResult.matched_volume`` — the per-query work proxy the
characterization and the calibration fit — is summed by the traversal
from the term lookups it makes anyway, instead of by a second
dictionary pass over the query's terms.  So every algorithm, on either
residency, must report exactly what ``matched_postings_volume`` counts
for the same terms: unknown terms count nothing, AND queries count
every term whether or not a document matches all of them, and a
shard's global id map changes nothing.
"""

from __future__ import annotations

import pytest

from repro.index.partitioner import partition_index
from repro.index.store import tier_index
from repro.search.executor import ALGORITHMS, Searcher, ShardSearcher
from repro.search.query import QueryMode

#: Terms no index here holds, spliced into every query.
UNKNOWN = ("zzzqqx", "xxyyzzw")


@pytest.fixture(scope="module")
def texts(small_query_log):
    queries = [query.text for query in list(small_query_log)[:30]]
    return queries + [
        f"{queries[0]} {UNKNOWN[0]}",
        f"{UNKNOWN[1]} {queries[1]} {UNKNOWN[0]}",
        " ".join(UNKNOWN),
        "",
    ]


@pytest.fixture(scope="module")
def tiered_index(small_index):
    return tier_index(small_index, cache_budget_bytes=64 << 10)


def modes(algorithm):
    """AND is exhaustive-only: the WAND family rejects it."""
    if algorithm in ("daat", "taat"):
        return (QueryMode.OR, QueryMode.AND)
    return (QueryMode.OR,)


def assert_volumes(searcher, index, texts, mode):
    checked = 0
    for text in texts:
        result = searcher.search(text, mode=mode, k=10)
        expected = index.matched_postings_volume(list(result.query.terms))
        assert result.matched_volume == expected, (text, mode)
        checked += expected > 0
    assert checked, "no query matched anything"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("residency", ["resident", "tiered"])
def test_volume_equals_the_index_count(
    small_index, tiered_index, texts, algorithm, residency
):
    index = small_index if residency == "resident" else tiered_index
    searcher = Searcher(index, algorithm=algorithm)
    for mode in modes(algorithm):
        # Twice: the second pass reads Block-Max WAND's memoised records.
        for _ in range(2):
            assert_volumes(searcher, index, texts, mode)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_volume_on_shards_with_global_ids(small_collection, texts, algorithm):
    for shard in partition_index(small_collection, 3):
        searcher = ShardSearcher(shard, algorithm=algorithm)
        for mode in modes(algorithm):
            assert_volumes(searcher, shard.index, texts, mode)


def test_and_query_with_an_unknown_term_still_counts_the_known_ones(
    small_index, texts
):
    for algorithm in ("daat", "taat"):
        result = Searcher(small_index, algorithm=algorithm).search(
            texts[30], mode=QueryMode.AND
        )
        assert result.hits == ()
        assert result.matched_volume > 0
        assert result.matched_volume == small_index.matched_postings_volume(
            list(result.query.terms)
        )
