"""A Block-Max WAND searcher's memoised term impacts against a fresh call.

On a resident index a ``Searcher`` running Block-Max WAND keeps, per
query term the index holds, the record ``_term_impacts`` builds: the
term's contributions, block bounds, M_t and θ seeds per ``k``.  None of
it depends on the query, so a searcher answering a log for the second
time — or from four threads at once, or at a different ``k`` — must
answer exactly what a memo-free ``score_block_max_wand`` call answers:
the same hits, bit for bit, and the same ``docs_scored`` and
``block_skips``.  The oracle cases below compare against that call and
against exhaustive DAAT only; ``TestMemoBound`` and
``TestTieredIndex::test_keeps_an_empty_memo`` look at the memo itself
(its bound, and that a tiered index never fills it).
"""

import sys
import threading

import numpy as np
import pytest

from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.index.builder import IndexBuilder
from repro.index.partitioner import partition_index
from repro.index.store import tier_index
from repro.search.block_max_wand import score_block_max_wand
from repro.search.daat import score_daat
from repro.search.executor import Searcher
from repro.search.query import ParsedQuery
from repro.search.strategy import TraversalStats

UNKNOWN = "zzzunseen"


def pairs(hits):
    return [(hit.doc_id, hit.score) for hit in hits]


@pytest.fixture(scope="module")
def indexes(small_collection, small_index):
    """Block size 128 (the default) and 4, where block bounds prune."""
    return {
        128: small_index,
        4: IndexBuilder(block_size=4).build(small_collection),
    }


@pytest.fixture(scope="module")
def queries(small_index, small_query_log):
    """The reference log parsed at k = 10, plus an unknown term."""
    searcher = Searcher(small_index)
    parsed = [searcher.parse(query.text, k=10) for query in small_query_log]
    parsed.append(ParsedQuery(terms=(UNKNOWN, parsed[0].terms[0]), k=10))
    return parsed


def memo_free(index, query, **options):
    """(hits, docs_scored, block_skips) of a fresh, memo-free call."""
    stats = TraversalStats()
    hits = score_block_max_wand(index, query, stats=stats, **options)
    return pairs(hits), stats.docs_scored, stats.block_skips


def answer(result):
    """The same triple, from a searcher's result."""
    return pairs(result.hits), result.docs_scored, result.blocks_skipped


class TestColdAndWarm:
    @pytest.mark.parametrize("block_size", [128, 4])
    @pytest.mark.parametrize("depth", [None, 12])
    def test_two_passes_equal_a_memo_free_call(
        self, indexes, queries, block_size, depth
    ):
        index = indexes[block_size]
        searcher = Searcher(index, algorithm="block_max_wand")
        expected = [
            memo_free(index, query, max_docs_scored=depth)
            for query in queries
        ]
        for _ in range(2):
            observed = [
                answer(searcher.search(query, max_docs_scored=depth))
                for query in queries
            ]
            assert observed == expected
        if depth is None:
            daat = [pairs(score_daat(index, query)) for query in queries]
            assert [hits for hits, _, _ in expected] == daat
        if block_size == 4:
            assert any(skips for _, _, skips in expected)

    def test_theta_is_keyed_by_k(self, indexes, queries):
        index = indexes[4]
        for order in ((1, 50), (50, 1)):
            searcher = Searcher(index, algorithm="block_max_wand")
            for k in order:
                for query in queries:
                    at_k = ParsedQuery(terms=query.terms, k=k)
                    observed = answer(searcher.search(at_k))
                    assert observed == memo_free(index, at_k)


class TestGlobalStatistics:
    @pytest.mark.parametrize(
        "execution",
        [None, ExecutionConfig(backend="processes", workers=1)],
        ids=["threads", "processes"],
    )
    def test_two_partitions_equal_unpartitioned_daat(
        self, small_collection, small_index, small_query_log, execution
    ):
        texts = [query.text for query in list(small_query_log)[:25]]
        reference = Searcher(small_index)
        with IndexServingNode(
            partition_index(small_collection, 2),
            algorithm="block_max_wand",
            use_global_stats=True,
            execution=execution,
        ) as node:
            for _ in range(2):
                for text in texts:
                    assert pairs(node.execute(text).hits) == pairs(
                        reference.search(text).hits
                    )


class TestConcurrency:
    THREADS = 4
    ROUNDS = 3

    def test_threads_filling_one_memo_get_the_serial_answers(
        self, indexes, queries
    ):
        index = indexes[4]
        serial = [memo_free(index, query) for query in queries]
        searcher = Searcher(index, algorithm="block_max_wand")
        answers = [[] for _ in range(self.THREADS)]

        def client(slot):
            for _ in range(self.ROUNDS):
                answers[slot].append(
                    [answer(searcher.search(query)) for query in queries]
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for rounds in answers:
            assert rounds == [serial] * self.ROUNDS


class TestMemoBound:
    def test_one_record_per_known_query_term(self, indexes, queries):
        index = indexes[4]
        searcher = Searcher(index, algorithm="block_max_wand")
        for query in queries:
            searcher.search(query)
        queried = {term for query in queries for term in query.terms}
        known = {term for term in queried if index.term_info(term)}
        assert UNKNOWN in queried and UNKNOWN not in known
        assert set(searcher._impacts) == known
        for term, record in searcher._impacts.items():
            term_id = index.term_info(term).term_id
            doc_ids, _ = index.postings_for_id(term_id)
            blocks = index.block_metadata_for_id(term_id)
            assert record.doc_ids.base is index.layout.doc_ids
            assert np.array_equal(record.doc_ids, doc_ids)
            assert len(record.scores) == len(doc_ids)
            assert len(record.bounds) == blocks.num_blocks + 1
            assert record.bounds[-1] == 0.0


class TestTieredIndex:
    @pytest.fixture()
    def tiered(self, indexes):
        return tier_index(indexes[4], cache_budget_bytes=1 << 20)

    def test_paging_equals_a_memo_free_call(self, tiered, queries):
        searcher = Searcher(tiered, algorithm="block_max_wand")
        for _ in range(2):
            for query in queries:
                tiered.cache.clear()
                before = tiered.store_stats()
                expected = memo_free(tiered, query)
                paged = tiered.store_stats().delta(before)
                tiered.cache.clear()
                result = searcher.search(query)
                assert answer(result) == expected
                assert (result.blocks_fetched, result.bytes_read) == (
                    paged.blocks_fetched,
                    paged.bytes_read,
                )

    def test_keeps_an_empty_memo(self, tiered, queries):
        searcher = Searcher(tiered, algorithm="block_max_wand")
        for query in queries:
            searcher.search(query)
        assert searcher._impacts == {}

