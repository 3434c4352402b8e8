"""Bit-level checks of the exhaustive DAAT merge against the loop it replaced.

``score_daat`` runs the lock-step as one array merge.  The scalar loop
it replaced — a ``heapq`` frontier of ``(doc_id, cursor_index)`` with a
pop, a push and a ``TopKHeap.offer`` per posting — lives on here as
:func:`oracle_daat`, the reference the merge must reproduce exactly:
the same hits (doc ids and float64 scores, compared with ``==``), the
same three ``daat.*`` counters and the same ``docs_scored``.
"""

import cProfile
import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusGenerator
from repro.corpus.querylog import QueryLogConfig, QueryLogGenerator
from repro.index.builder import IndexBuilder
from repro.index.partitioner import partition_index
from repro.index.store import tier_index
from repro.obs.registry import MetricsRegistry
from repro.search.daat import score_daat
from repro.search.executor import ShardSearcher
from repro.search.query import ParsedQuery, QueryMode, QueryParser
from repro.search.scoring import BM25Scorer, TfIdfScorer, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.taat import score_taat
from repro.search.topk import SearchHit, TopKHeap, select_top_k
from tests.test_search_traversal import build_index
from tests.test_wand_family_golden import GOLDEN_CORPUS

COUNTERS = (
    "daat.postings_traversed",
    "daat.candidates_scored",
    "daat.heap_offers",
)


# ----------------------------------------------------------------------
# the reference oracle: score_daat as it was before the array merge


class _OracleCursor:
    __slots__ = ("doc_ids", "frequencies", "position", "idf", "scores")

    def __init__(self, postings, idf):
        self.doc_ids, self.frequencies = postings
        self.position = 0
        self.idf = idf
        self.scores = None

    @property
    def exhausted(self):
        return self.position >= len(self.doc_ids)

    @property
    def current(self):
        return int(self.doc_ids[self.position])

    @property
    def current_frequency(self):
        return int(self.frequencies[self.position])

    def advance(self):
        self.position += 1


def oracle_daat(index, query, scorer=None, metrics=None, stats=None):
    """The scalar lock-step: one frontier pop and push per posting."""
    if query.is_empty:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )
    cursors = []
    for term in query.terms:
        info = index.term_info(term)
        if info is None:
            continue
        cursors.append(
            _OracleCursor(
                index.postings_for_id(info.term_id),
                resolve_idf(scorer, term, info.document_frequency),
            )
        )
    if not cursors:
        return []
    if query.mode is QueryMode.AND and len(cursors) < len(query.terms):
        return []

    heap = TopKHeap(query.k)
    doc_lengths = index.doc_lengths
    required = len(query.terms) if query.mode is QueryMode.AND else 1
    score_block = getattr(scorer, "score_block", None)
    if score_block is not None:
        for cursor in cursors:
            cursor.scores = score_block(
                cursor.frequencies, doc_lengths[cursor.doc_ids], cursor.idf
            )

    frontier = [
        (cursor.current, cursor_index)
        for cursor_index, cursor in enumerate(cursors)
    ]
    heapq.heapify(frontier)
    candidates = 0
    offers = 0
    while frontier:
        doc_id = frontier[0][0]
        score = 0.0
        matched = 0
        candidates += 1
        while frontier and frontier[0][0] == doc_id:
            _, cursor_index = heapq.heappop(frontier)
            cursor = cursors[cursor_index]
            if cursor.scores is not None:
                score += float(cursor.scores[cursor.position])
            else:
                score += scorer.score(
                    cursor.current_frequency,
                    int(doc_lengths[doc_id]),
                    cursor.idf,
                )
            matched += 1
            cursor.advance()
            if not cursor.exhausted:
                heapq.heappush(frontier, (cursor.current, cursor_index))
        if matched >= required:
            heap.offer(doc_id, score)
            offers += 1

    if stats is not None:
        stats.docs_scored += candidates
    if metrics is not None:
        metrics.counter("daat.postings_traversed").add(
            sum(cursor.position for cursor in cursors)
        )
        metrics.counter("daat.candidates_scored").add(candidates)
        metrics.counter("daat.heap_offers").add(offers)
    return heap.results()


def observe(traverse, index, query, scorer=None):
    """``(hits, (postings, candidates, offers, docs_scored))`` of one query."""
    registry = MetricsRegistry()
    stats = TraversalStats()
    hits = traverse(index, query, scorer, metrics=registry, stats=stats)
    counts = tuple(registry.counter(name).value for name in COUNTERS)
    return hits, counts + (stats.docs_scored,)


def assert_matches_oracle(index, query, scorer=None, oracle_index=None):
    hits, counts = observe(score_daat, index, query, scorer)
    expected_hits, expected_counts = observe(
        oracle_daat, index if oracle_index is None else oracle_index, query, scorer
    )
    assert hits == expected_hits, query
    assert counts == expected_counts, query
    for hit in hits:
        assert type(hit.doc_id) is int and type(hit.score) is float
    return hits, counts


# ----------------------------------------------------------------------
# the golden corpus and its query set


@pytest.fixture(scope="module")
def golden_collection():
    generator = CorpusGenerator(GOLDEN_CORPUS)
    return generator.generate(), generator.vocabulary


@pytest.fixture(scope="module")
def golden_index(golden_collection):
    return IndexBuilder().build(golden_collection[0])


@pytest.fixture(scope="module")
def golden_queries(golden_collection, golden_index):
    """OR and AND over 1-6 terms, long and short lists, plus edge shapes."""
    index = golden_index
    by_length = sorted(
        index.dictionary.terms(),
        key=lambda term: (-index.document_frequency(term), term),
    )
    parser = QueryParser(analyzer=index.analyzer)
    log = QueryLogGenerator(
        golden_collection[1], QueryLogConfig(num_unique_queries=20, seed=9)
    ).generate()
    queries = []
    for mode in (QueryMode.OR, QueryMode.AND):
        for size in range(1, 7):
            # The longest lists (AND still matches) and mid-frequency ones.
            queries.append(ParsedQuery(terms=tuple(by_length[:size]), mode=mode, k=10))
            queries.append(
                ParsedQuery(
                    terms=tuple(by_length[30 * size : 31 * size]), mode=mode, k=7
                )
            )
        # An absent term: ignored by OR, empties AND.
        queries.append(
            ParsedQuery(terms=(by_length[0], "zzzunseen", by_length[3]), mode=mode, k=10)
        )
        # A repeated term opens two cursors on the same list.
        queries.append(
            ParsedQuery(terms=(by_length[2], by_length[40], by_length[2]), mode=mode, k=10)
        )
        # k larger than the candidate set, and than the index.
        queries.append(
            ParsedQuery(terms=(by_length[200], by_length[201]), mode=mode, k=1_000)
        )
        queries.append(ParsedQuery(terms=tuple(by_length[:3]), mode=mode, k=1_000))
        queries.append(ParsedQuery(terms=("zzzunseen", "qqqunseen"), mode=mode, k=10))
        queries.extend(parser.parse(query.text, mode=mode, k=10) for query in log)
    return queries


def _scorer(name, index):
    if name == "tfidf":
        return TfIdfScorer(num_documents=index.num_documents)
    return None


class TestMatchesTheOracle:
    @pytest.mark.parametrize("scorer", ["bm25", "tfidf"])
    def test_every_query_matches_the_oracle(
        self, scorer, golden_index, golden_queries
    ):
        modes = set()
        sizes = set()
        for query in golden_queries:
            hits, counts = assert_matches_oracle(
                golden_index, query, _scorer(scorer, golden_index)
            )
            if hits:
                modes.add(query.mode)
                sizes.add(len(query.terms))
        assert modes == {QueryMode.OR, QueryMode.AND}
        assert sizes >= set(range(1, 7))

    def test_tiered_index_matches_the_resident_oracle(
        self, golden_index, golden_queries
    ):
        tiered = tier_index(golden_index, cache_budget_bytes=1 << 20)
        for query in golden_queries:
            assert_matches_oracle(tiered, query, oracle_index=golden_index)

    def test_absent_term_is_ignored_by_or_and_empties_and(self, golden_index):
        term = golden_index.dictionary.term_for_id(0)
        alone = score_daat(golden_index, ParsedQuery(terms=(term,), k=10))
        with_absent = ParsedQuery(terms=("zzzunseen", term), k=10)
        assert alone and score_daat(golden_index, with_absent) == alone
        conjunctive = ParsedQuery(
            terms=("zzzunseen", term), mode=QueryMode.AND, k=10
        )
        hits, counts = assert_matches_oracle(golden_index, conjunctive)
        assert hits == [] and counts == (0, 0, 0, 0)

    def test_k_larger_than_the_candidate_set_returns_every_candidate(
        self, golden_index
    ):
        term = golden_index.dictionary.term_for_id(5)
        query = ParsedQuery(terms=(term,), k=10_000)
        hits, counts = assert_matches_oracle(golden_index, query)
        assert len(hits) == golden_index.document_frequency(term) == counts[1]
        assert hits == sorted(hits, key=SearchHit.sort_key)

    def test_two_shard_searcher_matches_the_oracle_per_shard(
        self, golden_collection, golden_queries
    ):
        partitioned = partition_index(golden_collection[0], 2)
        for shard in partitioned:
            registry = MetricsRegistry()
            searcher = ShardSearcher(shard, algorithm="daat", metrics=registry)
            expected_counts = [0, 0, 0]
            for query in golden_queries:
                result = searcher.search(query)
                local, counts = observe(oracle_daat, shard.index, query)
                assert list(result.hits) == [
                    SearchHit(score=hit.score, doc_id=shard.to_global(hit.doc_id))
                    for hit in local
                ]
                assert result.docs_scored == counts[3]
                expected_counts = [
                    total + count for total, count in zip(expected_counts, counts)
                ]
            assert [
                registry.counter(name).value for name in COUNTERS
            ] == expected_counts


# ----------------------------------------------------------------------
# exact score ties


class TestScoreTies:
    """Equal float64 scores rank by doc id, also across the k-th place."""

    TEXTS = [
        "bird",
        "cat dog",
        "cat dog",
        "cat cat dog fish fish",
        "cat dog",
        "dog cat",
        "cat",
        "cat dog",
        "fish",
    ]
    TIED = [1, 2, 4, 5, 7]

    @pytest.mark.parametrize("mode", [QueryMode.OR, QueryMode.AND])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_ties_across_the_kth_boundary(self, k, mode):
        index = build_index(self.TEXTS)
        query = ParsedQuery(terms=("cat", "dog"), mode=mode, k=k)
        hits, _ = assert_matches_oracle(index, query)
        tied = [hit for hit in hits if hit.doc_id in self.TIED]
        assert len({hit.score for hit in tied}) <= 1
        assert [hit.doc_id for hit in tied] == self.TIED[: len(tied)]
        assert hits == score_taat(index, query)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_scorer_without_score_block(self, k):
        # TF-IDF ignores document length, so every document with the
        # same term frequencies ties exactly.
        index = build_index(self.TEXTS)
        scorer = TfIdfScorer(num_documents=index.num_documents)
        assert not hasattr(scorer, "score_block")
        query = ParsedQuery(terms=("cat", "dog", "fish"), k=k)
        hits, _ = assert_matches_oracle(index, query, scorer)
        assert hits == score_taat(index, query, scorer)
        assert len(hits) == min(k, 8)


# ----------------------------------------------------------------------
# property: merge == oracle == TAAT


words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "absent"]
)
documents_strategy = st.lists(
    st.lists(words.filter(lambda word: word != "absent"), min_size=1, max_size=12).map(
        " ".join
    ),
    min_size=1,
    max_size=14,
)


class TestMergeOracleTaatAgree:
    @settings(max_examples=120, deadline=None)
    @given(
        documents_strategy,
        st.lists(words, min_size=1, max_size=6),
        st.sampled_from([QueryMode.OR, QueryMode.AND]),
        st.integers(min_value=1, max_value=16),
        st.booleans(),
    )
    def test_hit_for_hit(self, texts, terms, mode, k, tfidf):
        index = build_index(texts)
        scorer = TfIdfScorer(num_documents=index.num_documents) if tfidf else None
        query = ParsedQuery(terms=tuple(terms), mode=mode, k=k)
        hits, _ = assert_matches_oracle(index, query, scorer)
        assert hits == score_taat(index, query, scorer)


# ----------------------------------------------------------------------
# select_top_k == TopKHeap


def heap_top_k(doc_ids, scores, k):
    heap = TopKHeap(k)
    for doc_id, score in zip(doc_ids, scores):
        heap.offer(doc_id, score)
    return heap.results()


class TestSelectTopK:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_the_heap_on_streams_with_forced_ties(self, seed):
        rng = random.Random(seed)
        size = rng.choice([0, 1, 2, 5, 17, 64, 300])
        doc_ids = rng.sample(range(10 * size + 1), size)
        # Few distinct values: ties everywhere, the k-th place included.
        levels = [rng.random() for _ in range(rng.choice([1, 2, 3, 8]))]
        scores = [rng.choice(levels) for _ in range(size)]
        for k in (1, 2, 3, max(1, size - 1), max(1, size), size + 1, 4 * size + 1):
            selected = select_top_k(
                np.array(doc_ids, dtype=np.int64),
                np.array(scores, dtype=np.float64),
                k,
            )
            assert selected == heap_top_k(doc_ids, scores, k), (seed, k)

    def test_hits_carry_python_scalars(self):
        hits = select_top_k(np.array([4, 2]), np.array([0.5, 0.5]), 5)
        assert hits == [SearchHit(0.5, 2), SearchHit(0.5, 4)]
        for hit in hits:
            assert type(hit.doc_id) is int and type(hit.score) is float

    def test_tie_at_the_kth_score_keeps_the_lower_doc_ids(self):
        doc_ids = np.array([9, 3, 7, 1, 5])
        scores = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        assert [hit.doc_id for hit in select_top_k(doc_ids, scores, 3)] == [3, 1, 5]

    def test_non_positive_k_is_rejected_like_the_heap(self):
        with pytest.raises(ValueError):
            select_top_k(np.array([1]), np.array([1.0]), 0)
        with pytest.raises(ValueError):
            TopKHeap(0)


# ----------------------------------------------------------------------
# interpretive overhead


def calls_per_posting(traverse, index, queries) -> float:
    """Profiled function calls per posting traversed."""
    registry = MetricsRegistry()
    profile = cProfile.Profile()
    profile.enable()
    for query in queries:
        traverse(index, query, metrics=registry)
    profile.disable()
    postings = registry.counter("daat.postings_traversed").value
    return sum(entry.callcount for entry in profile.getstats()) / postings


class TestInterpretiveOverhead:
    """A deterministic guard on per-posting Python, no wall clock.

    cProfile counts Python-level and builtin calls exactly.  The scalar
    loop makes about seven per posting (a pop, a push, three
    properties, an offer: 7.0 on this corpus, 7.6 on the perf
    benchmark's); the merge makes some twenty per query *term* and none
    per posting, so it reads 0.39 here and less as lists grow.  The
    oracle is asserted above the ceiling so the guard cannot rot into
    one that nothing trips.
    """

    CEILING = 0.5

    def test_merge_makes_no_per_posting_calls(self, golden_index, golden_queries):
        assert (
            calls_per_posting(score_daat, golden_index, golden_queries)
            < self.CEILING
        )

    def test_the_scalar_loop_would_trip_it(self, golden_index, golden_queries):
        assert (
            calls_per_posting(oracle_daat, golden_index, golden_queries)
            > self.CEILING
        )
