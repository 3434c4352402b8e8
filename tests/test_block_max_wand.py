"""Block-Max WAND: block metadata, vectorized scoring, and equivalence.

The load-bearing property for the fig25 ablation is that pruning is an
*optimization*, not an approximation: BLOCK_MAX_WAND, WAND, and
exhaustive DAAT must return bit-identical top-k results (ids AND
scores) on every corpus.  These tests assert that over randomized
corpora, block sizes, and k, including global-statistics scoring.
"""

import cProfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.documents import Document, DocumentCollection
from repro.index.blockmax import DEFAULT_BLOCK_SIZE, BlockMetadata
from repro.index.builder import IndexBuilder
from repro.index.store import tier_index
from repro.search.block_max_wand import score_block_max_wand
from repro.search.daat import score_daat
from repro.search.query import ParsedQuery, QueryParser
from repro.search.scoring import BM25Scorer, TfIdfScorer, global_bm25_scorer
from repro.search.strategy import TraversalStats
from repro.search.wand import score_wand
from repro.text.analyzer import Analyzer, AnalyzerConfig

PLAIN = Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))

words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)
documents_strategy = st.lists(
    st.lists(words, min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=25,
)
query_strategy = st.lists(words, min_size=1, max_size=4, unique=True)
block_size_strategy = st.sampled_from([1, 2, 3, 7, 128])
k_strategy = st.sampled_from([1, 3, 10, 100])


def build_index(texts, block_size=DEFAULT_BLOCK_SIZE):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return IndexBuilder(PLAIN, block_size=block_size).build(collection)


def postings_of(index, term):
    """``(doc_ids, frequencies)`` of a term the index holds."""
    return index.postings_for_id(index.term_info(term).term_id)


def as_pairs(hits):
    return [(h.doc_id, h.score) for h in hits]


class TestBlockMetadata:
    def test_rejects_nonpositive_block_size(self):
        index = build_index(["alpha beta"])
        doc_ids, frequencies = postings_of(index, "alpha")
        with pytest.raises(ValueError, match="block_size"):
            BlockMetadata.from_postings(
                doc_ids, frequencies, index.doc_lengths, block_size=0
            )

    def test_empty_postings(self):
        empty = np.array([], dtype=np.int64)
        blocks = BlockMetadata.from_postings(
            empty, empty, np.array([], dtype=np.int64), block_size=4
        )
        assert len(blocks.last_doc_ids) == 0

    def test_block_partition_is_exact(self):
        texts = [f"alpha {'beta ' * (i % 5)}" for i in range(37)]
        index = build_index(texts, block_size=4)
        doc_ids, frequencies = postings_of(index, "alpha")
        blocks = index.block_metadata_for_id(index.term_info("alpha").term_id)
        num_blocks = -(-len(doc_ids) // 4)
        assert len(blocks.last_doc_ids) == num_blocks
        # Last id of every block is the true boundary posting.
        for block in range(num_blocks):
            end = min((block + 1) * 4, len(doc_ids))
            assert blocks.last_doc_ids[block] == doc_ids[end - 1]
            chunk = frequencies[block * 4 : end]
            assert blocks.max_frequencies[block] == chunk.max()
            chunk_ids = doc_ids[block * 4 : end]
            assert (
                blocks.min_doc_lengths[block]
                == index.doc_lengths[chunk_ids].min()
            )

    def test_max_scores_bound_every_posting(self):
        texts = [f"{'alpha ' * (1 + i % 7)} beta" for i in range(50)]
        index = build_index(texts, block_size=3)
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )
        doc_ids, frequencies = postings_of(index, "alpha")
        info = index.dictionary.lookup("alpha")
        idf = scorer.idf(info.document_frequency)
        bounds = index.block_metadata_for_id(info.term_id).max_scores(
            scorer, idf
        )
        for position, doc_id in enumerate(doc_ids):
            block = position // 3
            actual = scorer.score(
                int(frequencies[position]),
                int(index.doc_lengths[doc_id]),
                idf,
            )
            assert actual <= bounds[block] + 1e-12


class TestScoreBlockBitIdentity:
    def test_vectorized_matches_scalar_exactly(self):
        scorer = BM25Scorer(num_documents=1000, average_doc_length=57.3)
        rng = np.random.default_rng(7)
        frequencies = rng.integers(1, 40, size=256)
        doc_lengths = rng.integers(1, 300, size=256)
        idf = scorer.idf(123)
        vectorized = scorer.score_block(frequencies, doc_lengths, idf)
        for tf, dl, v in zip(frequencies, doc_lengths, vectorized):
            assert float(v) == scorer.score(int(tf), int(dl), idf)


class TestTraversalEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(documents_strategy, query_strategy, block_size_strategy, k_strategy)
    def test_bmw_wand_daat_bit_identical(self, texts, terms, block_size, k):
        index = build_index(texts, block_size=block_size)
        query = ParsedQuery(terms=tuple(terms), k=k)
        daat = score_daat(index, query)
        wand = score_wand(index, query)
        bmw = score_block_max_wand(index, query)
        assert as_pairs(bmw) == as_pairs(daat)
        assert as_pairs(wand) == as_pairs(daat)

    @settings(max_examples=25, deadline=None)
    @given(documents_strategy, query_strategy, block_size_strategy)
    def test_bmw_bit_identical_with_global_idf(self, texts, terms, block_size):
        index = build_index(texts, block_size=block_size)
        # A term_idf override table (as distributed global-statistics
        # scoring installs) must flow through block bounds identically.
        scorer = global_bm25_scorer(
            num_documents=index.num_documents * 3,
            average_doc_length=index.average_doc_length,
            term_document_frequencies={
                term: min(index.num_documents * 2, 1 + 2 * i)
                for i, term in enumerate(index.dictionary.terms())
            },
        )
        query = ParsedQuery(terms=tuple(terms), k=5)
        daat = score_daat(index, query, scorer)
        bmw = score_block_max_wand(index, query, scorer)
        assert as_pairs(bmw) == as_pairs(daat)

    def test_bmw_skips_blocks_on_skewed_corpus(self):
        # Zipf-ish skew: a handful of short high-tf documents up front
        # push the heap threshold above the (achievable) block bound of
        # every later all-filler block, so BMW jumps them whole.  WAND
        # cannot: the global bound idf·(k1+1) stays above the threshold.
        texts = ["alpha alpha alpha alpha" for _ in range(10)]
        texts += ["alpha filler filler filler filler filler" for _ in range(390)]
        index = build_index(texts, block_size=16)
        query = ParsedQuery(terms=("alpha", "beta"), k=5)
        daat_stats = TraversalStats()
        bmw_stats = TraversalStats()
        daat = score_daat(index, query, stats=daat_stats)
        bmw = score_block_max_wand(index, query, stats=bmw_stats)
        assert as_pairs(bmw) == as_pairs(daat)
        assert bmw_stats.block_skips > 0
        assert bmw_stats.docs_scored < daat_stats.docs_scored

    def test_bmw_fills_metrics_counters(self, small_index):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        query = ParsedQuery(terms=("the", "of"), k=10)
        score_block_max_wand(small_index, query, metrics=registry)
        assert registry.counter("wand.docs_scored").value >= 0
        assert registry.counter("wand.block_skips").value >= 0

    @settings(max_examples=40, deadline=None)
    @given(documents_strategy, query_strategy, block_size_strategy, k_strategy)
    def test_bmw_with_scalar_only_scorer_matches_daat(
        self, texts, terms, block_size, k
    ):
        # TfIdfScorer has no score_block: block bounds and the per-block
        # score memo both take the scalar fallback.
        index = build_index(texts, block_size=block_size)
        scorer = TfIdfScorer(num_documents=index.num_documents)
        assert not hasattr(scorer, "score_block")
        query = ParsedQuery(terms=tuple(terms), k=k)
        daat = as_pairs(score_daat(index, query, scorer))
        assert as_pairs(score_block_max_wand(index, query, scorer)) == daat
        assert as_pairs(score_wand(index, query, scorer)) == daat


#: Queries may repeat a term and name terms no document has.
oracle_query_strategy = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "absent", "missing"]),
    min_size=1,
    max_size=5,
)
#: Random corpora, and a few documents copied many times: exact score
#: ties everywhere, the k-th place included.
oracle_documents_strategy = st.one_of(
    documents_strategy,
    st.tuples(
        st.lists(
            st.lists(words, min_size=1, max_size=4).map(" ".join),
            min_size=1,
            max_size=3,
        ),
        st.integers(min_value=1, max_value=30),
    ).map(lambda pair: pair[0] * pair[1]),
)
SCORERS = ("bm25", "global", "tfidf", "negative")


def make_scorer(name, index):
    """The scorers resident BMW must agree with DAAT under."""
    if name == "tfidf":
        return TfIdfScorer(num_documents=index.num_documents)
    terms = list(index.dictionary.terms())
    if name == "global":
        return global_bm25_scorer(
            num_documents=index.num_documents * 3,
            average_doc_length=index.average_doc_length,
            term_document_frequencies={
                term: min(index.num_documents * 2, 1 + 2 * i)
                for i, term in enumerate(terms)
            },
        )
    scorer = BM25Scorer(
        num_documents=index.num_documents,
        average_doc_length=index.average_doc_length,
    )
    if name == "negative":
        # Negative contributions void the threshold and the block
        # bounds: the generator must fall back to scoring every match.
        return BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
            term_idf={
                term: (-1.0 if i % 2 else 1.0) * scorer.idf(i + 1)
                for i, term in enumerate(terms)
            },
        )
    return scorer


class TestResidentGeneratorOracle:
    """Resident Block-Max WAND against exhaustive DAAT, query by query.

    On a resident index BMW is a candidate generator in front of DAAT's
    own merge, so it must return ``score_daat``'s hits exactly — ids and
    float64 scores compared with ``==`` — and can only ever score a
    subset of DAAT's candidates.
    """

    @staticmethod
    def check(index, query, scorer):
        daat_stats, bmw_stats = TraversalStats(), TraversalStats()
        daat = score_daat(index, query, scorer, stats=daat_stats)
        bmw = score_block_max_wand(index, query, scorer, stats=bmw_stats)
        assert as_pairs(bmw) == as_pairs(daat), query
        for hit in bmw:
            assert type(hit.doc_id) is int and type(hit.score) is float
        # Every candidate is either scored or dropped by its block
        # bound, and the candidates are a subset of DAAT's.
        assert bmw_stats.docs_scored <= daat_stats.docs_scored
        assert (
            bmw_stats.docs_scored + bmw_stats.block_skips
            <= daat_stats.docs_scored
        )
        assert bmw_stats.pivot_skips == 0
        assert not bmw_stats.truncated
        return bmw_stats, daat_stats

    @settings(max_examples=200, deadline=None)
    @given(
        oracle_documents_strategy,
        oracle_query_strategy,
        st.sampled_from([2, 4, 128]),
        st.sampled_from([1, 2, 3, 5, 10, 1000]),
        st.sampled_from(SCORERS),
    )
    def test_equals_daat(self, texts, terms, block_size, k, scorer):
        index = build_index(texts, block_size=block_size)
        query = ParsedQuery(terms=tuple(terms), k=k)
        self.check(index, query, make_scorer(scorer, index))

    TIES = [
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

    @pytest.mark.parametrize("block_size", [2, 4, 128])
    @pytest.mark.parametrize("scorer", ["bm25", "tfidf"])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_ties_at_the_kth_score(self, k, scorer, block_size):
        index = build_index(self.TIES, block_size=block_size)
        query = ParsedQuery(terms=("cat", "dog", "fish"), k=k)
        self.check(index, query, make_scorer(scorer, index))

    @pytest.mark.parametrize(
        "terms",
        [("alpha",), ("absent", "missing"), ("alpha", "absent", "alpha")],
        ids=["single-term", "all-oov", "repeated-with-oov"],
    )
    @pytest.mark.parametrize("k", [1, 3, 1000])
    def test_query_shapes(self, terms, k):
        texts = [f"alpha {'beta ' * (i % 4)}gamma{i % 3}" for i in range(40)]
        index = build_index(texts, block_size=4)
        query = ParsedQuery(terms=terms, k=k)
        bmw_stats, daat_stats = self.check(
            index, query, make_scorer("bm25", index)
        )
        if k == 1000:  # k beyond the matches: nothing can be pruned
            assert bmw_stats.docs_scored == daat_stats.docs_scored

    def test_bmw_never_scores_more_than_exhaustive(self, small_index):
        by_length = sorted(
            small_index.dictionary.terms(),
            key=lambda term: (-small_index.document_frequency(term), term),
        )
        scorer = make_scorer("bm25", small_index)
        pruned = 0
        for size in range(1, 7):
            for terms in (by_length[:size], by_length[20 * size : 21 * size]):
                query = ParsedQuery(terms=tuple(terms), k=10)
                bmw_stats, daat_stats = self.check(small_index, query, scorer)
                pruned += daat_stats.docs_scored - bmw_stats.docs_scored
        assert pruned > 0


class TestTieredGeneratorOracle:
    """Tiered Block-Max WAND against resident Block-Max WAND.

    Tiering changes what is read, not what is scored: a paged record
    seeds θ from its highest-bound blocks until no unread block could
    change it — the resident θ exactly — so hits, ``docs_scored`` and
    truncation equal the resident run's, depth-capped runs included.
    Only ``block_skips`` may be smaller (candidates in blocks that are
    never read are not counted), and a zero-budget cache (every touch a
    store read) shows each block is requested at most once per query.
    """

    @staticmethod
    def check(resident, query, scorer=None, depth=None):
        tiered = tier_index(resident, cache_budget_bytes=0)
        fetch = tiered.cache.get
        keys = []
        tiered.cache.get = lambda key: keys.append(key) or fetch(key)
        resident_stats, tiered_stats = TraversalStats(), TraversalStats()
        expected = score_block_max_wand(
            resident, query, scorer, stats=resident_stats, max_docs_scored=depth
        )
        observed = score_block_max_wand(
            tiered, query, scorer, stats=tiered_stats, max_docs_scored=depth
        )
        assert as_pairs(observed) == as_pairs(expected), query
        assert tiered_stats.docs_scored == resident_stats.docs_scored, query
        assert tiered_stats.truncated == resident_stats.truncated
        assert tiered_stats.block_skips <= resident_stats.block_skips
        assert len(keys) == len(set(keys))

    @settings(max_examples=60, deadline=None)
    @given(
        documents_strategy,
        query_strategy,
        block_size_strategy,
        k_strategy,
        st.sampled_from([None, 1, 3]),
        st.sampled_from(SCORERS),
    )
    def test_tiered_bmw_answers_what_resident_bmw_answers(
        self, texts, terms, block_size, k, depth, scorer
    ):
        resident = build_index(texts, block_size=block_size)
        query = ParsedQuery(terms=tuple(terms), k=k)
        self.check(resident, query, make_scorer(scorer, resident), depth)

    @pytest.mark.parametrize("block_size", [4, 128])
    @pytest.mark.parametrize("depth", [None, 12])
    def test_reference_log(
        self, small_collection, small_query_log, block_size, depth
    ):
        resident = IndexBuilder(block_size=block_size).build(small_collection)
        parser = QueryParser(analyzer=resident.analyzer)
        for logged in small_query_log:
            self.check(resident, parser.parse(logged.text, k=10), depth=depth)


def _profiled_calls(traverse, index, query) -> int:
    profile = cProfile.Profile()
    profile.enable()
    traverse(index, query)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


class TestCallCountIsPerTerm:
    """A resident BMW query costs O(terms) interpreted calls, not O(postings).

    cProfile counts Python-level and builtin calls exactly, so the same
    query over the same document pattern at 1,000 and at 8,000
    documents must make the same number of calls: everything per
    posting, per block and per candidate runs inside numpy.  The pivot
    kernel (plain WAND) is asserted to grow, so the guard cannot rot
    into one nothing trips.
    """

    QUERY = ParsedQuery(terms=("alpha", "beta", "gamma", "absent"), k=10)

    @staticmethod
    def corpus(num_documents):
        return build_index(
            [
                f"alpha {'beta ' * (i % 3)}{'gamma ' * (i % 5 == 0)}"
                f"{'filler ' * (i % 7)}"
                for i in range(num_documents)
            ]
        )

    @pytest.fixture(scope="class")
    def indexes(self):
        return self.corpus(1_000), self.corpus(8_000)

    def test_resident_bmw_calls_do_not_grow_with_postings(self, indexes):
        small, large = (
            _profiled_calls(score_block_max_wand, index, self.QUERY)
            for index in indexes
        )
        assert small == large

    def test_the_pivot_kernel_would_trip_it(self, indexes):
        small, large = (
            _profiled_calls(score_wand, index, self.QUERY) for index in indexes
        )
        assert large > small


class TestMaxDocsScored:
    """The deadline scheduler's early-termination depth, at the
    traversal itself (``DeadlineScheduler.max_docs_for`` only computes
    the number)."""

    TEXTS = [f"alpha {'beta ' * (i % 4)}gamma{i % 3}" for i in range(60)]
    QUERY = ParsedQuery(terms=("alpha", "beta"), k=5)

    @pytest.mark.parametrize("block_size", [2, 128])
    @pytest.mark.parametrize("depth", [1, 7, 25])
    def test_stops_after_exactly_that_many_scored_documents(
        self, block_size, depth
    ):
        index = build_index(self.TEXTS, block_size=block_size)
        exact_stats = TraversalStats()
        score_block_max_wand(index, self.QUERY, stats=exact_stats)
        assert exact_stats.docs_scored > depth

        stats = TraversalStats()
        hits = score_block_max_wand(
            index, self.QUERY, stats=stats, max_docs_scored=depth
        )
        assert stats.docs_scored == depth
        assert stats.truncated
        # Best-so-far heap: the top of the first `depth` scored
        # documents, each carrying its exact score.
        assert len(hits) == min(depth, self.QUERY.k)
        exact = dict(as_pairs(score_daat(index, ParsedQuery(terms=self.QUERY.terms, k=1000))))
        assert all(exact[doc_id] == score for doc_id, score in as_pairs(hits))
        assert as_pairs(hits) == sorted(
            as_pairs(hits), key=lambda pair: (-pair[1], pair[0])
        )

    def test_none_and_generous_depths_stay_exact(self):
        index = build_index(self.TEXTS, block_size=2)
        daat = as_pairs(score_daat(index, self.QUERY))
        for depth in (None, 10_000):
            stats = TraversalStats()
            hits = score_block_max_wand(
                index, self.QUERY, stats=stats, max_docs_scored=depth
            )
            assert as_pairs(hits) == daat
            assert not stats.truncated

    @pytest.mark.parametrize(
        "texts, terms",
        [
            (["alpha beta"], ()),  # empty query
            ([], ("alpha",)),  # empty index
            (["alpha beta"], ("missing", "absent")),  # all out of vocabulary
        ],
        ids=["empty-query", "empty-index", "all-oov"],
    )
    @pytest.mark.parametrize("depth", [0, -3])
    def test_nonpositive_depth_is_rejected_before_any_early_return(
        self, texts, terms, depth
    ):
        index = build_index(texts)
        query = ParsedQuery(terms=terms, k=5)
        assert score_block_max_wand(index, query) == []
        with pytest.raises(ValueError, match="max_docs_scored"):
            score_block_max_wand(index, query, max_docs_scored=depth)
