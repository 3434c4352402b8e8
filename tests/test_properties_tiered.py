"""Property-based proof that tiered serving is bit-identical.

The tiered index's whole contract is that paging changes the I/O
schedule and nothing else: for any corpus, any cache budget (including
budgets too small to hold a single term's blocks), any traversal
algorithm, and any index format version the index round-tripped
through, the ranked results — doc ids AND exact float scores — must
equal the fully-resident index's.  Hypothesis explores that space;
a second property family fuzzes the failure surface (corruption and
timeouts must raise typed errors, never return wrong results).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.serialization import deserialize_index, serialize_index
from repro.index.store import (
    BlockKey,
    SlowStore,
    StoreError,
    StoreTimeoutError,
    tier_index,
)
from repro.search.block_max_wand import score_block_max_wand
from repro.search.daat import score_daat
from repro.search.query import ParsedQuery
from repro.search.taat import score_taat
from repro.search.wand import score_wand
from repro.text.analyzer import Analyzer, AnalyzerConfig

ALGORITHMS = {
    "daat": score_daat,
    "taat": score_taat,
    "wand": score_wand,
    "block_max_wand": score_block_max_wand,
}

# A tiny shared vocabulary makes random documents collide on terms, so
# postings lists grow long enough to span multiple blocks.
WORDS = ["alpha", "beta", "gamma", "delta", "epsi", "zeta", "eta", "theta"]

corpus_texts = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=25,
)
queries = st.lists(
    st.sampled_from(WORDS + ["missing"]), min_size=1, max_size=4, unique=True
).map(tuple)
# Budgets from "cache nothing" through "smaller than one term's blocks"
# up to "everything resident".
budgets = st.sampled_from([0, 1, 64, 256, 1 << 20])
block_sizes = st.sampled_from([1, 2, 4, 7])
format_versions = st.sampled_from([1, 2, 3])


def build_index(texts, block_size):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return IndexBuilder(
        Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False)),
        block_size=block_size,
    ).build(collection)


def assert_bit_identical(resident_hits, tiered_hits, context):
    assert len(resident_hits) == len(tiered_hits), context
    for expected, actual in zip(resident_hits, tiered_hits):
        assert expected.doc_id == actual.doc_id, context
        # Bit-identical means the exact same float, not approximately.
        assert expected.score == actual.score, context


class TestTieredBitIdentity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        texts=corpus_texts,
        terms=queries,
        budget=budgets,
        block_size=block_sizes,
        admission=st.booleans(),
    )
    def test_in_memory_store_all_algorithms(
        self, texts, terms, budget, block_size, admission
    ):
        resident = build_index(texts, block_size)
        tiered = tier_index(
            resident, cache_budget_bytes=budget, admission=admission
        )
        query = ParsedQuery(terms=terms, k=10)
        for name, score in ALGORITHMS.items():
            assert_bit_identical(
                score(resident, query),
                score(tiered, query),
                context=f"{name} budget={budget} block_size={block_size}",
            )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        texts=corpus_texts,
        terms=queries,
        budget=budgets,
        block_size=block_sizes,
        version=format_versions,
    )
    def test_tiered_after_format_roundtrip(
        self, texts, terms, budget, block_size, version
    ):
        """Tiering composes with every RIDX version: an index that
        round-tripped through v1/v2/v3 serialization and was then
        tiered still answers bit-identically."""
        resident = deserialize_index(
            serialize_index(build_index(texts, block_size), version=version)
        )
        query = ParsedQuery(terms=terms, k=10)
        tiered = tier_index(resident, cache_budget_bytes=budget)
        for name, score in ALGORITHMS.items():
            assert_bit_identical(
                score(resident, query),
                score(tiered, query),
                context=f"{name} v{version} budget={budget}",
            )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        texts=corpus_texts,
        terms=queries,
        block_size=block_sizes,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_query_sequences_share_one_cache(
        self, texts, terms, block_size, seed
    ):
        """Repeated queries through a warm (and thrashing) cache stay
        bit-identical — hits, evictions, and admission rejections never
        change a result."""
        resident = build_index(texts, block_size)
        tiered = tier_index(resident, cache_budget_bytes=96)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            k = int(rng.integers(1, 10))
            query = ParsedQuery(terms=terms, k=k)
            assert_bit_identical(
                score_block_max_wand(resident, query),
                score_block_max_wand(tiered, query),
                context=f"k={k}",
            )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(texts=corpus_texts, terms=queries, block_size=block_sizes)
    def test_paged_bmw_reads_no_more_than_resident_volume(
        self, texts, terms, block_size
    ):
        """Paging is demand-driven: BMW never reads more block bytes
        than the whole pageable set, and a second identical query on a
        big-budget cache reads nothing."""
        resident = build_index(texts, block_size)
        tiered = tier_index(resident, cache_budget_bytes=1 << 20)
        query = ParsedQuery(terms=terms, k=10)
        score_block_max_wand(tiered, query)
        first = tiered.store_stats()
        assert first.bytes_read <= tiered.total_block_bytes
        score_block_max_wand(tiered, query)
        second = tiered.store_stats().delta(first)
        assert second.blocks_fetched == 0


class TestTieredFaultInjection:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        texts=corpus_texts,
        terms=queries,
        block_size=block_sizes,
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_timeouts_raise_or_results_stay_identical(
        self, texts, terms, block_size, seed, rate
    ):
        """Under a lossy store every query either raises the typed
        timeout or returns the exact resident answer — never a silently
        degraded result."""
        resident = build_index(texts, block_size)
        tiered = tier_index(
            resident,
            cache_budget_bytes=0,  # no cache: every touch hits the store
            store_wrapper=lambda store: SlowStore(
                store, timeout_rate=rate, seed=seed
            ),
        )
        query = ParsedQuery(terms=terms, k=10)
        try:
            hits = score_block_max_wand(tiered, query)
        except StoreTimeoutError:
            return
        assert_bit_identical(
            score_block_max_wand(resident, query), hits, context="lossy"
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        texts=corpus_texts,
        block_size=block_sizes,
        data=st.data(),
    )
    def test_random_byte_flip_never_silently_corrupts(
        self, texts, block_size, data
    ):
        """Flip one random byte of one random block payload: every
        query either raises a typed store error or — when the damaged
        block is never paged in / the flip hit a slack bit that still
        checksums — returns the exact resident answer."""
        resident = build_index(texts, block_size)
        tiered = tier_index(resident, cache_budget_bytes=1 << 20)
        blocks = tiered.store._blocks
        key = data.draw(st.sampled_from(sorted(blocks)))
        payload = bytearray(blocks[key])
        position = data.draw(
            st.integers(min_value=0, max_value=len(payload) - 1)
        )
        payload[position] ^= 1 << data.draw(
            st.integers(min_value=0, max_value=7)
        )
        blocks[key] = bytes(payload)

        terms = data.draw(queries)
        query = ParsedQuery(terms=terms, k=10)
        expected = score_block_max_wand(resident, query)
        try:
            hits = score_block_max_wand(tiered, query)
        except StoreError:
            return  # typed failure is the accepted outcome
        assert_bit_identical(expected, hits, context=f"flip {key}")


class TestTieredSmallIndexEdgeCases:
    def test_empty_collection(self):
        resident = build_index([], block_size=4)
        tiered = tier_index(resident, cache_budget_bytes=100)
        assert tiered.num_documents == 0
        assert score_daat(tiered, ParsedQuery(terms=("alpha",), k=5)) == []

    def test_single_posting_terms(self):
        resident = build_index(["alpha", "beta"], block_size=4)
        tiered = tier_index(resident, cache_budget_bytes=100)
        query = ParsedQuery(terms=("alpha", "beta"), k=5)
        assert_bit_identical(
            score_block_max_wand(resident, query),
            score_block_max_wand(tiered, query),
            context="single-posting",
        )

    @pytest.mark.parametrize("budget", [0, 1, 5])
    def test_budget_below_single_block(self, budget):
        """Every block is larger than the whole budget: nothing ever
        caches, everything re-fetches, results stay exact."""
        texts = ["alpha beta gamma"] * 12
        resident = build_index(texts, block_size=4)
        tiered = tier_index(resident, cache_budget_bytes=budget)
        query = ParsedQuery(terms=("alpha", "gamma"), k=10)
        for _ in range(3):
            assert_bit_identical(
                score_block_max_wand(resident, query),
                score_block_max_wand(tiered, query),
                context=f"budget={budget}",
            )
        snap = tiered.store_stats()
        assert snap.bytes_cached == 0
        assert snap.block_hits == 0
