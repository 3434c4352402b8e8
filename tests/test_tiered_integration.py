"""Integration tests: tiered storage through the full serving path.

Bit-identity at the engine level (tiered service == resident service),
fault injection surfacing as shard failures (coverage degrades, the
breakers trip — never wrong results), composition with the chaos
harness's fault plans, and paging observability (per-query counters, span
attributes, ``store.*`` metrics).
"""

from __future__ import annotations

import pytest

from repro.api import (
    BreakerConfig,
    MetricsRegistry,
    TieredStorageConfig,
)
from repro.corpus.generator import CorpusConfig
from repro.corpus.querylog import QueryLogConfig
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.service import SearchService, SearchServiceConfig
from repro.index.store import tier_index
from repro.obs.tracing import Tracer
from repro.search.executor import Searcher

TINY_CORPUS = CorpusConfig(
    num_documents=120,
    vocabulary=VocabularyConfig(size=900),
    mean_length=40,
    seed=11,
)
TINY_LOG = QueryLogConfig(num_unique_queries=30, seed=5)


def _service(tiered=None, metrics=None, tracer=None, **overrides):
    config = SearchServiceConfig(
        corpus=TINY_CORPUS,
        query_log=TINY_LOG,
        num_partitions=2,
        tiered=tiered,
        **overrides,
    )
    return SearchService(config, metrics=metrics, tracer=tracer)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("algorithm", ["daat", "block_max_wand"])
    def test_tiered_service_matches_resident(self, algorithm):
        tiered_config = TieredStorageConfig(cache_budget_bytes=64 << 10)
        with _service(algorithm=algorithm) as resident, _service(
            tiered=tiered_config, algorithm=algorithm
        ) as tiered:
            for query in list(resident.query_log)[:15]:
                expected = resident.search(query.text)
                actual = tiered.search(query.text)
                assert expected.doc_ids() == actual.doc_ids(), query.text
                for left, right in zip(expected.hits, actual.hits):
                    assert left.score == right.score, query.text

    def test_zero_budget_still_identical(self):
        tiered_config = TieredStorageConfig(cache_budget_bytes=0)
        with _service() as resident, _service(
            tiered=tiered_config
        ) as tiered:
            for query in list(resident.query_log)[:5]:
                assert resident.search(query.text).doc_ids() == tiered.search(
                    query.text
                ).doc_ids()

    def test_store_counters_populated(self):
        metrics = MetricsRegistry()
        tiered_config = TieredStorageConfig(cache_budget_bytes=64 << 10)
        with _service(tiered=tiered_config, metrics=metrics) as service:
            queries = [query.text for query in list(service.query_log)[:10]]
            for text in queries:
                service.search(text)
            fetched_cold = metrics.counter("store.blocks_fetched").value
            assert fetched_cold > 0
            assert metrics.counter("store.bytes_read").value > 0
            # A second pass over the same queries hits the warm cache:
            # no new fetches, only cache hits.
            for text in queries:
                service.search(text)
            assert (
                metrics.counter("store.blocks_fetched").value == fetched_cold
            )
            assert metrics.counter("cache.block_hits").value > 0


class TestFaultSurface:
    def test_timeouts_degrade_coverage_and_trip_breakers(self):
        """A store that always times out turns into shard failures:
        partial coverage, tripped breakers — exactly the path a crashed
        shard takes, with zero wrong results."""
        tiered_config = TieredStorageConfig(
            cache_budget_bytes=64 << 10, timeout_rate=1.0, seed=3
        )
        with _service(
            tiered=tiered_config,
            breakers=BreakerConfig(failure_threshold=2, recovery_time_s=60.0),
        ) as service:
            responses = [
                service.search(query.text)
                for query in list(service.query_log)[:8]
            ]
            assert all(response.coverage < 1.0 for response in responses)
            board = service.isn.breaker_board
            trips = sum(
                board.breaker(shard).trips
                for shard in range(service.partitioned.num_partitions)
            )
            assert trips >= 1

    def test_partial_timeouts_never_return_wrong_results(self):
        """With a lossy (not dead) store, every answered shard's hits
        are exact — failures subtract coverage, they never corrupt."""
        lossy = TieredStorageConfig(
            cache_budget_bytes=0, timeout_rate=0.2, seed=17
        )
        with _service() as resident, _service(
            tiered=lossy,
            breakers=BreakerConfig(failure_threshold=50, recovery_time_s=0.01),
        ) as tiered:
            for query in list(resident.query_log)[:10]:
                expected = resident.search(query.text)
                actual = tiered.search(query.text)
                if actual.coverage >= 1.0:
                    assert actual.doc_ids() == expected.doc_ids()
                else:
                    # Partial answers are a subset of the full ranking's
                    # candidate set, re-ranked — still only true hits.
                    assert set(actual.doc_ids()) <= set(
                        doc_id
                        for shard in tiered.partitioned
                        for doc_id in shard.global_doc_ids
                    )

    @pytest.mark.parametrize(
        "plan_fixture", ["crashed_shard_plan", "flapping_plan"]
    )
    def test_composes_with_chaos_fault_plans(self, request, plan_fixture):
        """The chaos harness's injected crashes and the tiered store
        coexist: a fault plan degrades coverage the same way it does on
        a resident service, and the surviving shard still pages."""
        plan = request.getfixturevalue(plan_fixture)
        metrics = MetricsRegistry()
        tiered_config = TieredStorageConfig(cache_budget_bytes=64 << 10)
        with _service(
            tiered=tiered_config,
            metrics=metrics,
            breakers=BreakerConfig(failure_threshold=2, recovery_time_s=30.0),
            faults=plan,
        ) as service:
            responses = [
                service.search(query.text)
                for query in list(service.query_log)[:6]
            ]
        assert any(response.coverage < 1.0 for response in responses)
        assert metrics.counter("store.blocks_fetched").value > 0


class TestPagingObservability:
    def test_search_result_reports_paging(self, small_index):
        tiered = tier_index(small_index, cache_budget_bytes=64 << 10)
        searcher = Searcher(tiered, algorithm="block_max_wand")
        result = searcher.search("the of and")
        assert result.blocks_fetched is not None
        assert result.bytes_read is not None
        assert result.blocks_fetched >= 0

    def test_resident_index_reports_none(self, small_index):
        result = Searcher(small_index).search("the of and")
        assert result.blocks_fetched is None
        assert result.bytes_read is None

    def test_shard_spans_carry_paging_attributes(self):
        tracer = Tracer()
        tiered_config = TieredStorageConfig(cache_budget_bytes=64 << 10)
        with _service(tiered=tiered_config, tracer=tracer) as service:
            service.search(service.query_log[0].text)
        shard_spans = [
            span
            for trace in tracer.traces
            for span in trace.iter_tree()
            if span.name == "shard"
        ]
        assert shard_spans
        for span in shard_spans:
            assert "blocks_fetched" in span.attributes
            assert "bytes_read" in span.attributes
            assert span.attributes["blocks_fetched"] >= 0
