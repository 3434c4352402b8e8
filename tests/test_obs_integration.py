"""Observability wired through the serving path.

Covers the cross-layer contracts: ``ComponentTimings`` must equal the
recorded span durations exactly, and serving-path counters must
account for real work.
"""

import pytest

from repro.cache.querycache import QueryResultCache
from repro.engine.frontend import Frontend
from repro.engine.instrumentation import ComponentTimings
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer


@pytest.fixture()
def partitioned(small_collection):
    return partition_index(small_collection, 3)


@pytest.fixture()
def query_text(small_query_log):
    return next(iter(small_query_log)).text


class TestIsnTracing:
    def test_trace_structure(self, partitioned, query_text):
        tracer = Tracer()
        with IndexServingNode(partitioned, tracer=tracer) as node:
            response = node.execute(query_text)
        root = response.trace
        assert root is not None
        assert root.name == "isn.execute"
        assert root.attributes["num_partitions"] == 3
        assert [child.name for child in root.children] == [
            "parse", "fanout", "merge"
        ]
        shards = root.find("fanout").children
        assert [span.name for span in shards] == ["shard"] * 3
        assert sorted(span.attributes["shard"] for span in shards) == [0, 1, 2]
        assert tracer.traces == [root]

    def test_shard_attributes_account_for_matched_volume(
        self, partitioned, query_text
    ):
        tracer = Tracer()
        with IndexServingNode(partitioned, tracer=tracer) as node:
            response = node.execute_serial(query_text)
        shards = response.trace.find("fanout").children
        assert sum(
            span.attributes["postings_scanned"] for span in shards
        ) == response.matched_volume

    def test_timings_equal_span_derivation_exactly(
        self, partitioned, query_text
    ):
        """The response's timings and its span tree are one measurement."""
        tracer = Tracer()
        with IndexServingNode(partitioned, tracer=tracer) as node:
            response = node.execute(query_text)
        # Exact equality, not approx: both views read the same
        # perf_counter samples, so any drift is a wiring bug.
        root = response.trace
        assert response.timings.total_seconds == root.duration
        assert response.timings.parse_seconds == root.find("parse").duration
        assert response.timings.merge_seconds == root.find("merge").duration
        assert response.timings.fanout_seconds == root.find("fanout").duration
        assert response.timings.shard_seconds == [
            span.duration for span in root.find("fanout").children
        ]

    def test_traced_results_match_untraced(self, partitioned, query_text):
        tracer = Tracer()
        with IndexServingNode(partitioned) as plain:
            expected = plain.execute_serial(query_text)
        with IndexServingNode(partitioned, tracer=tracer) as traced:
            observed = traced.execute_serial(query_text)
        assert observed.hits == expected.hits
        assert observed.matched_volume == expected.matched_volume

    def test_no_tracer_means_no_trace(self, partitioned, query_text):
        with IndexServingNode(partitioned) as node:
            assert node.execute(query_text).trace is None

    def test_disabled_tracer_means_no_trace(self, partitioned, query_text):
        tracer = Tracer(enabled=False)
        with IndexServingNode(partitioned, tracer=tracer) as node:
            assert node.execute(query_text).trace is None
        assert tracer.traces == []


class TestServingPathCounters:
    def test_isn_and_search_counters(self, partitioned, query_text):
        metrics = MetricsRegistry()
        with IndexServingNode(partitioned, metrics=metrics) as node:
            response = node.execute(query_text)
            node.execute(query_text)
        assert metrics.counter("isn.queries").value == 2
        # One shard search per partition per query.
        assert metrics.counter("search.queries").value == 2 * 3
        assert (
            metrics.counter("search.postings_scanned").value
            == 2 * response.matched_volume
        )
        assert metrics.counter("daat.candidates_scored").value > 0
        assert metrics.histogram("isn.service_seconds").total == 2

    def test_cache_counters(self, partitioned, query_text):
        metrics = MetricsRegistry()
        cache = QueryResultCache(capacity=8, metrics=metrics)
        with IndexServingNode(partitioned, cache=cache, metrics=metrics) as node:
            first = node.execute(query_text)
            second = node.execute(query_text)
        assert metrics.counter("cache.misses").value == 1
        assert metrics.counter("cache.hits").value == 1
        assert second.hits == first.hits

    def test_cache_eviction_counter(self, partitioned, small_query_log):
        metrics = MetricsRegistry()
        cache = QueryResultCache(capacity=1, metrics=metrics)
        texts = [query.text for query in list(small_query_log)[:3]]
        with IndexServingNode(partitioned, cache=cache, metrics=metrics) as node:
            for text in texts:
                node.execute(text)
        assert metrics.counter("cache.evictions").value == 2

    def test_cache_hit_trace_marked(self, partitioned, query_text):
        tracer = Tracer()
        cache = QueryResultCache(capacity=8)
        with IndexServingNode(partitioned, cache=cache, tracer=tracer) as node:
            node.execute(query_text)
            cached = node.execute(query_text)
        assert cached.trace.attributes.get("cached") is True
        assert cached.trace.find("fanout") is None
        assert cached.timings == ComponentTimings(
            parse_seconds=cached.trace.find("parse").duration,
            total_seconds=cached.trace.duration,
        )


class TestFrontendNesting:
    def test_isn_trace_nests_under_frontend_span(
        self, partitioned, query_text
    ):
        tracer = Tracer()
        frontend = Frontend(
            [IndexServingNode(partitioned, tracer=tracer)], tracer=tracer
        )
        try:
            response = frontend.execute(query_text)
        finally:
            frontend.close()
        root = response.trace
        assert root is not None
        assert root.name == "frontend.execute"
        child_names = [child.name for child in root.children]
        assert child_names == ["isn.execute", "frontend.merge"]
        # One trace total: the ISN tree is nested, not a separate root.
        assert tracer.traces == [root]

    def test_frontend_without_tracer_keeps_none(self, partitioned, query_text):
        frontend = Frontend([IndexServingNode(partitioned)])
        try:
            assert frontend.execute(query_text).trace is None
        finally:
            frontend.close()
