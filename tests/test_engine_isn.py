"""Unit + integration tests for the native index serving node."""

import pytest

from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.search.executor import Searcher


@pytest.fixture(scope="module")
def partitioned(small_collection):
    return partition_index(small_collection, 4)


@pytest.fixture(scope="module")
def isn(partitioned):
    node = IndexServingNode(partitioned)
    yield node
    node.close()


class TestIndexServingNode:
    def test_parallel_matches_serial(self, isn, small_query_log):
        for query in list(small_query_log)[:10]:
            parallel = isn.execute(query.text)
            serial = isn.execute_serial(query.text)
            assert parallel.doc_ids() == serial.doc_ids()

    def test_matches_unpartitioned_index(
        self, isn, small_index, small_query_log
    ):
        # Global-statistics scoring makes the partitioned ISN rank exactly
        # like a single-index searcher.
        searcher = Searcher(small_index)
        for query in list(small_query_log)[:15]:
            isn_response = isn.execute(query.text, k=5)
            flat = searcher.search(query.text, k=5)
            assert isn_response.doc_ids() == flat.doc_ids()

    def test_timings_populated(self, isn, small_query_log):
        response = isn.execute(small_query_log[0].text)
        timings = response.timings
        assert timings.total_seconds > 0
        assert len(timings.shard_seconds) == 4
        assert timings.fanout_seconds >= max(timings.shard_seconds) * 0.5
        assert timings.slowest_shard_seconds == max(timings.shard_seconds)
        assert timings.skew_seconds >= 0

    def test_matched_volume_matches_full_index(
        self, isn, small_index, small_query_log
    ):
        from repro.search.query import QueryParser

        parser = QueryParser(small_index.analyzer)
        for query in list(small_query_log)[:5]:
            response = isn.execute(query.text)
            parsed = parser.parse(query.text)
            expected = small_index.matched_postings_volume(list(parsed.terms))
            assert response.matched_volume == expected

    def test_k_respected(self, isn, small_query_log):
        response = isn.execute(small_query_log[0].text, k=3)
        assert len(response.hits) <= 3

    def test_closed_node_rejects_queries(self, partitioned):
        node = IndexServingNode(partitioned)
        node.close()
        with pytest.raises(RuntimeError):
            node.execute("anything")

    def test_context_manager(self, partitioned):
        with IndexServingNode(partitioned) as node:
            node.execute_serial("test")
        with pytest.raises(RuntimeError):
            node.execute_serial("test")

    def test_local_stats_mode_runs(self, partitioned, small_query_log):
        with IndexServingNode(partitioned, use_global_stats=False) as node:
            response = node.execute(small_query_log[0].text)
            assert response.hits is not None

    def test_invalid_thread_count(self, partitioned):
        with pytest.raises(ValueError):
            IndexServingNode(
                partitioned, execution=ExecutionConfig(workers=0)
            )

    def test_num_partitions(self, isn):
        assert isn.num_partitions == 4
