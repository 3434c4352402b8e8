"""Tests for the frontend tier and the client drivers."""

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.engine.driver import OpenLoopDriver, replay_serial
from repro.engine.frontend import Frontend
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.search.executor import Searcher


@pytest.fixture(scope="module")
def two_isns(small_collection):
    """Split the collection across two ISNs (inter-server sharding).

    Yields ``(nodes, id_maps)`` where ``id_maps[i][local]`` is the
    cluster-global doc id.
    """
    half = len(small_collection) // 2
    first, second = DocumentCollection(), DocumentCollection()
    id_maps = [[], []]
    for document in small_collection:
        index = 0 if document.doc_id < half else 1
        target = (first, second)[index]
        id_maps[index].append(document.doc_id)
        target.add(
            Document(
                doc_id=len(target),
                url=document.url,
                title=document.title,
                body=document.body,
            )
        )
    nodes = [
        IndexServingNode(partition_index(first, 2)),
        IndexServingNode(partition_index(second, 2)),
    ]
    yield nodes, id_maps
    for node in nodes:
        node.close()


@pytest.fixture(scope="module")
def single_isn(small_collection):
    node = IndexServingNode(partition_index(small_collection, 2))
    yield node
    node.close()


class TestFrontend:
    def test_requires_isns(self):
        with pytest.raises(ValueError):
            Frontend([])

    def test_single_isn_passthrough(self, single_isn, small_query_log):
        frontend = Frontend([single_isn])
        assert frontend.num_isns == 1
        for query in list(small_query_log)[:5]:
            via_frontend = frontend.execute(query.text)
            direct = single_isn.execute(query.text)
            assert via_frontend.doc_ids() == direct.doc_ids()

    def test_multi_isn_requires_id_maps(self, two_isns):
        nodes, _ = two_isns
        with pytest.raises(ValueError, match="global_id_maps"):
            Frontend(nodes)

    def test_id_map_length_mismatch(self, two_isns):
        nodes, id_maps = two_isns
        with pytest.raises(ValueError, match="id maps"):
            Frontend(nodes, global_id_maps=id_maps[:1])

    def test_multi_isn_result_count(self, two_isns, small_query_log):
        nodes, id_maps = two_isns
        frontend = Frontend(nodes, global_id_maps=id_maps)
        response = frontend.execute(small_query_log[0].text, k=10)
        assert len(response.hits) <= 10
        assert len(response.isn_responses) == 2
        assert response.total_seconds > 0
        assert response.slowest_isn_seconds > 0

    def test_multi_isn_returns_cluster_global_ids(
        self, two_isns, small_collection, small_query_log
    ):
        """Merged hits must reference the original collection's ids so
        the caller can fetch the right documents."""
        nodes, id_maps = two_isns
        frontend = Frontend(nodes, global_id_maps=id_maps)
        for query in list(small_query_log)[:5]:
            response = frontend.execute(query.text)
            for hit in response.hits:
                assert 0 <= hit.doc_id < len(small_collection)

    def test_multi_isn_page_matches_monolith_size(
        self, two_isns, small_index, small_query_log
    ):
        """Inter-server sharding must not lose results: the merged page
        has as many hits as a monolithic index's page."""
        nodes, id_maps = two_isns
        frontend = Frontend(nodes, global_id_maps=id_maps)
        monolith = Searcher(small_index)
        for query in list(small_query_log)[:10]:
            merged = frontend.execute(query.text, k=5)
            reference = monolith.search(query.text, k=5)
            assert len(merged.hits) == len(reference.hits)


class TestReplaySerial:
    def test_measurements_structure(self, single_isn, small_query_log):
        queries = list(small_query_log)[:10]
        measurements = replay_serial(single_isn, queries, repeats=1, warmup=1)
        assert len(measurements) == 10
        for measurement, query in zip(measurements, queries):
            assert measurement.query_id == query.query_id
            assert measurement.service_seconds > 0
            assert measurement.matched_volume >= 0
            assert measurement.num_raw_terms == len(query.raw_terms)

    def test_empty_queries(self, single_isn):
        assert replay_serial(single_isn, []) == []

    def test_invalid_repeats(self, single_isn, small_query_log):
        with pytest.raises(ValueError):
            replay_serial(single_isn, list(small_query_log)[:1], repeats=0)

    def test_service_time_scales_with_volume(self, timing_isn, small_query_log):
        """Queries touching more postings must, on aggregate, take longer
        — the correlation the simulator calibration relies on."""
        measurements = replay_serial(
            timing_isn, list(small_query_log)[:60], repeats=5, warmup=3
        )
        volumes = np.array([m.matched_volume for m in measurements])
        times = np.array([m.service_seconds for m in measurements])
        big = times[volumes > np.median(volumes)].mean()
        small = times[volumes <= np.median(volumes)].mean()
        assert big > small


class TestOpenLoopDriver:
    def test_replay_waits_are_the_lindley_recursion(
        self, single_isn, small_query_log
    ):
        """FCFS M/G/1 over the measured services: each query waits for
        the previous one's wait plus service, less the gap between
        their Poisson arrivals."""
        seed, rate_qps, n = 7, 5_000.0, 40
        result = OpenLoopDriver(single_isn, small_query_log, seed=seed).run(
            rate_qps, n, mode="replay"
        )
        rng = np.random.default_rng(seed)
        small_query_log.sample_stream(n, rng)
        gaps = rng.exponential(1.0 / rate_qps, n)
        service = result.service_seconds
        waits = [0.0]
        for i in range(1, n):
            waits.append(max(0.0, waits[-1] + service[i - 1] - gaps[i]))
        assert result.mode == "replay"
        assert result.offered_qps == rate_qps
        assert service.shape == (n,) and np.all(service > 0)
        assert result.waits == pytest.approx(waits, rel=1e-9, abs=1e-12)
        assert np.array_equal(result.latencies, result.waits + service)
        assert np.any(result.waits > 0)
