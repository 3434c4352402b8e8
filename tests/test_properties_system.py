"""Property-based tests of system-level invariants.

These go beyond unit behaviour: they assert the conservation laws and
equivalences the reproduction's conclusions rest on, over randomized
inputs (hypothesis) and randomized corpora.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.results import QueryRecord
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.cluster.simulation import ClusterConfig, run_open_loop
from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.partitioner import partition_index
from repro.index.serialization import deserialize_index, serialize_index
from repro.search.daat import score_daat
from repro.search.executor import Searcher, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.merger import merge_shard_results
from repro.search.query import ParsedQuery
from repro.search.taat import score_taat
from repro.servers.catalog import BIG_SERVER
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.text.analyzer import Analyzer, AnalyzerConfig
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand
from tests.conftest import postings_pairs

PLAIN = Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))

# Small random corpora: documents over a tiny vocabulary so terms collide.
words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)
documents_strategy = st.lists(
    st.lists(words, min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=12,
)
query_strategy = st.lists(words, min_size=1, max_size=4, unique=True)


def build(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return collection


class TestSearchEquivalences:
    @settings(max_examples=40, deadline=None)
    @given(documents_strategy, query_strategy)
    def test_daat_taat_agree_on_random_corpora(self, texts, terms):
        index = IndexBuilder(PLAIN).build(build(texts))
        query = ParsedQuery(terms=tuple(terms), k=5)
        daat = score_daat(index, query)
        taat = score_taat(index, query)
        assert [h.doc_id for h in daat] == [h.doc_id for h in taat]
        for a, b in zip(daat, taat):
            assert a.score == pytest.approx(b.score)

    @settings(max_examples=25, deadline=None)
    @given(
        documents_strategy,
        query_strategy,
        st.integers(min_value=1, max_value=4),
    )
    def test_partitioned_global_stats_equals_monolithic(
        self, texts, terms, num_partitions
    ):
        collection = build(texts)
        index = IndexBuilder(PLAIN).build(collection)
        partitioned = partition_index(
            collection, num_partitions, analyzer=PLAIN
        )
        factory = global_scorer_factory(partitioned)
        shard_results = [
            ShardSearcher(shard, scorer_factory=factory).search(
                ParsedQuery(terms=tuple(terms), k=5)
            ).hits
            for shard in partitioned
        ]
        merged = merge_shard_results(shard_results, k=5)
        reference = score_daat(index, ParsedQuery(terms=tuple(terms), k=5))
        assert [h.doc_id for h in merged] == [h.doc_id for h in reference]
        for a, b in zip(merged, reference):
            assert a.score == pytest.approx(b.score)

    @settings(max_examples=25, deadline=None)
    @given(documents_strategy)
    def test_index_serialization_roundtrip_random(self, texts):
        index = IndexBuilder(PLAIN).build(build(texts))
        restored = deserialize_index(serialize_index(index))
        assert restored.dictionary.terms() == index.dictionary.terms()
        for term in index.dictionary:
            assert postings_pairs(restored, term) == postings_pairs(index, term)


class TestSimulatorConservation:
    def _run(self, rate, num_partitions, num_queries=800, seed=0):
        config = ClusterConfig(
            spec=BIG_SERVER,
            partitioning=PartitionModelConfig(
                num_partitions=num_partitions,
                partition_overhead=0.0004,
                merge_base=0.0002,
                merge_per_partition=0.0001,
            ),
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate),
            demands=LognormalDemand(-4.0, 0.6),
            num_queries=num_queries,
        )
        return config, run_open_loop(config, scenario, seed=seed)

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=10.0, max_value=200.0),
        num_partitions=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_work_conservation(self, rate, num_partitions, seed):
        """Busy core time equals the total work of all queries."""
        config, result = self._run(rate, num_partitions, seed=seed)
        expected_work = sum(
            config.partitioning.total_work(record.demand)
            for record in result.records
        )
        busy = result.core_busy_time
        assert busy == pytest.approx(expected_work, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=10.0, max_value=150.0),
        num_partitions=st.integers(min_value=1, max_value=8),
    )
    def test_latency_lower_bound(self, rate, num_partitions):
        """No query beats its own critical path: the largest partition
        task plus the merge, at core speed."""
        config, result = self._run(rate, num_partitions)
        merge = config.partitioning.merge_demand()
        alpha = config.partitioning.partition_overhead
        speed = BIG_SERVER.core_speed
        for record in result.records:
            # The largest task carries at least demand/P work.
            floor = (
                record.demand / num_partitions + alpha + merge
            ) / speed
            assert record.latency >= floor - 1e-9

    @settings(max_examples=8, deadline=None)
    @given(
        num_partitions=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_common_random_numbers_across_partition_sweep(
        self, num_partitions, seed
    ):
        """Sweeping P must not perturb arrivals or per-query demands."""
        _, base = self._run(50.0, 1, num_queries=200, seed=seed)
        _, swept = self._run(50.0, num_partitions, num_queries=200, seed=seed)
        assert np.allclose(
            [r.client_send for r in base.records],
            [r.client_send for r in swept.records],
        )
        assert np.allclose(
            [r.demand for r in base.records],
            [r.demand for r in swept.records],
        )

    def test_component_decomposition_identity(self):
        """Every query's components sum exactly to its server latency."""
        _, result = self._run(80.0, 4)
        for record in result.records:
            total = (
                record.queue_wait
                + record.parallel_service
                + record.straggler_skew
                + record.merge_wait
                + record.merge_service
            )
            assert total == pytest.approx(record.server_latency, abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        demands=st.lists(
            st.floats(min_value=1e-4, max_value=0.1), min_size=1, max_size=20
        )
    )
    def test_single_core_fifo_makespan(self, demands):
        """On one core, the makespan is exactly the sum of demands when
        all queries arrive at time zero."""
        sim = Simulator()
        spec = ServerSpec("one", 1, 1.0, 0.0, 1.0)
        done = []
        server = SimulatedServer(
            sim,
            spec,
            PartitionModelConfig(
                num_partitions=1,
                partition_overhead=0.0,
                merge_base=0.0,
                merge_per_partition=0.0,
            ),
            RandomStreams(0),
            "imbalance",
            on_complete=done.append,
        )
        for query_id, demand in enumerate(demands):
            record = QueryRecord(
                query_id=query_id, client_send=0.0, demand=demand
            )
            sim.schedule(0.0, server.handle_arrival, record)
        sim.run()
        assert len(done) == len(demands)
        assert max(r.merge_end for r in done) == pytest.approx(sum(demands))
