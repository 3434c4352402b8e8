"""Integration tests: the resilience layer inside both execution paths.

Covers the three contracts the overload-control PR makes:

- faults/breakers/admission actually change behaviour when enabled
  (native ISN and DES broker alike);
- everything left at None is bit-identical to the plain paths;
- shed queries are typed outcomes that drivers and results account for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BreakerConfig,
    ClusterModel,
    FaultPlan,
    HedgingPolicy,
    MetricsRegistry,
    OverloadPolicy,
    ShardCrash,
)
from repro.corpus.generator import CorpusConfig
from repro.corpus.querylog import QueryLogConfig
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.service import SearchService, SearchServiceConfig
from repro.resilience.admission import SHED_CAPACITY
from repro.resilience.breaker import BreakerState

TINY_CORPUS = CorpusConfig(
    num_documents=120,
    vocabulary=VocabularyConfig(size=900),
    mean_length=40,
    seed=11,
)
TINY_LOG = QueryLogConfig(num_unique_queries=30, seed=5)


def _tiny_service(**overrides) -> SearchService:
    config = SearchServiceConfig(
        corpus=TINY_CORPUS,
        query_log=TINY_LOG,
        num_partitions=2,
        **overrides,
    )
    return SearchService(config)


class TestNativeChaos:
    def test_breaker_fences_crashed_shard(self, chaos_service):
        queries = [q.text for q in list(chaos_service.query_log)[:6]]
        responses = [chaos_service.search(text) for text in queries]
        # The crashed shard never answers: every response is partial.
        assert all(r.coverage == 0.5 for r in responses)
        assert not any(getattr(r, "shed", False) for r in responses)
        # Two failures (attempt + retry) trip the breaker on the first
        # query; from then on the shard is skipped without being tried.
        board = chaos_service.isn.breaker_board
        assert board.breaker(1).trips == 1
        assert board.breaker(1).state(float("inf")) in (
            BreakerState.OPEN,
            BreakerState.HALF_OPEN,
        )
        assert board.breaker(0).state(0.0) is BreakerState.CLOSED
        assert all(r.breaker_skips == 1 for r in responses[1:])
        injector = chaos_service.isn.fault_injector
        assert injector.injected_crashes >= 2

    def test_results_on_surviving_shard_still_ranked(self, chaos_service):
        response = chaos_service.search(chaos_service.query_log[0].text)
        assert response.hits
        # Shard 1 is fenced; every hit must come from partition 0.
        survivors = set(
            int(doc_id)
            for doc_id in chaos_service.partitioned[0].global_doc_ids
        )
        for hit in response.hits:
            assert hit.doc_id in survivors

    def test_overload_sheds_deterministically(self):
        with _tiny_service(
            overload=OverloadPolicy(max_concurrency=1)
        ) as service:
            gate = service.isn.admission_gate
            assert gate.acquire() is None  # occupy the only slot
            response = service.search(service.query_log[0].text)
            assert response.shed is True
            assert response.reason == SHED_CAPACITY
            assert response.coverage == 0.0
            assert response.doc_ids() == []
            gate.release(0.001)
            served = service.search(service.query_log[0].text)
            assert getattr(served, "shed", False) is False
            assert served.coverage == 1.0

    def test_noop_breakers_do_not_change_results(self):
        with _tiny_service() as plain, _tiny_service(
            breakers=BreakerConfig(failure_threshold=1_000_000)
        ) as guarded:
            for query in list(plain.query_log)[:5]:
                base = plain.search(query.text)
                other = guarded.search(query.text)
                assert base.doc_ids() == other.doc_ids()
                assert [h.score for h in base.hits] == [
                    h.score for h in other.hits
                ]
                assert other.breaker_skips == 0

    def test_shed_metrics_recorded(self):
        metrics = MetricsRegistry()
        config = SearchServiceConfig(
            corpus=TINY_CORPUS,
            query_log=TINY_LOG,
            num_partitions=2,
            overload=OverloadPolicy(max_concurrency=1),
        )
        with SearchService(config, metrics=metrics) as service:
            gate = service.isn.admission_gate
            gate.acquire()
            service.search(service.query_log[0].text)
            gate.release(0.001)
            service.search(service.query_log[0].text)
        snapshot = metrics.snapshot()
        assert snapshot["isn.shed"]["value"] == 1
        assert snapshot["isn.shed.capacity"]["value"] == 1
        assert snapshot["isn.served"]["value"] >= 1
        assert "isn.admission_queue_depth" in snapshot


CHAOS_CLUSTER = dict(
    num_servers=4,
    hedging=HedgingPolicy(deadline_s=0.05),
    breakers=BreakerConfig(failure_threshold=2, recovery_time_s=0.25),
)


class TestDesChaos:
    def test_flapping_shard_trips_breakers(self, flapping_plan):
        model = ClusterModel(faults=flapping_plan, **CHAOS_CLUSTER)
        result = model.run(rate_qps=400.0, num_queries=800, seed=3)
        assert result.shard_failures[1] > 0
        assert result.breaker_skips > 0
        assert result.mean_coverage() < 1.0
        assert result.shed_count == 0  # no admission control configured
        # The sick shard dominates the failure tally.
        assert result.shard_failures[1] == max(result.shard_failures)

    def test_chaos_run_is_deterministic(self, flapping_plan):
        model = ClusterModel(faults=flapping_plan, **CHAOS_CLUSTER)
        first = model.run(rate_qps=400.0, num_queries=500, seed=3)
        second = model.run(rate_qps=400.0, num_queries=500, seed=3)
        assert np.array_equal(first.latencies(), second.latencies())
        assert first.shard_failures == second.shard_failures
        assert [r.coverage for r in first.records] == [
            r.coverage for r in second.records
        ]

    def test_des_overload_sheds_typed_records(self):
        model = ClusterModel(
            num_servers=2,
            overload=OverloadPolicy(max_concurrency=4),
        )
        # ~5x the healthy capacity of two big-server shards.
        result = model.run(rate_qps=25_000.0, num_queries=600, seed=0)
        assert result.shed_count > 0
        assert result.shed_count + len(result.served_records()) == 600
        for record in result.records:
            if record.shed:
                assert record.coverage == 0.0
                assert record.shed_reason
                assert len(record.isn_completions) == 0
        assert result.goodput_qps() > 0.0
        summary = result.summary()
        assert summary.count == len(result.served_records())

    def test_all_shed_summary_is_nan(self):
        from repro.cluster.fanout import FanoutQueryRecord, FanoutResult

        records = [
            FanoutQueryRecord(
                query_id=i,
                client_send=float(i),
                client_receive=float(i),
                isn_completions=(),
                total_demand=0.0,
                shed=True,
                shed_reason="capacity",
                coverage=0.0,
            )
            for i in range(4)
        ]
        result = FanoutResult(records=records, horizon=4.0, num_servers=2)
        summary = result.summary()
        assert summary.count == 0
        assert np.isnan(summary.p99)

    def test_empty_fault_plan_is_bit_identical_to_plain(self):
        plain = ClusterModel(num_servers=4)
        shimmed = ClusterModel(num_servers=4, faults=FaultPlan())
        base = plain.run(rate_qps=200.0, num_queries=600, seed=0)
        other = shimmed.run(rate_qps=200.0, num_queries=600, seed=0)
        assert np.array_equal(base.latencies(), other.latencies())

    def test_noop_breakers_bit_identical_on_hedged_path(self):
        hedging = HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.2)
        plain = ClusterModel(
            num_servers=4, replicas_per_shard=2, hedging=hedging
        )
        guarded = ClusterModel(
            num_servers=4,
            replicas_per_shard=2,
            hedging=hedging,
            breakers=BreakerConfig(failure_threshold=1_000_000),
        )
        base = plain.run(rate_qps=200.0, num_queries=600, seed=0)
        other = guarded.run(rate_qps=200.0, num_queries=600, seed=0)
        assert np.array_equal(base.latencies(), other.latencies())
        assert other.breaker_skips == 0

    def test_crash_rejections_count_failures_without_breakers(self):
        plan = FaultPlan(
            crashes=(ShardCrash(shard=0, start_s=0.0, duration_s=10.0),)
        )
        model = ClusterModel(num_servers=2, faults=plan)
        result = model.run(rate_qps=200.0, num_queries=400, seed=1)
        assert result.shard_failures[0] > 0
        assert result.shard_failures[1] == 0
        assert result.failures == sum(result.shard_failures)
        assert result.mean_coverage() < 1.0

    def test_des_metrics_exported(self, flapping_plan):
        metrics = MetricsRegistry()
        model = ClusterModel(faults=flapping_plan, **CHAOS_CLUSTER)
        model.run(rate_qps=400.0, num_queries=400, seed=3, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["fanout.queries"]["value"] == 400
        assert snapshot["fanout.served"]["value"] == 400
        assert snapshot["fanout.breaker_skips"]["value"] > 0
        assert snapshot["fanout.failures"]["value"] > 0
        assert any(
            name.startswith("fanout.breaker.") and name.endswith(".state")
            for name in snapshot
        )

    def test_des_admission_metrics_exported(self):
        metrics = MetricsRegistry()
        model = ClusterModel(
            num_servers=2, overload=OverloadPolicy(max_concurrency=4)
        )
        model.run(
            rate_qps=25_000.0, num_queries=400, seed=0, metrics=metrics
        )
        snapshot = metrics.snapshot()
        assert snapshot["fanout.shed"]["value"] > 0
        assert "fanout.admission_queue_depth" in snapshot
