"""Tests for service-time prediction and deadline-aware scheduling.

The load-bearing contract is bit-identity when disabled: a service
built with ``scheduler=None`` (or a scheduler that only routes, never
caps depth) must return exactly the seed's hits, across every
traversal strategy and in both execution paths — and the DES must not
even *draw* the prediction noise stream when no scheduler is set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.hetero import (
    HeterogeneousConfig,
    run_heterogeneous_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.engine.isn import IndexServingNode
from repro.engine.service import SearchService, SearchServiceConfig
from repro.index.partitioner import partition_index
from repro.predict.calibrate import calibrate_predictor
from repro.predict.features import QueryFeatures, extract_features
from repro.predict.predictor import ServiceTimePredictor
from repro.predict.scheduler import (
    BUDGET_HEADROOM,
    DeadlineCappedDemand,
    DeadlineScheduler,
)
from repro.servers.catalog import BIG_SERVER, SMALL_SERVER
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

PREDICTOR = ServiceTimePredictor(
    base_seconds=1e-4,
    per_term_seconds=5e-5,
    per_posting_seconds=1e-6,
    residual_log_sigma=0.25,
)


@pytest.fixture(scope="module")
def partitioned(small_collection):
    return partition_index(small_collection, 2)


class TestQueryFeatures:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryFeatures(term_count=-1, total_postings=0, max_postings=0)
        with pytest.raises(ValueError):
            QueryFeatures(term_count=1, total_postings=5, max_postings=9)

    def test_extraction_sums_document_frequencies(self, partitioned):
        index = partitioned[0].index
        terms = index.dictionary.terms()[:2]
        features = extract_features(index, terms)
        assert features.term_count == 2
        assert features.total_postings == sum(
            index.document_frequency(t) for t in terms
        )
        assert features.max_postings == max(
            index.document_frequency(t) for t in terms
        )

    def test_partitioned_extraction_matches_shard_sum(self, partitioned):
        term = partitioned[0].index.dictionary.terms()[0]
        features = extract_features(partitioned, [term])
        expected = sum(
            shard.index.document_frequency(term) for shard in partitioned
        )
        assert features.total_postings == expected

    def test_unknown_terms_count_but_cost_nothing(self, partitioned):
        features = extract_features(
            partitioned, ["zzz-definitely-not-a-term"]
        )
        assert features.term_count == 1
        assert features.total_postings == 0


class TestPredictorFit:
    def _synthetic(self, rng, n=60):
        features = [
            QueryFeatures(
                term_count=int(rng.integers(1, 6)),
                total_postings=int(rng.integers(10, 5_000)),
                max_postings=0,
            )
            for _ in range(n)
        ]
        times = [
            2e-4 + 1e-4 * f.term_count + 2e-6 * f.total_postings
            for f in features
        ]
        return features, times

    def test_recovers_linear_model(self, rng):
        features, times = self._synthetic(rng)
        fitted = ServiceTimePredictor.fit(features, times)
        assert fitted.mape(features, times) < 0.01
        assert fitted.per_posting_seconds == pytest.approx(2e-6, rel=0.05)

    def test_fit_is_deterministic(self, rng):
        features, times = self._synthetic(rng)
        assert ServiceTimePredictor.fit(
            features, times
        ) == ServiceTimePredictor.fit(features, times)

    def test_prediction_monotone_in_postings(self, rng):
        """More postings never predict a cheaper query (clamped fit)."""
        features, times = self._synthetic(rng)
        # Adversarial: negatively-correlated noise tempts an
        # unconstrained fit into a negative coefficient.
        times = [
            max(t - 1e-6 * f.total_postings * 0.5, 1e-6)
            for f, t in zip(features, times)
        ]
        fitted = ServiceTimePredictor.fit(features, times)
        assert fitted.per_posting_seconds >= 0
        assert fitted.per_term_seconds >= 0
        assert fitted.base_seconds >= 0
        previous = 0.0
        for postings in (0, 10, 1_000, 100_000):
            predicted = fitted.predict(
                QueryFeatures(
                    term_count=2, total_postings=postings, max_postings=0
                )
            )
            assert predicted >= previous
            previous = predicted

class TestCalibration:
    def test_deterministic_and_split_by_text(self, partitioned, small_query_log):
        isn = IndexServingNode(partitioned)
        try:
            first = calibrate_predictor(
                isn, small_query_log, num_queries=40, repeats=1, seed=0
            )
            second = calibrate_predictor(
                isn, small_query_log, num_queries=40, repeats=1, seed=0
            )
        finally:
            isn.close()
        # Measured wall-clock times differ run to run, but the query
        # selection and train/holdout split are seed-deterministic.
        assert first.holdout_features == second.holdout_features
        assert first.num_train == second.num_train
        assert first.num_holdout == second.num_holdout
        assert first.num_train + first.num_holdout >= 8
        assert first.num_holdout >= 1
        # The fit itself is sane: a finite model with physical signs.
        assert first.predictor.base_seconds >= 0
        assert first.predictor.per_posting_seconds >= 0
        assert first.holdout_mape < 10.0  # not astronomically wrong


class TestDeadlineScheduler:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineScheduler(predictor=PREDICTOR, deadline_s=0.0)
        with pytest.raises(ValueError):
            DeadlineScheduler(predictor=PREDICTOR, depth_from_budget=True)
        inert = DeadlineScheduler(predictor=PREDICTOR)
        assert not inert.routes

    def test_depth_mapping_caps_only_when_budget_short(self):
        scheduler = DeadlineScheduler(
            predictor=PREDICTOR, deadline_s=0.05, depth_from_budget=True
        )
        big = QueryFeatures(
            term_count=2, total_postings=100_000, max_postings=0
        )
        # Ample remaining budget: no cap.
        assert scheduler.max_docs_for(big, remaining_s=10.0) is None
        # Tight budget: capped, but never below the floor.
        capped = scheduler.max_docs_for(big, remaining_s=0.01, floor=10)
        assert capped is not None
        assert 10 <= capped < big.total_postings
        # Exhausted budget: the min-depth floor still applies.
        floor = scheduler.max_docs_for(big, remaining_s=0.0, floor=10)
        assert floor >= scheduler.min_depth_fraction * big.total_postings

    def test_depth_mapping_splits_across_shards(self):
        scheduler = DeadlineScheduler(
            predictor=PREDICTOR, deadline_s=0.05, depth_from_budget=True
        )
        big = QueryFeatures(
            term_count=2, total_postings=100_000, max_postings=0
        )
        one = scheduler.max_docs_for(big, remaining_s=0.01, num_shards=1)
        four = scheduler.max_docs_for(big, remaining_s=0.01, num_shards=4)
        assert four < one

    def test_capped_demand_respects_prediction_not_truth(self):
        scheduler = DeadlineScheduler(predictor=PREDICTOR, deadline_s=0.05)
        # Predicted to fit: untouched even though the true demand is huge.
        assert scheduler.capped_demand(1.0, predicted=0.01, core_speed=1.0) == 1.0
        # Predicted to blow the budget: truncated — but never below the
        # min-depth floor, which dominates here (floor 0.1 > affordable).
        capped = scheduler.capped_demand(1.0, predicted=10.0, core_speed=1.0)
        assert capped == pytest.approx(scheduler.min_depth_fraction * 1.0)
        # With a negligible floor the cap is exactly the affordable work.
        greedy = DeadlineScheduler(
            predictor=PREDICTOR, deadline_s=0.05, min_depth_fraction=1e-6
        )
        capped = greedy.capped_demand(1.0, predicted=10.0, core_speed=1.0)
        assert capped == pytest.approx(greedy.deadline_s * BUDGET_HEADROOM)

    def test_capped_demand_model_tracks_served_fraction(self):
        base = LognormalDemand(mu=-4.6, sigma=0.8)
        scheduler = DeadlineScheduler(predictor=PREDICTOR, deadline_s=0.02)
        wrapped = DeadlineCappedDemand(
            base=base, scheduler=scheduler, core_speed=0.35, parallelism=2
        )
        raw = base.demands(5_000, np.random.default_rng(1))
        capped = wrapped.demands(5_000, np.random.default_rng(1))
        assert np.all(capped <= raw + 1e-12)
        assert 0.0 < wrapped.last_served_fraction < 1.0
        assert wrapped.last_served_fraction == pytest.approx(
            capped.sum() / raw.sum()
        )
        # The wrapper is ``capped_demand`` applied element by element.
        rng = np.random.default_rng(1)
        draws = base.demands(5_000, rng)
        sigma = PREDICTOR.residual_log_sigma
        noise = np.exp(sigma * rng.standard_normal(5_000))
        assert np.array_equal(
            capped,
            [
                scheduler.capped_demand(d, d * n, 0.35, parallelism=2)
                for d, n in zip(draws, noise)
            ],
        )

    def test_capped_demand_base_draws_bit_identical(self):
        """The wrapper's base demands must consume the RNG exactly like
        the unwrapped model (prediction noise is drawn *after*)."""
        base = LognormalDemand(mu=-4.6, sigma=0.8)
        scheduler = DeadlineScheduler(
            predictor=ServiceTimePredictor(
                base_seconds=0.0,
                per_term_seconds=0.0,
                per_posting_seconds=0.0,
                residual_log_sigma=0.0,
            ),
            deadline_s=1e9,  # never truncates
        )
        wrapped = DeadlineCappedDemand(
            base=base, scheduler=scheduler, core_speed=1.0
        )
        assert np.array_equal(
            base.demands(100, np.random.default_rng(7)),
            wrapped.demands(100, np.random.default_rng(7)),
        )


ALL_STRATEGIES = ("daat", "taat", "wand", "block_max_wand")


class TestNativeBitIdentity:
    @pytest.mark.parametrize("algorithm", ALL_STRATEGIES)
    def test_routing_only_scheduler_never_changes_hits(
        self, partitioned, small_query_log, algorithm
    ):
        """scheduler=None vs routing-only scheduler: identical hits,
        scores, and coverage for every traversal strategy."""
        plain = IndexServingNode(partitioned, algorithm=algorithm)
        routed = IndexServingNode(
            partitioned,
            algorithm=algorithm,
            scheduler=DeadlineScheduler(
                predictor=PREDICTOR, long_query_threshold_s=1e-4
            ),
        )
        try:
            for query in list(small_query_log)[:10]:
                a = plain.execute(query.text, k=10)
                b = routed.execute(query.text, k=10)
                assert [(h.doc_id, h.score) for h in a.hits] == [
                    (h.doc_id, h.score) for h in b.hits
                ]
                assert a.coverage == b.coverage
        finally:
            plain.close()
            routed.close()

    def test_inert_scheduler_without_deadline_never_caps(
        self, partitioned, small_query_log
    ):
        """No deadline, no threshold: the scheduler is inert even on
        the depth-capable BMW path."""
        plain = IndexServingNode(partitioned, algorithm="block_max_wand")
        inert = IndexServingNode(
            partitioned,
            algorithm="block_max_wand",
            scheduler=DeadlineScheduler(predictor=PREDICTOR),
        )
        try:
            for query in list(small_query_log)[:10]:
                a = plain.execute(query.text, k=10)
                b = inert.execute(query.text, k=10)
                assert [(h.doc_id, h.score) for h in a.hits] == [
                    (h.doc_id, h.score) for h in b.hits
                ]
        finally:
            plain.close()
            inert.close()

    def test_depth_cap_truncates_and_flags(self, partitioned, small_query_log):
        """A starved budget must actually truncate BMW traversal —
        visible in the ``predict.depth_capped`` counter — while still
        returning hits for every query."""
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        capped = IndexServingNode(
            partitioned,
            algorithm="block_max_wand",
            scheduler=DeadlineScheduler(
                predictor=ServiceTimePredictor(
                    base_seconds=0.0,
                    per_term_seconds=0.0,
                    per_posting_seconds=1.0,  # 1 s per posting: any
                    # budget affords almost nothing
                    residual_log_sigma=0.0,
                ),
                deadline_s=1e-3,
                depth_from_budget=True,
                min_depth_fraction=0.01,
            ),
            metrics=metrics,
        )
        try:
            for query in list(small_query_log)[:10]:
                response = capped.execute(query.text, k=3)
                assert response.hits  # degraded, never empty
            snapshot = metrics.snapshot()
            assert snapshot["predict.depth_capped"]["value"] > 0
            assert snapshot["predict.queries"]["value"] == 10
        finally:
            capped.close()

    def test_batch_dispatch_order_preserves_results(
        self, partitioned, small_query_log
    ):
        """Longest-predicted-first batch dispatch must not change what
        each query returns, only when it is dispatched."""
        texts = [q.text for q in list(small_query_log)[:8]]
        plain = IndexServingNode(partitioned)
        scheduled = IndexServingNode(
            partitioned,
            scheduler=DeadlineScheduler(
                predictor=PREDICTOR, long_query_threshold_s=1e-4
            ),
        )
        try:
            a = plain.execute_batch(texts, k=5)
            b = scheduled.execute_batch(texts, k=5)
            for ra, rb in zip(a, b):
                assert [(h.doc_id, h.score) for h in ra.hits] == [
                    (h.doc_id, h.score) for h in rb.hits
                ]
        finally:
            plain.close()
            scheduled.close()


DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
PARTITIONING = PartitionModelConfig(num_partitions=4)


def _scenario(num_queries=1_500):
    return WorkloadScenario(
        arrivals=PoissonArrivals(80.0),
        demands=DEMAND,
        num_queries=num_queries,
    )


def _fleet(scheduler=None, threshold=None):
    return HeterogeneousConfig(
        big_spec=BIG_SERVER,
        num_big=1,
        little_spec=SMALL_SERVER,
        num_little=3,
        partitioning=PARTITIONING,
        demand_threshold=threshold,
        scheduler=scheduler,
    )


class TestDesScheduler:
    def test_scheduler_and_threshold_mutually_exclusive(self):
        with pytest.raises(ValueError):
            _fleet(
                scheduler=DeadlineScheduler(
                    predictor=PREDICTOR, deadline_s=0.05
                ),
                threshold=0.01,
            )

    def test_scheduler_must_route(self):
        with pytest.raises(ValueError):
            _fleet(scheduler=DeadlineScheduler(predictor=PREDICTOR))

    def test_scheduler_none_is_bit_identical_to_seed_config(self):
        """A config that never mentions the scheduler field and one with
        scheduler=None must produce byte-identical runs — the
        prediction stream is never drawn."""
        seed_style = HeterogeneousConfig(
            big_spec=BIG_SERVER,
            num_big=1,
            little_spec=SMALL_SERVER,
            num_little=3,
            partitioning=PARTITIONING,
        )
        explicit = _fleet(scheduler=None)
        a = run_heterogeneous_open_loop(seed_style, _scenario(), seed=5)
        b = run_heterogeneous_open_loop(explicit, _scenario(), seed=5)
        assert [r.latency for r in a.records] == [
            r.latency for r in b.records
        ]
        assert a.per_server_power_watts == b.per_server_power_watts

    def test_deadline_routing_deterministic(self):
        scheduler = DeadlineScheduler(predictor=PREDICTOR, deadline_s=0.03)
        a = run_heterogeneous_open_loop(
            _fleet(scheduler=scheduler), _scenario(), seed=5
        )
        b = run_heterogeneous_open_loop(
            _fleet(scheduler=scheduler), _scenario(), seed=5
        )
        assert [r.latency for r in a.records] == [
            r.latency for r in b.records
        ]
        assert a.routed_to_big == b.routed_to_big

    def test_deadline_routing_sends_long_queries_big(self):
        scheduler = DeadlineScheduler(predictor=PREDICTOR, deadline_s=0.03)
        result = run_heterogeneous_open_loop(
            _fleet(scheduler=scheduler), _scenario(), seed=5
        )
        assert result.routed_to_big > 0
        assert result.routed_to_little > result.routed_to_big

    def test_threshold_only_scheduler_routes(self):
        scheduler = DeadlineScheduler(
            predictor=PREDICTOR, long_query_threshold_s=0.05
        )
        result = run_heterogeneous_open_loop(
            _fleet(scheduler=scheduler), _scenario(), seed=5
        )
        assert result.routed_to_big > 0
        assert (
            result.routed_to_big + result.routed_to_little
            == len(result.records)
        )


class TestServiceIntegration:
    def test_service_threads_scheduler_to_isn(self, small_query_log):
        from tests.conftest import SMALL_CORPUS_CONFIG

        scheduler = DeadlineScheduler(
            predictor=PREDICTOR, long_query_threshold_s=1e-4
        )
        config = SearchServiceConfig(
            corpus=SMALL_CORPUS_CONFIG, scheduler=scheduler
        )
        with SearchService(config) as service:
            assert service.isn.scheduler is scheduler
            response = service.search("web search")
            assert response.latency_s >= 0
