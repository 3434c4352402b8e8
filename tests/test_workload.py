"""Unit tests for arrival processes and service-demand models."""

import numpy as np
import pytest

from repro.workload.arrivals import (
    ClosedLoopSpec,
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import (
    EmpiricalDemand,
    IndexDerivedDemand,
    LognormalDemand,
)


class TestPoissonArrivals:
    def test_sorted_and_positive(self, rng):
        times = PoissonArrivals(rate=100.0).arrival_times(1_000, rng)
        assert np.all(times > 0)
        assert np.all(np.diff(times) >= 0)

    def test_rate_matches(self, rng):
        times = PoissonArrivals(rate=50.0).arrival_times(20_000, rng)
        assert len(times) / times[-1] == pytest.approx(50.0, rel=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)

    def test_zero_queries(self, rng):
        assert PoissonArrivals(1.0).arrival_times(0, rng).size == 0


class TestDeterministicArrivals:
    def test_even_spacing(self, rng):
        times = DeterministicArrivals(rate=10.0).arrival_times(5, rng)
        assert np.allclose(np.diff(times), 0.1)

    def test_rng_unused(self, rng):
        first = DeterministicArrivals(10.0).arrival_times(5, rng)
        second = DeterministicArrivals(10.0).arrival_times(
            5, np.random.default_rng(999)
        )
        assert np.array_equal(first, second)


class TestMMPPArrivals:
    def test_sorted_times(self, rng):
        process = MMPPArrivals(base_rate=50.0, burst_rate=500.0)
        times = process.arrival_times(2_000, rng)
        assert times.size == 2_000
        assert np.all(np.diff(times) >= 0)

    def test_burstier_than_poisson(self, rng):
        """The MMPP's windowed arrival counts must be overdispersed
        relative to Poisson (variance/mean of counts > 1)."""
        process = MMPPArrivals(
            base_rate=20.0, burst_rate=400.0,
            mean_base_dwell=5.0, mean_burst_dwell=1.0,
        )
        times = process.arrival_times(10_000, rng)
        counts, _ = np.histogram(times, bins=np.arange(0, times[-1], 1.0))
        dispersion = counts.var() / counts.mean()
        assert dispersion > 2.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MMPPArrivals(base_rate=0, burst_rate=1)
        with pytest.raises(ValueError):
            MMPPArrivals(base_rate=1, burst_rate=1, mean_base_dwell=0)


class TestRatesMustBeFinite:
    """A NaN rate used to yield NaN arrival times (an all-NaN summary
    downstream) and an infinite one simultaneous arrivals."""

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0, 0.0])
    def test_non_finite_or_non_positive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            PoissonArrivals(rate=rate)
        with pytest.raises(ValueError, match="rate"):
            DeterministicArrivals(rate=rate)
        with pytest.raises(ValueError, match="rate"):
            MMPPArrivals(base_rate=rate, burst_rate=1.0)
        with pytest.raises(ValueError, match="rate"):
            MMPPArrivals(base_rate=1.0, burst_rate=rate)

    def test_cluster_model_rejects_nan_rate(self):
        from repro.api import ClusterModel

        with pytest.raises(ValueError, match="rate"):
            ClusterModel(num_servers=2).run(
                rate_qps=float("nan"), num_queries=5
            )


class TestClosedLoopSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopSpec(num_clients=0)
        with pytest.raises(ValueError):
            ClosedLoopSpec(num_clients=1, mean_think_time=-1.0)


class TestEmpiricalDemand:
    def test_resamples_from_data(self, rng):
        model = EmpiricalDemand(samples=np.array([0.1, 0.2, 0.3]))
        draws = model.demands(100, rng)
        assert set(np.round(draws, 10)) <= {0.1, 0.2, 0.3}

    def test_mean(self):
        model = EmpiricalDemand(samples=np.array([0.1, 0.3]))
        assert model.mean_demand() == pytest.approx(0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            EmpiricalDemand(samples=np.array([]))
        with pytest.raises(ValueError):
            EmpiricalDemand(samples=np.array([-0.1]))


class TestLognormalDemand:
    def test_mean_matches(self, rng):
        model = LognormalDemand(mu=-3.0, sigma=0.5)
        draws = model.demands(50_000, rng)
        assert draws.mean() == pytest.approx(model.mean_demand(), rel=0.03)


class TestIndexDerivedDemand:
    def test_demand_scales_with_volume(self, small_index, small_query_log, rng):
        model = IndexDerivedDemand(
            index=small_index,
            query_log=small_query_log,
            base_seconds=0.001,
            per_posting_seconds=1e-5,
        )
        draws = model.demands(200, rng)
        assert np.all(draws >= 0.001)
        assert draws.std() > 0  # queries genuinely differ in cost

    def test_mean_demand_popularity_weighted(self, small_index, small_query_log):
        model = IndexDerivedDemand(
            index=small_index,
            query_log=small_query_log,
            base_seconds=0.0,
            per_posting_seconds=1.0,
        )
        # mean demand equals the popularity-weighted mean matched volume.
        assert model.mean_demand() > 0

    def test_demand_of_specific_query(self, small_index, small_query_log):
        model = IndexDerivedDemand(
            index=small_index,
            query_log=small_query_log,
            base_seconds=0.5,
            per_posting_seconds=0.0,
        )
        assert model.demand_of(small_query_log[0]) == pytest.approx(0.5)

    def test_invalid_coefficients(self, small_index, small_query_log):
        with pytest.raises(ValueError):
            IndexDerivedDemand(
                index=small_index,
                query_log=small_query_log,
                base_seconds=-1.0,
                per_posting_seconds=0.0,
            )


class TestWorkloadScenario:
    def test_realize_shapes(self, rng):
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(100.0),
            demands=LognormalDemand(-4.0, 0.5),
            num_queries=500,
        )
        times, demands = scenario.realize(
            np.random.default_rng(0), np.random.default_rng(1)
        )
        assert times.size == demands.size == 500

    def test_offered_load(self):
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(100.0),
            demands=EmpiricalDemand(np.array([0.01])),
            num_queries=10,
        )
        assert scenario.offered_load() == pytest.approx(1.0)

    def test_invalid_num_queries(self):
        with pytest.raises(ValueError):
            WorkloadScenario(
                arrivals=PoissonArrivals(1.0),
                demands=EmpiricalDemand(np.array([0.01])),
                num_queries=0,
            )
