"""Tests for the heterogeneous-fleet simulation and study."""

import numpy as np
import pytest

from repro.cluster.hetero import (
    HeterogeneousConfig,
    run_heterogeneous_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.core.hetero import fleet_composition_study
from repro.servers.catalog import BIG_SERVER, SMALL_SERVER
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.3, sigma=0.8)  # mean ~19 ms, heavy tail
PARTITIONING = PartitionModelConfig(
    num_partitions=1,
    partition_overhead=0.0002,
    merge_base=0.0001,
    merge_per_partition=0.0,
)


def scenario(rate=200.0, num_queries=3_000):
    return WorkloadScenario(
        arrivals=PoissonArrivals(rate), demands=DEMAND, num_queries=num_queries
    )


def mixed_config(threshold=None, num_big=1, num_little=3):
    return HeterogeneousConfig(
        big_spec=BIG_SERVER,
        num_big=num_big,
        little_spec=SMALL_SERVER,
        num_little=num_little,
        partitioning=PARTITIONING,
        demand_threshold=threshold,
    )


class TestHeterogeneousConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousConfig(
                big_spec=BIG_SERVER, num_big=0,
                little_spec=SMALL_SERVER, num_little=0,
            )
        with pytest.raises(ValueError):
            HeterogeneousConfig(
                big_spec=BIG_SERVER, num_big=-1,
                little_spec=SMALL_SERVER, num_little=1,
            )
        with pytest.raises(ValueError):
            mixed_config(threshold=-1.0)

    def test_nan_threshold_rejected(self):
        # NaN passes a ``< 0`` check and then routes every query little.
        with pytest.raises(ValueError, match="demand_threshold"):
            mixed_config(threshold=float("nan"))


class TestRunHeterogeneous:
    def test_all_queries_complete(self):
        result = run_heterogeneous_open_loop(
            mixed_config(threshold=0.02), scenario()
        )
        assert len(result) == 3_000
        assert result.routed_to_big + result.routed_to_little == 3_000

    def test_deterministic(self):
        config = mixed_config(threshold=0.02)
        first = run_heterogeneous_open_loop(config, scenario(), seed=2)
        second = run_heterogeneous_open_loop(config, scenario(), seed=2)
        assert np.array_equal(first.latencies(), second.latencies())

    def test_threshold_routing_splits_traffic_by_cost(self):
        threshold = 0.03
        result = run_heterogeneous_open_loop(
            mixed_config(threshold=threshold), scenario()
        )
        big_demands = [
            r.total_demand
            for r in result.records
            if r.total_demand > threshold
        ]
        assert result.routed_to_big == len(big_demands)

    def test_spray_routing_uses_both_groups(self):
        result = run_heterogeneous_open_loop(
            mixed_config(threshold=None), scenario()
        )
        assert result.routed_to_big > 0
        assert result.routed_to_little > 0

    def test_power_accounting(self):
        result = run_heterogeneous_open_loop(
            mixed_config(threshold=0.02), scenario()
        )
        assert len(result.per_server_power_watts) == 4
        assert result.total_power_watts > 0
        assert result.energy_per_query_joules() > 0
        for utilization in result.per_server_utilization:
            assert 0.0 <= utilization <= 1.0

    def test_empty_group_falls_back(self):
        config = HeterogeneousConfig(
            big_spec=BIG_SERVER, num_big=0,
            little_spec=SMALL_SERVER, num_little=4,
            partitioning=PARTITIONING,
            demand_threshold=0.0,  # wants big, none exist
        )
        result = run_heterogeneous_open_loop(
            config, scenario(num_queries=500)
        )
        assert len(result) == 500
        assert result.routed_to_little == 500


class TestFleetCompositionStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return fleet_composition_study(
            BIG_SERVER,
            SMALL_SERVER,
            DEMAND,
            rate_qps=250.0,
            all_big=2,
            mixed_big=1,
            mixed_little=3,
            partitioning=PARTITIONING,
            num_queries=4_000,
        )

    def test_three_fleets(self, points):
        labels = [point.label for point in points]
        assert labels[0] == "all-big"
        assert labels[1] == "all-little"
        assert labels[2].startswith("mixed")

    def test_all_little_pays_latency(self, points):
        all_big, all_little, _ = points
        assert all_little.summary.p99 > 1.5 * all_big.summary.p99

    def test_all_little_saves_power(self, points):
        all_big, all_little, _ = points
        assert all_little.total_power_watts < all_big.total_power_watts

    def test_mixed_recovers_tail_cheaper(self, points):
        all_big, all_little, mixed = points
        # Tail: far closer to all-big than to all-little...
        assert mixed.summary.p99 < 0.6 * all_little.summary.p99
        # ...at materially lower power than all-big.
        assert mixed.total_power_watts < 0.8 * all_big.total_power_watts

    def test_big_traffic_share_matches_threshold(self, points):
        mixed = points[2]
        assert 0.1 < mixed.big_traffic_share < 0.35  # top ~20% routed big

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fleet_composition_study(
                BIG_SERVER, SMALL_SERVER, DEMAND, rate_qps=0.0,
                all_big=1, mixed_big=1, mixed_little=1,
            )
        with pytest.raises(ValueError):
            fleet_composition_study(
                BIG_SERVER, SMALL_SERVER, DEMAND, rate_qps=10.0,
                all_big=1, mixed_big=1, mixed_little=1,
                threshold_quantile=1.5,
            )
