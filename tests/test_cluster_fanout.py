"""Tests for the multi-server fan-out simulation and scaling study."""

import numpy as np
import pytest

from repro.cluster.fanout import FanoutConfig, run_fanout_open_loop
from repro.cluster.server import PartitionModelConfig
from repro.core.fanout import fanout_scaling_study
from repro.servers.catalog import BIG_SERVER
from repro.sim.network import LognormalDelay
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.0, sigma=0.6)

IDEAL_PARTITIONING = PartitionModelConfig(
    num_partitions=1,
    partition_overhead=0.0,
    merge_base=0.0,
    merge_per_partition=0.0,
)


def scenario(rate=50.0, num_queries=2_000):
    return WorkloadScenario(
        arrivals=PoissonArrivals(rate), demands=DEMAND, num_queries=num_queries
    )


class TestRunFanoutOpenLoop:
    def test_all_queries_complete(self):
        config = FanoutConfig(num_servers=4, spec=BIG_SERVER)
        result = run_fanout_open_loop(config, scenario())
        assert len(result) == 2_000
        assert result.num_servers == 4

    def test_deterministic(self):
        config = FanoutConfig(num_servers=3, spec=BIG_SERVER)
        first = run_fanout_open_loop(config, scenario(), seed=7)
        second = run_fanout_open_loop(config, scenario(), seed=7)
        assert np.array_equal(first.latencies(), second.latencies())

    def test_single_server_matches_single_node_sim(self):
        """N=1 fan-out must equal the plain single-server simulation."""
        from repro.cluster.simulation import ClusterConfig, run_open_loop

        fanout = run_fanout_open_loop(
            FanoutConfig(
                num_servers=1,
                spec=BIG_SERVER,
                partitioning=IDEAL_PARTITIONING,
                broker_merge_per_server=0.0,
            ),
            scenario(),
            seed=0,
        )
        single = run_open_loop(
            ClusterConfig(spec=BIG_SERVER, partitioning=IDEAL_PARTITIONING),
            scenario(),
            seed=0,
        )
        assert np.allclose(fanout.latencies(), single.latencies())

    def test_sharding_cuts_median_latency(self):
        narrow = run_fanout_open_loop(
            FanoutConfig(
                num_servers=1, spec=BIG_SERVER,
                partitioning=IDEAL_PARTITIONING,
            ),
            scenario(),
            seed=0,
        )
        wide = run_fanout_open_loop(
            FanoutConfig(
                num_servers=8, spec=BIG_SERVER,
                partitioning=IDEAL_PARTITIONING,
            ),
            scenario(),
            seed=0,
        )
        assert wide.summary().p50 < 0.3 * narrow.summary().p50

    def test_fanout_skew_exists_with_network_jitter(self):
        config = FanoutConfig(
            num_servers=4,
            spec=BIG_SERVER,
            network=LognormalDelay(median=0.0005, sigma=0.5),
        )
        result = run_fanout_open_loop(config, scenario(num_queries=500))
        assert result.mean_fanout_skew() > 0

    def test_no_skew_single_server(self):
        config = FanoutConfig(
            num_servers=1, spec=BIG_SERVER,
            partitioning=IDEAL_PARTITIONING,
        )
        result = run_fanout_open_loop(config, scenario(num_queries=300))
        assert result.mean_fanout_skew() == 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FanoutConfig(num_servers=0, spec=BIG_SERVER)
        with pytest.raises(ValueError):
            FanoutConfig(num_servers=1, spec=BIG_SERVER, replicas_per_shard=0)
        with pytest.raises(ValueError):
            FanoutConfig(
                num_servers=1, spec=BIG_SERVER, broker_merge_per_server=-1.0
            )

    def test_warmup_filtering(self):
        config = FanoutConfig(num_servers=2, spec=BIG_SERVER)
        result = run_fanout_open_loop(config, scenario(num_queries=1_000))
        assert result.latencies(0.5).size == 500
        with pytest.raises(ValueError):
            result.latencies(1.0)


class TestFanoutScalingStudy:
    def test_tail_at_scale_shape(self):
        """Latency improves with N, but sublinearly: the broker waits
        for the slowest node, so skew eats the speedup."""
        points = fanout_scaling_study(
            BIG_SERVER,
            DEMAND,
            server_counts=[1, 4, 16],
            rate_qps=40.0,
            partitioning=PartitionModelConfig(
                num_partitions=1,
                partition_overhead=0.0002,
                imbalance_concentration=10.0,
                merge_base=0.0,
                merge_per_partition=0.0,
            ),
            network=LognormalDelay(median=0.0003, sigma=0.4),
            num_queries=3_000,
        )
        p50s = [p.summary.p50 for p in points]
        assert p50s[2] < p50s[1] < p50s[0]
        # Sublinear sharding: 16 servers give less than 16x on p50.
        assert p50s[0] / p50s[2] < 16
        # Skew grows as a fraction of latency with cluster width.
        assert points[2].skew_fraction > points[1].skew_fraction
        assert points[1].skew_fraction > points[0].skew_fraction

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            fanout_scaling_study(BIG_SERVER, DEMAND, [], rate_qps=10.0)
        with pytest.raises(ValueError):
            fanout_scaling_study(BIG_SERVER, DEMAND, [1], rate_qps=0.0)
