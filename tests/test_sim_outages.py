"""Tests for scripted outage injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fanout import (
    FanoutConfig,
    ReplicaSelection,
    run_fanout_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.engine.hedging import HedgingPolicy
from repro.servers.catalog import BIG_SERVER
from repro.sim.outages import FixedOutages, OutageSpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand


class TestOutageSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutageSpec(shard=-1, replica=0, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            OutageSpec(shard=0, replica=0, start=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            OutageSpec(shard=0, replica=0, start=0.0, duration=0.0)


class TestFixedOutages:
    def test_execute_outside_windows(self):
        outages = FixedOutages([(5.0, 1.0)])
        start, end = outages.execute(0.0, 2.0)
        assert start == 0.0 and end == 2.0

    def test_execute_spanning_window(self):
        outages = FixedOutages([(5.0, 1.0)])
        start, end = outages.execute(4.5, 1.0)
        assert start == 4.5
        assert end == pytest.approx(6.5)  # 0.5 before, 1.0 stalled, 0.5 after

    def test_start_inside_window(self):
        outages = FixedOutages([(5.0, 1.0)])
        start, end = outages.execute(5.3, 0.5)
        assert start == pytest.approx(6.0)
        assert end == pytest.approx(6.5)

    def test_overlapping_windows_merged(self):
        outages = FixedOutages([(1.0, 2.0), (2.0, 2.0)])
        assert outages.pauses_up_to(10.0) == [(1.0, 4.0)]

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            FixedOutages([(0.0, 0.0)])
        with pytest.raises(ValueError):
            FixedOutages([(-1.0, 1.0)])
        with pytest.raises(ValueError):
            FixedOutages([(0.0, 1.0)]).execute(0.0, -1.0)

    @settings(max_examples=40)
    @given(
        windows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),
                st.floats(min_value=0.01, max_value=3.0),
            ),
            max_size=5,
        ),
        begin=st.floats(min_value=0.0, max_value=25.0),
        busy=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_execute_conserves_busy_time(self, windows, begin, busy):
        outages = FixedOutages(windows)
        start, end = outages.execute(begin, busy)
        stalled = sum(
            max(0.0, min(end, pause_end) - max(start, pause_start))
            for pause_start, pause_end in outages.pauses_up_to(end + 1.0)
        )
        assert (end - start) - stalled == pytest.approx(busy, abs=1e-9)


class TestOutageFailover:
    DEMAND = LognormalDemand(mu=-5.5, sigma=0.4)  # ~4 ms, light tail
    PARTITIONING = PartitionModelConfig(
        num_partitions=1, partition_overhead=0.0,
        merge_base=0.0, merge_per_partition=0.0,
    )

    def _run(self, selection, hedging=None, seed=0):
        config = FanoutConfig(
            num_servers=1,
            replicas_per_shard=2,
            spec=BIG_SERVER,
            partitioning=self.PARTITIONING,
            selection=selection,
            hedging=hedging,
            outages=(
                OutageSpec(shard=0, replica=0, start=2.0, duration=0.5),
            ),
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(300.0),
            demands=self.DEMAND,
            num_queries=3_000,
        )
        return run_fanout_open_loop(config, scenario, seed=seed)

    def test_outage_config_validation(self):
        with pytest.raises(ValueError, match="shard"):
            FanoutConfig(
                num_servers=1, replicas_per_shard=2, spec=BIG_SERVER,
                outages=(OutageSpec(5, 0, 0.0, 1.0),),
            )
        with pytest.raises(ValueError, match="replica"):
            FanoutConfig(
                num_servers=1, replicas_per_shard=2, spec=BIG_SERVER,
                outages=(OutageSpec(0, 5, 0.0, 1.0),),
            )

    def test_brownout_inflates_max_latency(self):
        result = self._run(ReplicaSelection.RANDOM)
        # Some request dispatched into the brownout waits ~up to 500 ms.
        assert result.summary().max > 0.1

    def test_least_outstanding_routes_around_brownout(self):
        random_result = self._run(ReplicaSelection.RANDOM)
        jsq_result = self._run(ReplicaSelection.LEAST_OUTSTANDING)
        # Fewer requests get stuck: high percentiles improve.
        assert (
            jsq_result.summary().p99 < random_result.summary().p99
        )

    def test_hedging_rescues_stuck_requests(self):
        plain = self._run(ReplicaSelection.RANDOM)
        hedged = self._run(
            ReplicaSelection.RANDOM,
            hedging=HedgingPolicy(hedge_delay_s=0.02, max_retries=0),
        )
        assert hedged.summary().max < 0.3 * plain.summary().max
