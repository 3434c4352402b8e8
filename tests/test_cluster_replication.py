"""Tests for replicated shards, replica selection, and hedging — the
routing rule and hedge timer of the one simulated broker, driven
through :class:`FanoutConfig`."""

import numpy as np
import pytest

from repro.cluster.fanout import (
    FanoutConfig,
    ReplicaSelection,
    run_fanout_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.core.replication import replication_policy_study
from repro.engine.hedging import HedgingPolicy
from repro.servers.catalog import BIG_SERVER
from repro.sim.hiccups import HiccupConfig
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.0, sigma=0.6)
PARTITIONING = PartitionModelConfig(
    num_partitions=1,
    partition_overhead=0.0002,
    merge_base=0.0001,
    merge_per_partition=0.0,
)


def scenario(rate=60.0, num_queries=1_500):
    return WorkloadScenario(
        arrivals=PoissonArrivals(rate), demands=DEMAND, num_queries=num_queries
    )


def config(**overrides):
    defaults = dict(
        num_servers=2,
        replicas_per_shard=2,
        spec=BIG_SERVER,
        partitioning=PARTITIONING,
        selection=ReplicaSelection.RANDOM,
    )
    defaults.update(overrides)
    return FanoutConfig(**defaults)


def hedge(delay_s):
    """Hedge after ``delay_s``; nothing else of the policy is on."""
    return HedgingPolicy(hedge_delay_s=delay_s, max_retries=0)


class TestRunReplicatedOpenLoop:
    def test_all_queries_complete(self):
        result = run_fanout_open_loop(config(), scenario())
        assert len(result) == 1_500
        assert result.hedges_issued == 0
        # One answer per shard per query, no duplicates.
        assert sum(len(r.isn_completions) for r in result.records) == 1_500 * 2
        assert result.mean_coverage() == 1.0

    def test_deterministic(self):
        first = run_fanout_open_loop(config(), scenario(), seed=4)
        second = run_fanout_open_loop(config(), scenario(), seed=4)
        assert np.array_equal(first.latencies(), second.latencies())

    @pytest.mark.parametrize("selection", list(ReplicaSelection))
    def test_every_selection_policy_runs(self, selection):
        result = run_fanout_open_loop(
            config(selection=selection), scenario(num_queries=500)
        )
        assert len(result) == 500

    def test_hedging_issues_duplicates(self):
        hedged = config(hedging=hedge(0.01))
        result = run_fanout_open_loop(hedged, scenario())
        assert result.hedges_issued > 0
        assert 0.0 < result.hedge_fraction < 1.0

    def test_late_hedge_deadline_rarely_fires(self):
        early = run_fanout_open_loop(
            config(hedging=hedge(0.005)), scenario()
        )
        late = run_fanout_open_loop(
            config(hedging=hedge(0.2)), scenario()
        )
        assert late.hedges_issued < early.hedges_issued

    def test_replication_spreads_load(self):
        """With 2 replicas, the same offered load sees lower latency
        than with 1 replica (each request has two queues to choose)."""
        # High enough load that queueing dominates on the single-replica
        # cluster (per-server utilization ~80% vs ~40% with 2 replicas).
        single = run_fanout_open_loop(
            config(replicas_per_shard=1),
            scenario(rate=600.0, num_queries=3_000),
        )
        double = run_fanout_open_loop(
            config(selection=ReplicaSelection.LEAST_OUTSTANDING),
            scenario(rate=600.0, num_queries=3_000),
        )
        assert double.summary().p99 < single.summary().p99

    def test_hedging_cuts_hiccup_tail(self):
        """Per-replica pauses are independent, so a hedge escapes them."""
        pauses = HiccupConfig(mean_interval=0.2, pause_duration=0.04)
        plain = run_fanout_open_loop(
            config(hiccups=pauses), scenario(), seed=1
        )
        hedged = run_fanout_open_loop(
            config(hiccups=pauses, hedging=hedge(0.02)),
            scenario(),
            seed=1,
        )
        assert hedged.summary().p99 < 0.8 * plain.summary().p99

    def test_warmup_filtering(self):
        result = run_fanout_open_loop(
            config(), scenario(num_queries=400)
        )
        assert result.latencies(0.5).size == 200
        with pytest.raises(ValueError):
            result.latencies(-0.1)


class TestReplicationPolicyStudy:
    def test_study_structure_and_ordering(self):
        points = replication_policy_study(
            config(hiccups=HiccupConfig(mean_interval=0.2, pause_duration=0.04)),
            DEMAND,
            rate_qps=60.0,
            hedge_delays=[0.02],
            num_queries=1_500,
        )
        labels = [point.label for point in points]
        assert labels[:3] == ["random", "round_robin", "least_outstanding"]
        assert labels[3].startswith("hedge@")
        by_label = {point.label: point for point in points}
        # Hedging beats the best pure-selection policy on the tail.
        assert (
            by_label["hedge@20ms"].summary.p99
            < by_label["least_outstanding"].summary.p99
        )
        assert by_label["hedge@20ms"].hedge_fraction > 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            replication_policy_study(config(), DEMAND, rate_qps=0.0)
