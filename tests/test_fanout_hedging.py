"""Tail-tolerant DES fan-out: hedging, deadlines, and native parity.

Stragglers are scripted with :class:`OutageSpec` windows, so every
hedge/deadline assertion is deterministic.  The final test drives the
*same* policy through the native thread-pool ISN and the DES broker on
equivalent scripted scenarios and asserts both report identical
hedge-count statistics — the calibration contract between the two
interpreters of :class:`HedgingPolicy`.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.fanout import FanoutConfig, run_fanout_open_loop
from repro.cluster.server import PartitionModelConfig
from repro.corpus.generator import CorpusGenerator
from repro.engine.execution import ExecutionConfig
from repro.engine.hedging import HedgingPolicy
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.obs import MetricsRegistry
from repro.servers.catalog import BIG_SERVER
from repro.sim.outages import OutageSpec
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

from tests.conftest import SMALL_CORPUS_CONFIG
from tests.test_hedging import ScriptedSearcher, _wait_for_cancellations

#: Constant 2 ms whole-query demand (sigma=0 → no service variability).
CONSTANT_DEMAND = LognormalDemand(mu=math.log(0.002), sigma=0.0)


def _scenario(num_queries, rate=1.0):
    """Clocked arrivals (query q at (q+1)/rate) with constant demand."""
    return WorkloadScenario(
        arrivals=DeterministicArrivals(rate=rate),
        demands=CONSTANT_DEMAND,
        num_queries=num_queries,
    )


def _outage(shard, arrival_time, duration=0.4):
    """A stall window opening just before ``arrival_time`` on replica 0."""
    return OutageSpec(
        shard=shard, replica=0, start=arrival_time - 0.1, duration=duration
    )


class TestTailTolerantBroker:
    def test_outage_stalls_unhedged_query(self):
        config = FanoutConfig(
            num_servers=1, spec=BIG_SERVER, outages=(_outage(0, 1.0),)
        )
        result = run_fanout_open_loop(config, _scenario(1))
        # Without a second replica the query waits out the stall.
        assert result.records[0].latency >= 0.25
        assert result.hedges_issued == 0
        assert result.mean_coverage() == 1.0

    def test_hedge_to_second_replica_sidesteps_outage(self):
        config = FanoutConfig(
            num_servers=1,
            spec=BIG_SERVER,
            replicas_per_shard=2,
            outages=(_outage(0, 1.0),),
            hedging=HedgingPolicy(hedge_delay_s=0.05),
        )
        result = run_fanout_open_loop(config, _scenario(1))
        record = result.records[0]
        assert record.hedges_issued == 1
        assert record.hedges_won == 1
        assert record.coverage == 1.0
        # Latency collapses to hedge delay + healthy-replica service.
        assert 0.05 <= record.latency <= 0.1

    def test_single_replica_cannot_hedge(self):
        # A hedge must target a *different* replica (whole-server pauses
        # freeze all cores), so with one replica the policy never fires.
        config = FanoutConfig(
            num_servers=1,
            spec=BIG_SERVER,
            outages=(_outage(0, 1.0),),
            hedging=HedgingPolicy(hedge_delay_s=0.05),
        )
        result = run_fanout_open_loop(config, _scenario(1))
        assert result.hedges_issued == 0
        assert result.records[0].latency >= 0.25

    def test_deadline_miss_degrades_coverage(self):
        config = FanoutConfig(
            num_servers=2,
            spec=BIG_SERVER,
            outages=(_outage(0, 1.0),),
            hedging=HedgingPolicy(deadline_s=0.05, max_hedges=0),
        )
        result = run_fanout_open_loop(config, _scenario(1))
        record = result.records[0]
        assert record.deadline_misses == 1
        assert record.coverage == 0.5
        # The broker answered at the deadline, not at stall end.
        assert record.latency < 0.1
        assert result.mean_coverage() == 0.5

    def test_deadline_generous_enough_keeps_full_coverage(self):
        config = FanoutConfig(
            num_servers=2,
            spec=BIG_SERVER,
            outages=(_outage(0, 1.0),),
            hedging=HedgingPolicy(deadline_s=2.0, max_hedges=0),
        )
        result = run_fanout_open_loop(config, _scenario(1))
        assert result.deadline_misses == 0
        assert result.mean_coverage() == 1.0

    def test_metrics_counters_match_result_totals(self):
        metrics = MetricsRegistry()
        config = FanoutConfig(
            num_servers=2,
            spec=BIG_SERVER,
            replicas_per_shard=2,
            outages=(_outage(0, 1.0), _outage(1, 3.0)),
            hedging=HedgingPolicy(hedge_delay_s=0.05, deadline_s=1.0),
        )
        result = run_fanout_open_loop(config, _scenario(4), metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["fanout.queries"]["value"] == 4
        assert snapshot["fanout.hedges_issued"]["value"] == (
            result.hedges_issued
        )
        assert snapshot["fanout.hedges_won"]["value"] == result.hedges_won
        assert result.hedges_issued == 2
        assert result.hedges_won == 2

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            FanoutConfig(
                num_servers=1, spec=BIG_SERVER, outages=(_outage(3, 1.0),)
            )
        with pytest.raises(ValueError):
            FanoutConfig(
                num_servers=1,
                spec=BIG_SERVER,
                outages=(
                    OutageSpec(shard=0, replica=1, start=0.5, duration=0.1),
                ),
            )

    def test_inert_policy_is_bit_identical_to_seed_path(self):
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate=100.0),
            demands=LognormalDemand(mu=-4.6, sigma=0.8),
            num_queries=300,
        )
        plain = FanoutConfig(num_servers=2, spec=BIG_SERVER)
        inert = FanoutConfig(
            num_servers=2, spec=BIG_SERVER, hedging=HedgingPolicy()
        )
        base = run_fanout_open_loop(plain, scenario, seed=3)
        shim = run_fanout_open_loop(inert, scenario, seed=3)
        assert np.array_equal(base.latencies(), shim.latencies())

    def test_tail_tolerant_path_is_deterministic(self):
        config = FanoutConfig(
            num_servers=2,
            spec=BIG_SERVER,
            replicas_per_shard=2,
            hedging=HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.5),
            outages=(_outage(0, 2.0),),
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate=50.0),
            demands=LognormalDemand(mu=-4.6, sigma=0.8),
            num_queries=200,
        )
        first = run_fanout_open_loop(config, scenario, seed=7)
        second = run_fanout_open_loop(config, scenario, seed=7)
        assert np.array_equal(first.latencies(), second.latencies())
        assert first.hedges_issued == second.hedges_issued
        assert first.hedges_won == second.hedges_won


class TestNativeDesParity:
    """One seeded scenario, two interpreters, same hedge statistics.

    Ten queries arrive; queries 2, 5, and 7 hit a straggling shard-0
    primary (a scripted sleep natively, a scripted replica-0 outage in
    the DES).  The policy hedges after 50 ms — far above healthy
    service time, far below the straggle — so exactly those three
    queries hedge, and every hedge wins.
    """

    SLOW = {2, 5, 7}
    NUM_QUERIES = 10
    POLICY = HedgingPolicy(hedge_delay_s=0.05, max_hedges=1)

    def _native_counts(self, small_collection, small_query_log):
        partitioned = partition_index(small_collection, 2)
        issued = won = misses = 0
        cancelled = 0
        with IndexServingNode(partitioned, hedging=self.POLICY) as node:
            scripted = ScriptedSearcher(node._searchers[0])
            node._searchers[0] = scripted
            for index, query in enumerate(
                list(small_query_log)[: self.NUM_QUERIES]
            ):
                scripted.begin_query(
                    slow={0} if index in self.SLOW else ()
                )
                response = node.execute(query.text)
                issued += response.hedges_issued
                won += response.hedges_won
                misses += response.deadline_misses
                if index in self.SLOW:
                    cancelled += 1
                    _wait_for_cancellations(scripted, cancelled)
        return issued, won, misses

    def _des_counts(self):
        outages = tuple(
            # Query q arrives at t=q+1; replica 0 of shard 0 stalls
            # across that arrival, mirroring the native scripted sleep.
            _outage(0, float(q + 1)) for q in sorted(self.SLOW)
        )
        config = FanoutConfig(
            num_servers=2,
            spec=BIG_SERVER,
            replicas_per_shard=2,
            outages=outages,
            hedging=self.POLICY,
        )
        result = run_fanout_open_loop(config, _scenario(self.NUM_QUERIES))
        return (
            result.hedges_issued,
            result.hedges_won,
            result.deadline_misses,
        )

    def test_hedge_statistics_agree(self, small_collection, small_query_log):
        native = self._native_counts(small_collection, small_query_log)
        des = self._des_counts()
        assert native == des
        assert native == (len(self.SLOW), len(self.SLOW), 0)


class TestScalingParityWithDes:
    """Above one core, native scaling direction must match the DES.

    The DES has always predicted intra-node scaling — a server with
    more cores drains a saturating workload at higher goodput — but the
    thread-backend native engine could not confirm it on the wall clock
    (per-partition scoring serializes on the GIL).  The process backend
    is the fix.  Its caller scores one lane and each worker another, so
    one worker already makes two lanes: this test asserts the DES
    prediction's *direction* (more cores → more throughput, 1 → 2) and,
    when the machine has two cores, that the native engine scales the
    same way from the thread backend's one lane to a one-worker process
    node's two — with bit-identical results on threads and at one and
    two workers.
    """

    #: Native configuration: (execution, the DES core count it stands
    #: for — one per lane; two workers only join the bit-identity check).
    NODES = {
        "threads": (None, 1),
        "1 worker": (ExecutionConfig(backend="processes", workers=1), 2),
        "2 workers": (ExecutionConfig(backend="processes", workers=2), None),
    }
    #: Enough documents that scoring, not the IPC round trip, is what a
    #: second lane halves (the 300-document corpus reads 0.9-1.4x).
    DOCUMENTS = 4_000
    #: Interleaved rounds per floor.  The one-worker node reaches its
    #: floor only when both vCPUs are quiet at once, which five rounds
    #: often miss (15.4 ms read against a 9.3-9.5 ms floor over 20).
    ROUNDS = 15

    def _des_goodput(self, cores: int) -> float:
        config = FanoutConfig(
            num_servers=1,
            spec=replace(BIG_SERVER, num_cores=cores),
            partitioning=PartitionModelConfig(num_partitions=4),
        )
        # Saturating arrivals: every query is queued almost at once, so
        # goodput measures service capacity, not offered load.
        scenario = WorkloadScenario(
            arrivals=DeterministicArrivals(rate=100_000.0),
            demands=CONSTANT_DEMAND,
            num_queries=64,
        )
        return run_fanout_open_loop(config, scenario).goodput_qps()

    def test_native_scaling_direction_matches_des(self, small_query_log):
        des = {cores: self._des_goodput(cores) for cores in (1, 2)}
        assert des[1] < des[2], des

        collection = CorpusGenerator(
            replace(SMALL_CORPUS_CONFIG, num_documents=self.DOCUMENTS)
        ).generate()
        partitioned = partition_index(collection, 4)
        texts = [q.text for q in list(small_query_log)[:40]]
        nodes = {
            name: IndexServingNode(partitioned, execution=execution)
            for name, (execution, _) in self.NODES.items()
        }
        floors = {name: math.inf for name in self.NODES}
        results = {}
        try:
            for node in nodes.values():
                node.execute_batch(texts[:8])  # warm the workers
            # Floors over interleaved rounds: a slow phase of the host
            # hits every configuration, and the minimum escapes it.
            for _ in range(self.ROUNDS):
                for name, node in nodes.items():
                    start = time.perf_counter()
                    responses = node.execute_batch(texts)
                    floors[name] = min(
                        floors[name], time.perf_counter() - start
                    )
                    results[name] = [
                        [(hit.doc_id, hit.score) for hit in response.hits]
                        for response in responses
                    ]
        finally:
            for node in nodes.values():
                node.close()
        # Bit-identity across backends and worker counts holds on any
        # machine.
        expected = results["threads"]
        assert all(result == expected for result in results.values())

        cores = len(os.sched_getaffinity(0))
        if cores < 2:
            pytest.skip(
                f"native scaling direction needs 2 cores, have {cores}"
            )
        by_cores = {
            des_cores: floors[name]
            for name, (_, des_cores) in self.NODES.items()
            if des_cores is not None
        }
        assert by_cores[2] < by_cores[1], floors
