"""The one simulated broker: conservation across its drivers, and the
four behaviours on which the loops it replaced used to disagree.

Three drivers share :class:`repro.cluster.broker.Broker` — the static
fan-out, the same with each :class:`ReplicaSelection`, and the
autoscaler.  Whatever the driver, every arrival must end in exactly one
record with exactly one typed outcome, and the registry counters must
equal the counts derivable from the records.
"""

import numpy as np
import pytest

from repro.cluster.fanout import (
    FanoutConfig,
    ReplicaSelection,
    run_fanout_open_loop,
)
from repro.engine.hedging import HedgingPolicy
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import (
    AdmissionController,
    AimdConfig,
    OverloadPolicy,
)
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import ErrorBurst, FaultPlan, ShardCrash
from repro.servers.catalog import BIG_SERVER
from repro.servers.spec import ServerSpec
from repro.sim.autoscale import (
    AutoscaleConfig,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.sim.failures import SHED_REPLICA_CRASH, TraceFailures
from repro.sim.hiccups import HiccupConfig
from repro.sim.network import FixedDelay
from repro.sim.outages import OutageSpec
from repro.sim.random import RandomStreams
from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
SMALL_NODE = ServerSpec(
    name="broker-test-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)
OVERLOAD = OverloadPolicy(
    max_concurrency=6,
    queue_limit=4,
    codel_target_delay_s=0.002,
    codel_interval_s=0.01,
)


def run_fanout(num_queries=600, rate=2_000.0, seed=0, metrics=None, **config):
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate=rate),
        demands=DEMAND,
        num_queries=num_queries,
    )
    config.setdefault("num_servers", 2)
    return run_fanout_open_loop(
        FanoutConfig(spec=BIG_SERVER, **config),
        scenario,
        seed=seed,
        metrics=metrics,
    )


def run_autoscale(metrics=None, rate=150.0, horizon_s=60.0, **config):
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * horizon_s)))
    demands = DEMAND.demands(times.size, rng)
    params = dict(
        spec=SMALL_NODE,
        shards=2,
        initial_replicas=2,
        max_replicas=2,
        warmup_s=5.0,
        control_interval_s=5.0,
    )
    params.update(config)
    result = run_autoscaled_cluster(
        AutoscaleConfig(**params),
        StaticPolicy(replicas=params["initial_replicas"]),
        times,
        demands,
        metrics=metrics,
    )
    return result, times.size


def _static_fanout(metrics):
    """Sheds (both admission reasons), injected errors and crashes,
    retries, hedges, deadline misses and breaker skips in one run."""
    result = run_fanout(
        metrics=metrics,
        num_servers=3,
        replicas_per_shard=2,
        hiccups=HiccupConfig(mean_interval=0.05, pause_duration=0.01),
        hedging=HedgingPolicy(hedge_delay_s=0.004, deadline_s=0.03),
        overload=OVERLOAD,
        breakers=BreakerConfig(failure_threshold=3, recovery_time_s=0.05),
        faults=FaultPlan(
            crashes=(ShardCrash(shard=0, start_s=0.05, duration_s=0.05),),
            error_bursts=(
                ErrorBurst(
                    shard=1, start_s=0.1, duration_s=0.1, error_rate=0.6
                ),
            ),
        ),
    )
    return result, 600


def _fanout_with(selection):
    def run(metrics):
        result = run_fanout(
            metrics=metrics,
            replicas_per_shard=3,
            selection=selection,
            hiccups=HiccupConfig(mean_interval=0.05, pause_duration=0.01),
            hedging=HedgingPolicy(hedge_delay_s=0.004, max_hedges=2),
            overload=OVERLOAD,
        )
        return result, 600

    return run


def _autoscaled(metrics):
    """Admission sheds, crash-failed queries and — with every row down
    at once while queries wait in the admission queue — arrivals that
    find no active replica."""
    return run_autoscale(
        metrics=metrics,
        overload=OverloadPolicy(max_concurrency=8, queue_limit=16),
        failures=TraceFailures({0: ((20.0, 10.0),), 1: ((20.5, 10.0),)}),
    )


DRIVERS = {
    "static_fanout": _static_fanout,
    **{
        f"fanout_{selection.value}": _fanout_with(selection)
        for selection in ReplicaSelection
    },
    "autoscaled": _autoscaled,
}


class TestConservation:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_every_arrival_ends_in_one_typed_outcome(self, driver):
        metrics = MetricsRegistry()
        result, arrivals = DRIVERS[driver](metrics)
        records = result.records

        assert sorted(r.query_id for r in records) == list(range(arrivals))
        served = [r for r in records if r.served]
        failed = [r for r in records if r.failed]
        shed = [r for r in records if r.shed and not r.failed]
        assert len(served) + len(shed) + len(failed) == arrivals
        for record in records:
            assert record.complete, "no outcome leaves client_receive NaN"
            assert record.client_receive >= record.client_send
            assert record.served == (record.shed_reason == "")
            assert record.served != record.shed
            if record.shed:
                assert record.coverage == 0.0
        # The scenario exercises what it claims to.
        assert served and shed
        assert len({r.shed_reason for r in shed}) >= 2

        snapshot = metrics.snapshot()

        def counter(name):
            return snapshot[name]["value"]

        if driver == "autoscaled":
            assert failed
            assert counter("autoscale.sheds") == len(shed)
            assert counter("failures.queries_failed") == len(failed)
            assert result.shed_count == len(shed) + len(failed)
            assert result.failed_count == len(failed)
        else:
            assert not failed
            assert counter("fanout.queries") == arrivals
            assert counter("fanout.served") == len(served)
            assert counter("fanout.shed") == len(shed)
            for name in ("hedges_issued", "hedges_won", "deadline_misses"):
                assert counter(f"fanout.{name}") == sum(
                    getattr(r, name) for r in records
                )
            assert counter("fanout.hedges_issued") > 0
        if driver == "static_fanout":
            assert counter("fanout.failures") == sum(
                r.failures for r in records
            )
            assert counter("fanout.failures") > 0
            assert counter("fanout.deadline_misses") > 0
            assert sum(result.shard_failures) == (
                result.failures + result.deadline_misses
            )


class TestSettledDisagreements:
    """Where the four merged loops differed, the broker has one answer."""

    @pytest.mark.parametrize("driver", ["fanout", "autoscale"])
    def test_aimd_is_fed_time_since_admission(self, driver, monkeypatch):
        # (i) With the adaptive limit pinned at one, queries are served
        # strictly one at a time, so the [admission, completion]
        # intervals handed to AIMD must not overlap.  Feeding it the
        # end-to-end latency (queue wait and broker merge included), as
        # the autoscaler's own loop once did, makes them overlap.
        fed = []
        complete = AdmissionController.complete

        def spy(self, now, latency_s):
            fed.append((now - latency_s, now))
            complete(self, now, latency_s)

        monkeypatch.setattr(AdmissionController, "complete", spy)
        overload = OverloadPolicy(
            aimd=AimdConfig(initial_limit=1.0, min_limit=1.0, max_limit=1.0),
            queue_limit=10_000,
        )
        if driver == "fanout":
            result = run_fanout(
                num_queries=200, rate=400.0, overload=overload,
                broker_merge_per_server=0.05,
            )
        else:
            result, _ = run_autoscale(
                rate=100.0, horizon_s=4.0, overload=overload,
                broker_merge_per_server=0.05,
            )
        records = result.records
        assert len(fed) == len(records) > 100
        assert all(r.served for r in records)
        for (_, finished), (admitted, _) in zip(fed, fed[1:]):
            assert admitted >= finished
        # The queue was deep, so end-to-end latencies dwarf service times.
        waits = [r.latency for r in records]
        assert max(waits) > 10 * max(end - start for start, end in fed)

    def test_least_outstanding_ties_by_index_counts_at_server_arrival(
        self, monkeypatch
    ):
        # (ii) Two queries 1 ms apart over a 10 ms network: neither has
        # *arrived* at a server when the second is routed, so both see
        # two idle replicas and both go to replica 0.  Replica 1 is
        # stalled for the whole run — had the tie been broken randomly,
        # or outstanding counted at dispatch, a query would be stuck.
        opened = []
        stream = RandomStreams.stream

        def spy(self, name):
            opened.append(name)
            return stream(self, name)

        monkeypatch.setattr(RandomStreams, "stream", spy)
        config = dict(
            num_servers=1,
            replicas_per_shard=2,
            network=FixedDelay(0.01),
            outages=(OutageSpec(shard=0, replica=1, start=0.0, duration=5.0),),
        )
        scenario = WorkloadScenario(
            arrivals=DeterministicArrivals(rate=1_000.0),
            demands=DEMAND,
            num_queries=2,
        )
        result = run_fanout_open_loop(
            FanoutConfig(spec=BIG_SERVER, **config), scenario
        )
        assert result.summary().max < 1.0
        assert "selection" not in opened
        run_fanout_open_loop(
            FanoutConfig(
                spec=BIG_SERVER, selection=ReplicaSelection.RANDOM, **config
            ),
            scenario,
        )
        assert "selection" in opened

    def test_refusals_are_stamped_in_every_driver(self):
        # (iii) A shed or crash-failed record carries the time the
        # refusal reached the client, not NaN.
        result, _ = _autoscaled(None)
        refused = [r for r in result.records if not r.served]
        assert {r.shed_reason for r in refused} >= {
            SHED_REPLICA_CRASH, "no_active_replica", "queue_full",
        }
        for record in refused:
            # Refused on arrival: stamped then.  Failed by a crash, or
            # drained from the admission queue into a dead fleet: later.
            if record.shed_reason == "queue_full":
                assert record.client_receive == record.client_send
            else:
                assert record.client_receive >= record.client_send
        delayed = run_fanout(overload=OVERLOAD, network=FixedDelay(0.003))
        assert delayed.shed_count > 0
        for record in delayed.records:
            if record.shed_reason == "queue_full":
                assert record.latency == pytest.approx(0.003)
            elif record.shed:  # dropped after waiting in the queue
                assert record.latency > 0.003

    # (iv) hedging with a single replica silently never fires:
    # tests/test_fanout_hedging.py::test_single_replica_cannot_hedge.
