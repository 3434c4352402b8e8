"""Simulated multi-server fan-out: the cluster tier of the benchmark.

The full benchmark architecture shards the collection across ``N``
index serving nodes; a broker broadcasts each query to all of them and
merges their pages.  This module models that tier in the DES: each ISN
is an independent fork-join server (own cores, own partitions), a query
completes when the *slowest* ISN responds plus broker merge — the
"tail at scale" structure where the cluster's latency is an order
statistic of per-node latencies.

The broker itself is :class:`repro.cluster.broker.Broker`, shared with
the autoscaler; this module is its static driver — a fixed
``num_servers × replicas_per_shard`` table of servers and an open-loop
arrival process.  With a :class:`~repro.engine.hedging.HedgingPolicy`
(plus optionally replicas, hiccups, or scripted outages as straggler
sources) the broker is *tail-tolerant*: shard requests carry deadlines,
stragglers are hedged to a different replica, and a deadline miss
degrades the merge to the shards that answered (``coverage`` < 1).  The
same policy object drives the native
:class:`~repro.engine.isn.IndexServingNode`, keeping the simulator
calibrated against the engine's mitigation behaviour.  Without any tail
feature the inert policy makes the same loop the plain fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.broker import (
    BROKER_MERGE_PER_SERVER,
    SERVER_IMBALANCE_CONCENTRATION,
    Broker,
    FanoutQueryRecord,
    ReplicaSelection,
)
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.engine.hedging import HedgingPolicy
from repro.metrics.summary import LatencySummary, summarize
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import OverloadPolicy
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultPlan
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.hiccups import HiccupConfig, HiccupSchedule
from repro.sim.network import NetworkModel, NoDelay
from repro.sim.outages import FixedOutages, OutageSpec
from repro.sim.random import RandomStreams
from repro.workload.scenario import WorkloadScenario

__all__ = [
    "FanoutConfig",
    "FanoutQueryRecord",
    "FanoutResult",
    "ReplicaSelection",
    "run_fanout_open_loop",
]


@dataclass(frozen=True)
class FanoutConfig:
    """A homogeneous cluster of ISNs behind one broker.

    Each query's work splits across servers by a Dirichlet draw of
    concentration
    :data:`~repro.cluster.broker.SERVER_IMBALANCE_CONCENTRATION`.

    Attributes
    ----------
    num_servers:
        ISNs the collection is sharded across; each receives ``1/N`` of
        every query's work (document-sharded indexes scale down
        per-node postings volume linearly).
    spec:
        Server model of every ISN.
    partitioning:
        Intra-server partitioning cost model of every ISN.
    network:
        One-way delay model applied per hop (client→broker→ISN and
        back); the broker hop is where fan-out skew accumulates.
    broker_merge_per_server:
        Broker-side merge cost per responding ISN, in seconds.
    hedging:
        Optional tail-tolerance policy interpreted by the broker
        against simulated time — same object the native ISN consumes.
        None (or an inert policy) is the plain fan-out.
    replicas_per_shard:
        Identical replicas per shard group.  Hedged backups go to a
        *different* replica than the primary (a whole-server pause
        freezes all its cores, so re-asking the same server cannot
        win); with a single replica a hedging policy never fires.
    selection:
        The broker's routing rule among a shard's replicas; the default
        picks the least-loaded one (ties to the lowest index).
    hiccups:
        Optional stop-the-world pause process applied independently to
        every replica — the stochastic straggler source.
    outages:
        Scripted per-replica stall windows — the deterministic
        straggler source (takes precedence over ``hiccups`` on the
        replicas it names).
    overload:
        Optional admission-control policy interpreted by the broker:
        queries beyond the concurrency limit wait in a bounded queue or
        are shed with a refusal record (``coverage == 0``).
    breakers:
        Optional per-``(shard, replica)`` circuit-breaker config fed by
        injected errors, crash rejections, and deadline misses; a
        fenced-off replica is skipped by dispatch.
    faults:
        Optional chaos plan: crash windows reject new requests and
        stall in-flight ones, slowdowns scale dispatched demand, error
        bursts answer with failures drawn from the ``"faults"`` stream.
    """

    num_servers: int
    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    network: NetworkModel = field(default_factory=NoDelay)
    broker_merge_per_server: float = BROKER_MERGE_PER_SERVER
    hedging: Optional[HedgingPolicy] = None
    replicas_per_shard: int = 1
    selection: ReplicaSelection = ReplicaSelection.LEAST_OUTSTANDING
    hiccups: Optional[HiccupConfig] = None
    outages: Tuple[OutageSpec, ...] = ()
    overload: Optional[OverloadPolicy] = None
    breakers: Optional[BreakerConfig] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if self.broker_merge_per_server < 0:
            raise ValueError("broker_merge_per_server must be non-negative")
        if self.replicas_per_shard <= 0:
            raise ValueError("replicas_per_shard must be positive")
        for outage in self.outages:
            if outage.shard >= self.num_servers:
                raise ValueError(
                    f"outage names shard {outage.shard}; "
                    f"cluster has {self.num_servers}"
                )
            if outage.replica >= self.replicas_per_shard:
                raise ValueError(
                    f"outage names replica {outage.replica}; "
                    f"cluster has {self.replicas_per_shard} per shard"
                )
        if self.faults is not None:
            faults = (
                self.faults.crashes
                + self.faults.slowdowns
                + self.faults.error_bursts
            )
            for fault in faults:
                if fault.shard >= self.num_servers:
                    raise ValueError(
                        f"fault names shard {fault.shard}; "
                        f"cluster has {self.num_servers}"
                    )
                if (
                    fault.replica is not None
                    and fault.replica >= self.replicas_per_shard
                ):
                    raise ValueError(
                        f"fault names replica {fault.replica}; "
                        f"cluster has {self.replicas_per_shard} per shard"
                    )


@dataclass
class FanoutResult:
    """All per-query records of one fan-out simulation.

    ``shard_failures`` counts failed shard requests per shard index
    (injected errors, crash rejections, and deadline misses) across the
    whole run — all zeros on healthy clusters.
    """

    records: List[FanoutQueryRecord]
    horizon: float
    num_servers: int
    shard_failures: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.shard_failures:
            self.shard_failures = tuple(0 for _ in range(self.num_servers))

    def __len__(self) -> int:
        return len(self.records)

    def _selected(self, warmup_fraction: float) -> List[FanoutQueryRecord]:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        skip = int(len(self.records) * warmup_fraction)
        return self.records[skip:]

    def served_records(
        self, warmup_fraction: float = 0.0
    ) -> List[FanoutQueryRecord]:
        """Post-warm-up records that received a real answer."""
        return [r for r in self._selected(warmup_fraction) if not r.shed]

    def latencies(self, warmup_fraction: float = 0.0) -> np.ndarray:
        """Served-query response times (shed refusals excluded)."""
        return np.array(
            [r.latency for r in self.served_records(warmup_fraction)]
        )

    def summary(self, warmup_fraction: float = 0.0) -> LatencySummary:
        """Latency order statistics over served queries.

        Under total overload every query may be shed; the summary is
        then the NaN :data:`~repro.metrics.summary.EMPTY_SUMMARY`
        rather than an error, so sweeps can plot a gap.
        """
        return summarize(self.latencies(warmup_fraction), empty="nan")

    def mean_fanout_skew(self) -> float:
        """Average straggler skew across queries that reached any ISN."""
        skews = [r.fanout_skew for r in self.records if r.isn_completions]
        if not skews:
            return float("nan")
        return float(np.mean(skews))

    @property
    def shed_count(self) -> int:
        """Queries the broker's admission layer refused."""
        return sum(1 for r in self.records if r.shed)

    def goodput_qps(self, warmup_fraction: float = 0.0) -> float:
        """Coverage-weighted served queries per second.

        A full answer counts 1, a 75%-coverage answer 0.75, a shed
        query 0 — goodput is the rate of *answer mass* delivered, the
        metric overload protection is supposed to preserve.
        """
        selected = self._selected(warmup_fraction)
        if not selected:
            raise ValueError("no records after warm-up filtering")
        total_coverage = float(sum(r.coverage for r in selected))
        span = max(r.client_receive for r in selected) - min(
            r.client_send for r in selected
        )
        if span <= 0:
            return float("inf")
        return total_coverage / span

    def mean_coverage(self, warmup_fraction: float = 0.0) -> float:
        """Mean fraction of shards merged per query."""
        selected = self._selected(warmup_fraction)
        if not selected:
            raise ValueError("no records after warm-up filtering")
        return float(np.mean([r.coverage for r in selected]))

    @property
    def hedges_issued(self) -> int:
        """Total backup requests the broker issued."""
        return sum(r.hedges_issued for r in self.records)

    @property
    def hedge_fraction(self) -> float:
        """Backup requests as a fraction of the primary shard requests."""
        primaries = self.num_servers * (len(self.records) - self.shed_count)
        return self.hedges_issued / primaries if primaries else 0.0

    @property
    def hedges_won(self) -> int:
        """Shard answers won by a backup request."""
        return sum(r.hedges_won for r in self.records)

    @property
    def deadline_misses(self) -> int:
        """Shard requests dropped for missing their deadline."""
        return sum(r.deadline_misses for r in self.records)

    @property
    def breaker_skips(self) -> int:
        """Shard requests never sent because the breaker was open."""
        return sum(r.breaker_skips for r in self.records)

    @property
    def failures(self) -> int:
        """Failed shard attempts (injected errors, crash rejections)."""
        return sum(r.failures for r in self.records)


def _replica_stalls(
    config: FanoutConfig,
    streams: RandomStreams,
    shard: int,
    replica: int,
):
    """The stall source for one replica.

    Scripted outage windows and fault-plan crash windows combine (a
    crashed replica freezes its in-flight work until the restart, on
    top of rejecting new requests); when neither names the replica,
    the stochastic hiccup process (if any) applies.
    """
    windows = [
        (outage.start, outage.duration)
        for outage in config.outages
        if outage.shard == shard and outage.replica == replica
    ]
    if config.faults is not None:
        windows += [
            (start, end - start)
            for start, end in config.faults.crash_windows(shard, replica)
        ]
    if windows:
        return FixedOutages(sorted(windows))
    if config.hiccups is not None:
        return HiccupSchedule(
            config.hiccups, streams.stream(f"hiccups-{shard}-{replica}")
        )
    return None


def run_fanout_open_loop(
    config: FanoutConfig,
    scenario: WorkloadScenario,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
) -> FanoutResult:
    """Simulate the cluster under an open-loop arrival process.

    ``scenario`` demands are *whole-query* demands; each ISN executes
    its Dirichlet share (``demand / num_servers`` on average — its
    index slice) through its own fork-join partition model.

    The broker dispatches each shard request to a replica chosen by
    ``config.selection``, schedules cancellable hedge/deadline events
    against the simulator clock, re-issues stragglers to a *different*
    replica, and finishes a query when every shard is decided —
    answered, deadline-missed, failed beyond the retry budget, or
    fenced off by an open circuit breaker.  Late and loser answers are
    ignored (the DES cannot retract work already committed to a
    replica's cores, which mirrors a backend without mid-request
    cancellation).

    With an overload policy, arrivals pass the broker's admission
    controller first: beyond the concurrency limit they wait in a
    bounded queue (CoDel-dropped if the wait stands above target) or
    are refused outright with a shed record.  A fault plan injects
    crash rejections, error responses, and demand slowdowns; a breaker
    config fences off replicas that keep failing.
    """
    streams = RandomStreams(seed)
    arrival_times, demands = scenario.realize(
        streams.stream("arrivals"), streams.stream("demands")
    )
    sim = Simulator()
    broker = Broker(
        sim,
        streams,
        config.num_servers,
        merge_per_server=config.broker_merge_per_server,
        concentration=SERVER_IMBALANCE_CONCENTRATION,
        network=config.network,
        hedging=config.hedging,
        selection=config.selection,
        overload=config.overload,
        breakers=config.breakers,
        faults=config.faults,
        metrics=metrics,
    )
    for shard, group in enumerate(broker.replicas):
        for replica in range(config.replicas_per_shard):
            stream_name = (
                f"imbalance-{shard}"
                if replica == 0
                else f"imbalance-{shard}r{replica}"
            )
            group.append(
                SimulatedServer(
                    sim,
                    config.spec,
                    config.partitioning,
                    streams=streams,
                    imbalance_stream=stream_name,
                    on_complete=broker.on_server_done,
                    hiccups=_replica_stalls(config, streams, shard, replica),
                    metrics=metrics,
                )
            )
    for query_id, (send_time, demand) in enumerate(
        zip(arrival_times.tolist(), demands.tolist())
    ):
        sim.post(send_time, broker.on_arrival, query_id, demand)

    sim.run()
    records = broker.finished_records(len(arrival_times))
    if metrics is not None:
        served = sum(1 for r in records if not r.shed)
        metrics.counter("fanout.queries").add(len(records))
        metrics.counter("fanout.served").add(served)
        metrics.counter("fanout.shed").add(len(records) - served)
        metrics.counter("fanout.hedges_issued").add(
            sum(r.hedges_issued for r in records)
        )
        metrics.counter("fanout.hedges_won").add(
            sum(r.hedges_won for r in records)
        )
        metrics.counter("fanout.deadline_misses").add(
            sum(r.deadline_misses for r in records)
        )
        if broker.breakers is not None:
            metrics.counter("fanout.breaker_skips").add(
                sum(r.breaker_skips for r in records)
            )
            broker.breakers.export_gauges(metrics, "fanout.breaker", sim.now)
        if broker.faults is not None:
            metrics.counter("fanout.failures").add(
                sum(r.failures for r in records)
            )
    return FanoutResult(
        records=records,
        horizon=sim.now,
        num_servers=config.num_servers,
        shard_failures=tuple(broker.shard_failures),
    )
