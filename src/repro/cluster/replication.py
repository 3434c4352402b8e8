"""Replicated shards, replica selection, and hedged requests.

Production search replicates every index shard and lets the broker
choose a replica per request; when tails matter, it also *hedges* —
re-issues a slow request to a second replica and takes the first
answer.  This module models that tier on top of the fork-join ISN:

- ``ReplicaSelection`` — RANDOM, ROUND_ROBIN, or LEAST_OUTSTANDING
  (join-the-shortest-queue by in-flight requests);
- ``HedgeConfig`` — duplicate a shard request that has not answered
  within a deadline (no cancellation: the loser finishes and wastes
  its work, as in systems without request cancellation support).

The studies built on this reproduce the classic "tail at scale"
remedies: better selection trims the tail cheaply; hedging buys large
tail cuts for a small duplicate-work budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.results import QueryRecord
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.metrics.summary import LatencySummary, summarize
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.hiccups import HiccupConfig, HiccupSchedule
from repro.sim.network import NetworkModel, NoDelay
from repro.sim.outages import FixedOutages, OutageSpec
from repro.sim.random import RandomStreams
from repro.workload.scenario import WorkloadScenario


class ReplicaSelection(Enum):
    """Broker policy for picking a replica per shard request."""

    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    LEAST_OUTSTANDING = "least_outstanding"


@dataclass(frozen=True)
class HedgeConfig:
    """Hedged-request policy.

    Attributes
    ----------
    delay_s:
        Seconds after dispatch before the duplicate is sent.  Production
        systems set this near the per-shard p95 so only ~5% of requests
        hedge.
    """

    delay_s: float

    def __post_init__(self) -> None:
        if self.delay_s <= 0:
            raise ValueError("hedge delay must be positive")


@dataclass(frozen=True)
class ReplicatedClusterConfig:
    """A cluster of ``num_shards`` shard groups × ``replicas`` servers."""

    num_shards: int
    replicas: int
    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    selection: ReplicaSelection = ReplicaSelection.RANDOM
    hedge: Optional[HedgeConfig] = None
    network: NetworkModel = field(default_factory=NoDelay)
    hiccups: Optional[HiccupConfig] = None
    server_imbalance_concentration: float = 60.0
    #: Scripted brownouts.  A replica with outages gets exactly those
    #: stall windows (the stochastic ``hiccups`` process, if any, is
    #: not additionally applied to it).
    outages: tuple = ()

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.hedge is not None and self.replicas < 2:
            raise ValueError("hedging requires at least two replicas")
        for outage in self.outages:
            if not isinstance(outage, OutageSpec):
                raise TypeError("outages must be OutageSpec instances")
            if outage.shard >= self.num_shards:
                raise ValueError(f"outage shard {outage.shard} out of range")
            if outage.replica >= self.replicas:
                raise ValueError(
                    f"outage replica {outage.replica} out of range"
                )

    def stalls_for(self, shard: int, replica: int):
        """Scripted outage schedule for one server (None if none)."""
        windows = [
            (outage.start, outage.duration)
            for outage in self.outages
            if outage.shard == shard and outage.replica == replica
        ]
        if not windows:
            return None
        return FixedOutages(windows)

    @property
    def num_servers(self) -> int:
        """Total servers in the cluster."""
        return self.num_shards * self.replicas


@dataclass
class ReplicatedQueryRecord:
    """Timeline of one query through the replicated cluster."""

    query_id: int
    client_send: float
    total_demand: float
    shard_first_response: Dict[int, float] = field(default_factory=dict)
    hedges_sent: int = 0
    client_receive: float = float("nan")

    @property
    def latency(self) -> float:
        """End-to-end response time."""
        return self.client_receive - self.client_send


@dataclass
class ReplicatedResult:
    """Outcome of one replicated-cluster simulation."""

    records: List[ReplicatedQueryRecord]
    horizon: float
    total_hedges: int
    total_shard_requests: int

    def __len__(self) -> int:
        return len(self.records)

    def latencies(self, warmup_fraction: float = 0.0) -> np.ndarray:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        skip = int(len(self.records) * warmup_fraction)
        return np.array([r.latency for r in self.records[skip:]])

    def summary(self, warmup_fraction: float = 0.0) -> LatencySummary:
        return summarize(self.latencies(warmup_fraction))

    @property
    def hedge_fraction(self) -> float:
        """Duplicated shard requests as a fraction of the baseline."""
        base = self.total_shard_requests - self.total_hedges
        if base <= 0:
            return 0.0
        return self.total_hedges / base


class _Broker:
    """Replica selection + hedging logic (one instance per simulation)."""

    def __init__(
        self,
        config: ReplicatedClusterConfig,
        servers: List[List[SimulatedServer]],
        sim: Simulator,
        selection_rng: np.random.Generator,
        network_rng: np.random.Generator,
    ):
        self.config = config
        self.servers = servers
        self.sim = sim
        self._selection_rng = selection_rng
        self._network_rng = network_rng
        self.outstanding = [
            [0] * config.replicas for _ in range(config.num_shards)
        ]
        self._round_robin_next = [0] * config.num_shards
        self.total_hedges = 0
        self.total_shard_requests = 0
        #: server-record id -> (query record, shard, replica), consumed
        #: by the completion handler.
        self.callbacks: Dict[int, tuple] = {}

    def pick_replica(self, shard: int, exclude: Optional[int] = None) -> int:
        """Choose a replica index for ``shard`` under the policy."""
        candidates = [
            replica
            for replica in range(self.config.replicas)
            if replica != exclude
        ]
        policy = self.config.selection
        if policy is ReplicaSelection.RANDOM:
            return int(
                candidates[self._selection_rng.integers(len(candidates))]
            )
        if policy is ReplicaSelection.ROUND_ROBIN:
            while True:
                choice = self._round_robin_next[shard]
                self._round_robin_next[shard] = (
                    choice + 1
                ) % self.config.replicas
                if choice in candidates:
                    return choice
        # LEAST_OUTSTANDING: fewest in-flight requests; ties at random.
        loads = [self.outstanding[shard][replica] for replica in candidates]
        best = min(loads)
        tied = [
            replica
            for replica, load in zip(candidates, loads)
            if load == best
        ]
        return int(tied[self._selection_rng.integers(len(tied))])

    def dispatch(
        self,
        record: ReplicatedQueryRecord,
        shard: int,
        demand: float,
        replica: int,
        is_hedge: bool,
    ) -> None:
        """Send one shard request to a replica (now)."""
        self.total_shard_requests += 1
        if is_hedge:
            self.total_hedges += 1
            record.hedges_sent += 1
        self.outstanding[shard][replica] += 1
        server_record = QueryRecord(
            query_id=record.query_id,
            client_send=self.sim.now,
            demand=demand,
        )
        self.callbacks[id(server_record)] = (record, shard, replica)
        arrival = self.sim.now + self.config.network.delay(self._network_rng)
        self.sim.schedule(
            arrival, self.servers[shard][replica].handle_arrival, server_record
        )


def run_replicated_open_loop(
    config: ReplicatedClusterConfig,
    scenario: WorkloadScenario,
    seed: int = 0,
) -> ReplicatedResult:
    """Simulate the replicated cluster under open-loop arrivals."""
    streams = RandomStreams(seed)
    arrival_times, demands = scenario.realize(
        streams.stream("arrivals"), streams.stream("demands")
    )
    network_rng = streams.stream("network")
    shard_rng = streams.stream("server-imbalance")

    sim = Simulator()
    records: List[ReplicatedQueryRecord] = []

    servers: List[List[SimulatedServer]] = []
    for shard in range(config.num_shards):
        replicas: List[SimulatedServer] = []
        for replica in range(config.replicas):
            hiccups = config.stalls_for(shard, replica)
            if hiccups is None and config.hiccups is not None:
                hiccups = HiccupSchedule(
                    config.hiccups,
                    streams.stream(f"hiccups-{shard}-{replica}"),
                )
            replicas.append(
                SimulatedServer(
                    sim,
                    config.spec,
                    config.partitioning,
                    imbalance_rng=streams.stream(
                        f"imbalance-{shard}-{replica}"
                    ),
                    on_complete=lambda rec: _on_server_complete(rec),
                    hiccups=hiccups,
                )
            )
        servers.append(replicas)

    broker = _Broker(
        config, servers, sim, streams.stream("selection"), network_rng
    )
    pending_demands: Dict[int, Dict[int, float]] = {}

    def _on_server_complete(server_record: QueryRecord) -> None:
        record, shard, replica = broker.callbacks.pop(id(server_record))
        broker.outstanding[shard][replica] -= 1
        response_at = server_record.merge_end + config.network.delay(
            network_rng
        )
        if shard in record.shard_first_response:
            return  # a hedge/original already answered this shard
        record.shard_first_response[shard] = response_at
        if len(record.shard_first_response) == config.num_shards:
            done = max(record.shard_first_response.values())
            record.client_receive = done + config.network.delay(network_rng)
            records.append(record)

    def _maybe_hedge(
        record: ReplicatedQueryRecord, shard: int, replica: int
    ) -> None:
        if shard in record.shard_first_response:
            return
        hedge_replica = broker.pick_replica(shard, exclude=replica)
        broker.dispatch(
            record,
            shard,
            pending_demands[record.query_id][shard],
            hedge_replica,
            is_hedge=True,
        )

    for query_id, (send_time, demand) in enumerate(zip(arrival_times, demands)):
        record = ReplicatedQueryRecord(
            query_id=query_id,
            client_send=float(send_time),
            total_demand=float(demand),
        )
        if config.num_shards == 1:
            shares = np.ones(1)
        else:
            shares = shard_rng.dirichlet(
                np.full(
                    config.num_shards,
                    config.server_imbalance_concentration,
                )
            )
        shard_demands = {
            shard: float(demand) * float(share)
            for shard, share in enumerate(shares)
        }
        pending_demands[query_id] = shard_demands

        def send(record=record, shard_demands=shard_demands) -> None:
            for shard, shard_demand in shard_demands.items():
                replica = broker.pick_replica(shard)
                broker.dispatch(
                    record, shard, shard_demand, replica, is_hedge=False
                )
                if config.hedge is not None:
                    sim.schedule(
                        sim.now + config.hedge.delay_s,
                        _maybe_hedge,
                        record,
                        shard,
                        replica,
                    )

        sim.schedule(float(send_time), send)

    sim.run()
    if len(records) != len(arrival_times):
        raise RuntimeError(
            f"{len(arrival_times) - len(records)} queries never completed"
        )
    records.sort(key=lambda record: record.client_send)
    return ReplicatedResult(
        records=records,
        horizon=sim.now,
        total_hedges=broker.total_hedges,
        total_shard_requests=broker.total_shard_requests,
    )
