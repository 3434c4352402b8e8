"""Simulation runners: open-loop and closed-loop load generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.results import QueryRecord, SimulationResult
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.hiccups import HiccupConfig, HiccupSchedule
from repro.sim.network import NetworkModel, NoDelay
from repro.sim.random import RandomStreams
from repro.workload.arrivals import ClosedLoopSpec
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class ClusterConfig:
    """Everything fixed about the simulated system (not the workload)."""

    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    network: NetworkModel = field(default_factory=NoDelay)
    hiccups: Optional[HiccupConfig] = None

    def label(self) -> str:
        """Short description used in result labels."""
        return f"{self.spec.name}/P={self.partitioning.num_partitions}"

    def make_hiccup_schedule(
        self, streams: RandomStreams
    ) -> Optional[HiccupSchedule]:
        """Instantiate the pause schedule (None when hiccups disabled)."""
        if self.hiccups is None:
            return None
        return HiccupSchedule(self.hiccups, streams.stream("hiccups"))


def run_open_loop(
    config: ClusterConfig,
    scenario: WorkloadScenario,
    seed: int = 0,
) -> SimulationResult:
    """Drive the server with a pre-generated open-loop arrival sequence.

    Arrivals, demands, network delays, and shard imbalance each draw
    from an independent RNG stream of ``seed``, so sweeping a system
    parameter replays the identical workload (common random numbers).
    """
    streams = RandomStreams(seed)
    arrival_times, demands = scenario.realize(
        streams.stream("arrivals"), streams.stream("demands")
    )
    network_rng = streams.stream("network")

    sim = Simulator()
    records: List[QueryRecord] = []

    def complete(record: QueryRecord) -> None:
        record.client_receive = record.merge_end + config.network.delay(
            network_rng
        )
        records.append(record)

    server = SimulatedServer(
        sim,
        config.spec,
        config.partitioning,
        streams=streams,
        imbalance_stream="imbalance",
        on_complete=complete,
        hiccups=config.make_hiccup_schedule(streams),
    )

    for query_id, (send_time, demand) in enumerate(zip(arrival_times, demands)):
        record = QueryRecord(
            query_id=query_id, client_send=float(send_time), demand=float(demand)
        )
        arrival = float(send_time) + config.network.delay(network_rng)
        sim.post(arrival, server.handle_arrival, record)

    sim.run()
    records.sort(key=lambda record: record.client_send)
    return SimulationResult(
        records=records,
        horizon=sim.now,
        core_busy_time=server.cores.busy_time,
        num_cores=config.spec.num_cores,
        label=config.label(),
    )


def run_closed_loop(
    config: ClusterConfig,
    closed_loop: ClosedLoopSpec,
    demands: ServiceDemandModel,
    num_queries: int,
    seed: int = 0,
) -> SimulationResult:
    """Drive the server with a Faban-style closed-loop client population.

    Each of ``closed_loop.num_clients`` emulated users thinks for an
    exponential time, issues a query, and blocks for the response.  The
    run ends after ``num_queries`` total completions.
    """
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    streams = RandomStreams(seed)
    think_rng = streams.stream("think")
    demand_rng = streams.stream("demands")
    network_rng = streams.stream("network")
    demand_series = demands.demands(num_queries, demand_rng)

    sim = Simulator()
    records: List[QueryRecord] = []
    issued = 0

    def think_time() -> float:
        if closed_loop.mean_think_time == 0:
            return 0.0
        return float(think_rng.exponential(closed_loop.mean_think_time))

    def issue_query() -> None:
        nonlocal issued
        if issued >= num_queries:
            return
        record = QueryRecord(
            query_id=issued,
            client_send=sim.now,
            demand=float(demand_series[issued]),
        )
        issued += 1
        arrival = sim.now + config.network.delay(network_rng)
        sim.post(arrival, server.handle_arrival, record)

    def complete(record: QueryRecord) -> None:
        record.client_receive = record.merge_end + config.network.delay(
            network_rng
        )
        records.append(record)
        # The client that owned this query re-enters its think phase.
        sim.post(record.client_receive + think_time(), issue_query)

    server = SimulatedServer(
        sim,
        config.spec,
        config.partitioning,
        streams=streams,
        imbalance_stream="imbalance",
        on_complete=complete,
        hiccups=config.make_hiccup_schedule(streams),
    )

    # Stagger the client population's first think phases.
    for _ in range(closed_loop.num_clients):
        sim.post(think_time(), issue_query)

    sim.run()
    records.sort(key=lambda record: record.client_send)
    return SimulationResult(
        records=records,
        horizon=sim.now,
        core_busy_time=server.cores.busy_time,
        num_cores=config.spec.num_cores,
        label=f"{config.label()}/clients={closed_loop.num_clients}",
    )
