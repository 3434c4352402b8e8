"""Heterogeneous fleet: big and little servers behind one router.

The paper asks whether low-power servers can serve web search; the
natural follow-on is whether a *mixed* fleet can — little servers
soaking up the cheap queries (most of them, under Zipf) while a few
big servers absorb the expensive tail.  This module is a driver of the
one :class:`~repro.cluster.broker.Broker`: a single shard whose replica
row is ``num_big`` big servers followed by ``num_little`` little ones,
with no network, no broker merge and no serving policies.  The router
is the broker's routing rule, a callable that sees each query's record:
it either ignores query cost (random spray), routes by a demand
threshold (cheap → little, expensive → big; the "oracle" router, since
real engines estimate cost well from term statistics), or — with a
:class:`~repro.predict.scheduler.DeadlineScheduler` — routes on
*predicted* cost perturbed by the predictor's measured error model,
the realistic middle ground between spray and oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.cluster.broker import Broker
from repro.cluster.fanout import FanoutResult
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.servers.power import PowerModel
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workload.scenario import WorkloadScenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.predict.scheduler import DeadlineScheduler


@dataclass(frozen=True)
class HeterogeneousConfig:
    """A mixed single-shard fleet and its routing policy.

    Attributes
    ----------
    big_spec / num_big:
        The big-server replica group.
    little_spec / num_little:
        The little-server replica group.
    partitioning:
        Intra-server partitioning cost model (applies to every server).
    demand_threshold:
        Queries with demand above this route to the big group, the rest
        to the little group.  ``None`` sprays uniformly over all
        servers (cost-oblivious baseline).  Groups of size zero receive
        the other group's traffic.  The threshold router reads the
        query's *true* demand — an oracle upper bound on what any
        predictor can do.
    scheduler:
        Optional :class:`~repro.predict.scheduler.DeadlineScheduler` —
        the *predicted*-demand router.  Each query's prediction is its
        true demand times a draw from the predictor's log-normal
        residual error model (a dedicated ``"prediction"`` RNG
        stream), so routing quality degrades exactly with measured
        predictor accuracy.  With a ``deadline_s``, the router picks
        the most energy-efficient server whose ``core_speed``-scaled
        completion estimate (queue backlog + predicted service) meets
        the deadline, falling back to the fastest estimate when none
        does; with only a ``long_query_threshold_s``, predicted-long
        queries go to the big group.  Mutually exclusive with
        ``demand_threshold``; ``None`` keeps the seed's routers bit
        for bit (the prediction stream is never drawn).
    """

    big_spec: ServerSpec
    num_big: int
    little_spec: ServerSpec
    num_little: int
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    demand_threshold: Optional[float] = None
    scheduler: Optional["DeadlineScheduler"] = None

    def __post_init__(self) -> None:
        if self.num_big < 0 or self.num_little < 0:
            raise ValueError("server counts must be non-negative")
        if self.num_big + self.num_little == 0:
            raise ValueError("fleet needs at least one server")
        # ``not >= 0``, not ``< 0``: a NaN would route every query little.
        if not (self.demand_threshold is None or self.demand_threshold >= 0):
            raise ValueError("demand_threshold must be a non-negative number")
        if self.scheduler is not None:
            if self.demand_threshold is not None:
                raise ValueError(
                    "demand_threshold (oracle router) and scheduler "
                    "(predicted router) are mutually exclusive"
                )
            if not self.scheduler.routes:
                raise ValueError(
                    "scheduler needs a deadline_s or long_query_threshold_s "
                    "to make routing decisions"
                )


@dataclass(kw_only=True)
class HeterogeneousResult(FanoutResult):
    """Latency and power outcome of one mixed-fleet run."""

    per_server_utilization: List[float]
    per_server_power_watts: List[float]
    routed_to_big: int
    routed_to_little: int

    @property
    def total_power_watts(self) -> float:
        """Fleet wall power at the observed utilizations."""
        return float(sum(self.per_server_power_watts))

    def energy_per_query_joules(self) -> float:
        """Average fleet joules per completed query."""
        if not self.records or self.horizon <= 0:
            raise ValueError("no completed queries")
        qps = len(self.records) / self.horizon
        return self.total_power_watts / qps


def run_heterogeneous_open_loop(
    config: HeterogeneousConfig,
    scenario: WorkloadScenario,
    seed: int = 0,
) -> HeterogeneousResult:
    """Simulate the mixed fleet under open-loop arrivals.

    The router is the broker's routing rule.  Its candidates are always
    the whole fleet, big servers first: one shard, no hedges, no
    retries.  Within the chosen group the threshold routers pick the
    server whose cores free up earliest (an idealized
    join-the-shortest-queue).  With a ``config.scheduler``, routing
    instead uses *predicted* demands — true demand times the
    predictor's log-normal residual error, drawn from a dedicated
    ``"prediction"`` stream so a scheduler-less run consumes exactly
    the seed's random numbers.
    """
    streams = RandomStreams(seed)
    arrival_times, demands = scenario.realize(
        streams.stream("arrivals"), streams.stream("demands")
    )
    scheduler = config.scheduler
    if scheduler is not None:
        sigma = scheduler.predictor.residual_log_sigma
        noise = np.exp(
            sigma * streams.stream("prediction").standard_normal(len(demands))
        )
        predicted_demands = demands * noise
    partitioning = config.partitioning
    sim = Simulator()
    routed = {"big": 0, "little": 0}

    def make_group(spec: ServerSpec, count: int, name: str):
        # Counted by the group that served the query: the broker does
        # not consult the rule when the fleet is one server.
        def done(attempt) -> None:
            routed[name] += 1
            broker.on_server_done(attempt)

        return [
            SimulatedServer(
                sim,
                spec,
                partitioning,
                imbalance_rng=streams.stream(f"imbalance-{name}-{i}"),
                on_complete=done,
            )
            for i in range(count)
        ]

    big_group = make_group(config.big_spec, config.num_big, "big")
    little_group = make_group(config.little_spec, config.num_little, "little")
    spray_rng = streams.stream("routing")

    def unloaded_service(spec: ServerSpec, predicted: float) -> float:
        """Seconds ``spec`` needs for the predicted work: the total work
        spread over the cores a fork-join query can occupy."""
        parallelism = min(spec.num_cores, partitioning.num_partitions)
        return partitioning.total_work(predicted) / (
            spec.core_speed * parallelism
        )

    def shortest_queue(use_big: bool) -> SimulatedServer:
        group = big_group if use_big else little_group
        if not group:
            group = little_group if use_big else big_group
        return min(group, key=lambda server: server.cores.next_free_time())

    def spray(record, shard, candidates):
        return candidates[spray_rng.integers(len(candidates))]

    def oracle(record, shard, candidates):
        return shortest_queue(record.total_demand > config.demand_threshold)

    def deadline(record, shard, candidates):
        # The cheapest (peak joules per reference-core second) server
        # predicted to finish by the deadline; when none can, damage
        # control — the fastest predicted finish.  Ties break on the
        # estimate, then on fleet order (big first).
        predicted = float(predicted_demands[record.query_id])
        estimates = [
            (
                max(server.cores.next_free_time() - sim.now, 0.0)
                + unloaded_service(server.spec, predicted),
                position,
                server,
            )
            for position, server in enumerate(candidates)
        ]
        eligible = [e for e in estimates if e[0] <= scheduler.deadline_s]
        if not eligible:
            return min(estimates)[2]
        return min(
            eligible,
            key=lambda e: (
                e[2].spec.peak_power_watts / e[2].spec.compute_capacity,
                e[0],
                e[1],
            ),
        )[2]

    def long_query(record, shard, candidates):
        # The noisy mirror of the oracle: a query whose *predicted*
        # unloaded service time on a little server exceeds the
        # threshold goes to the big group.
        spec = config.little_spec if little_group else config.big_spec
        predicted = float(predicted_demands[record.query_id])
        return shortest_queue(
            unloaded_service(spec, predicted)
            > scheduler.long_query_threshold_s
        )

    if scheduler is None:
        rule = spray if config.demand_threshold is None else oracle
    else:
        rule = long_query if scheduler.deadline_s is None else deadline
    broker = Broker(
        sim,
        streams,
        1,
        merge_per_server=0.0,
        concentration=1.0,
        selection=rule,
    )
    servers = broker.replicas[0] = big_group + little_group
    for query_id, (send_time, demand) in enumerate(
        zip(arrival_times.tolist(), demands.tolist())
    ):
        sim.schedule(send_time, broker.on_arrival, query_id, demand)

    sim.run()
    utilizations = [
        min(1.0, server.cores.utilization(max(sim.now, 1e-12)))
        for server in servers
    ]
    return HeterogeneousResult(
        records=broker.finished_records(len(arrival_times)),
        horizon=sim.now,
        num_servers=1,
        per_server_utilization=utilizations,
        per_server_power_watts=[
            PowerModel(server.spec).power_at(utilization)
            for server, utilization in zip(servers, utilizations)
        ],
        routed_to_big=routed["big"],
        routed_to_little=routed["little"],
    )
