"""The intra-server partitioning sweep (figure F4).

The paper's central study: hold the server and offered load fixed,
sweep the partition count, and watch the response-time percentiles.
The expected shape — and the paper's finding — is that the tail
(p99) falls steeply as the first few partitions parallelize the
intrinsically long queries, then flattens (or climbs back) once the
per-partition overhead and core contention dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.cluster.server import PartitionModelConfig
from repro.cluster.simulation import ClusterConfig, run_open_loop
from repro.metrics.summary import LatencySummary
from repro.servers.spec import ServerSpec
from repro.sim.network import NetworkModel, NoDelay
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class PartitioningPoint:
    """One partition count's latency and efficiency outcome."""

    num_partitions: int
    summary: LatencySummary
    utilization: float
    achieved_qps: float


@dataclass(frozen=True)
class ImbalancePoint:
    """One shard-skew level's latency outcome."""

    imbalance_concentration: float
    summary: LatencySummary
    mean_straggler_skew: float


def imbalance_sensitivity(
    spec: ServerSpec,
    demands: ServiceDemandModel,
    concentrations: Sequence[float],
    rate_qps: float,
    num_partitions: int = 8,
    cost_model: PartitionModelConfig = PartitionModelConfig(),
    num_queries: int = 5_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[ImbalancePoint]:
    """F21: tail latency vs shard work skew at fixed P and load.

    ``concentrations`` are Dirichlet concentrations of the per-query
    work split (higher = more even); sweeping them quantifies how much
    of partitioning's tail win survives skewed shards — the latency
    consequence of the F14 strategy study.
    """
    if not concentrations:
        raise ValueError("need at least one concentration")
    if any(value <= 0 for value in concentrations):
        raise ValueError("concentrations must be positive")
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    points: List[ImbalancePoint] = []
    for concentration in concentrations:
        config = ClusterConfig(
            spec=spec,
            partitioning=replace(
                cost_model,
                num_partitions=num_partitions,
                imbalance_concentration=concentration,
            ),
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate_qps),
            demands=demands,
            num_queries=num_queries,
        )
        result = run_open_loop(config, scenario, seed=seed)
        skews = [record.straggler_skew for record in result.records]
        points.append(
            ImbalancePoint(
                imbalance_concentration=float(concentration),
                summary=result.summary(warmup_fraction=warmup_fraction),
                mean_straggler_skew=float(sum(skews) / len(skews)),
            )
        )
    return points


def run_partitioning_sweep(
    spec: ServerSpec,
    demands: ServiceDemandModel,
    partition_counts: Sequence[int],
    rate_qps: float,
    cost_model: PartitionModelConfig = PartitionModelConfig(),
    network: NetworkModel = NoDelay(),
    num_queries: int = 5_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[PartitioningPoint]:
    """Sweep ``partition_counts`` at fixed server and offered load.

    ``cost_model`` supplies the partitioning cost coefficients; its
    ``num_partitions`` field is overridden per point.  All points share
    one seed, so arrivals and per-query demands are identical across
    the sweep (common random numbers).
    """
    if not partition_counts:
        raise ValueError("need at least one partition count")
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    points: List[PartitioningPoint] = []
    for num_partitions in partition_counts:
        config = ClusterConfig(
            spec=spec,
            partitioning=replace(cost_model, num_partitions=num_partitions),
            network=network,
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate_qps),
            demands=demands,
            num_queries=num_queries,
        )
        result = run_open_loop(config, scenario, seed=seed)
        points.append(
            PartitioningPoint(
                num_partitions=num_partitions,
                summary=result.summary(warmup_fraction=warmup_fraction),
                utilization=result.utilization(),
                achieved_qps=result.achieved_qps(),
            )
        )
    return points
