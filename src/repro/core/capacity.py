"""QoS-bounded maximum throughput (figure F5).

Web search provisions for a tail-latency SLA, so "throughput" means
*the largest sustainable QPS whose p99 stays under the target*.  The
search is a bisection over the offered rate, each probe being a full
open-loop simulation — slow but honest, since no closed form exists
for fork-join p99 under Zipf-skewed demands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.cluster.server import PartitionModelConfig
from repro.cluster.simulation import ClusterConfig, run_open_loop
from repro.servers.spec import ServerSpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class CapacityPoint:
    """The QoS-bounded capacity of one configuration."""

    num_partitions: int
    max_qps: float
    p99_at_max: float
    qos_p99_seconds: float
    utilization_at_max: float


def _p99_at_rate(
    config: ClusterConfig,
    demands: ServiceDemandModel,
    rate: float,
    num_queries: int,
    warmup_fraction: float,
    seed: int,
) -> tuple:
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate), demands=demands, num_queries=num_queries
    )
    result = run_open_loop(config, scenario, seed=seed)
    return (
        result.summary(warmup_fraction=warmup_fraction).p99,
        result.utilization(),
    )


def find_max_qps(
    config: ClusterConfig,
    demands: ServiceDemandModel,
    qos_p99_seconds: float,
    num_queries: int = 4_000,
    warmup_fraction: float = 0.1,
    tolerance_qps: float = 1.0,
    seed: int = 0,
) -> CapacityPoint:
    """Bisect the offered rate for the largest QoS-compliant load.

    The upper bracket is the server's work-conservation limit
    (``capacity / total work per query``); if even a trickle load
    violates the QoS the returned ``max_qps`` is 0.
    """
    if qos_p99_seconds <= 0:
        raise ValueError("qos_p99_seconds must be positive")
    mean_work = config.partitioning.total_work(demands.mean_demand())
    saturation = config.spec.compute_capacity / mean_work
    low = 0.0
    high = saturation * 0.98  # bisection stays in the stable region

    p99_low, util_low = _p99_at_rate(
        config, demands, max(high * 0.01, tolerance_qps), num_queries,
        warmup_fraction, seed,
    )
    if p99_low > qos_p99_seconds:
        return CapacityPoint(
            num_partitions=config.partitioning.num_partitions,
            max_qps=0.0,
            p99_at_max=p99_low,
            qos_p99_seconds=qos_p99_seconds,
            utilization_at_max=util_low,
        )

    best_rate = max(high * 0.01, tolerance_qps)
    best_p99, best_util = p99_low, util_low
    low = best_rate
    while high - low > tolerance_qps:
        middle = (low + high) / 2.0
        p99, util = _p99_at_rate(
            config, demands, middle, num_queries, warmup_fraction, seed
        )
        if p99 <= qos_p99_seconds:
            low, best_rate, best_p99, best_util = middle, middle, p99, util
        else:
            high = middle
    return CapacityPoint(
        num_partitions=config.partitioning.num_partitions,
        max_qps=best_rate,
        p99_at_max=best_p99,
        qos_p99_seconds=qos_p99_seconds,
        utilization_at_max=best_util,
    )


def capacity_vs_partitions(
    spec: ServerSpec,
    demands: ServiceDemandModel,
    partition_counts: Sequence[int],
    qos_p99_seconds: float,
    cost_model: PartitionModelConfig = PartitionModelConfig(),
    num_queries: int = 4_000,
    tolerance_qps: float = 2.0,
    seed: int = 0,
) -> List[CapacityPoint]:
    """F5: QoS-bounded capacity at each partition count."""
    if not partition_counts:
        raise ValueError("need at least one partition count")
    points: List[CapacityPoint] = []
    for num_partitions in partition_counts:
        config = ClusterConfig(
            spec=spec,
            partitioning=replace(cost_model, num_partitions=num_partitions),
        )
        points.append(
            find_max_qps(
                config,
                demands,
                qos_p99_seconds,
                num_queries=num_queries,
                tolerance_qps=tolerance_qps,
                seed=seed,
            )
        )
    return points
