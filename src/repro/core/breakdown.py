"""Latency component breakdown vs. partition count (figure F8).

Decomposes mean latency — and, separately, the latency of the query at
the p99 — into the fork-join pipeline's components: core-queue wait,
parallel service, straggler skew, merge wait, merge service, and
network.  The figure explains *why* partitioning reshapes the tail:
parallel service shrinks with P while skew and merge grow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.cluster.server import PartitionModelConfig
from repro.cluster.simulation import ClusterConfig, run_open_loop
from repro.servers.spec import ServerSpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class BreakdownPoint:
    """Component breakdown at one partition count."""

    num_partitions: int
    mean_components: Dict[str, float]
    p99_query_components: Dict[str, float]

    @property
    def mean_latency(self) -> float:
        """Sum of the mean components (= mean latency)."""
        return sum(self.mean_components.values())


def breakdown_vs_partitions(
    spec: ServerSpec,
    demands: ServiceDemandModel,
    partition_counts: Sequence[int],
    rate_qps: float,
    cost_model: PartitionModelConfig = PartitionModelConfig(),
    num_queries: int = 5_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[BreakdownPoint]:
    """F8: per-component latency means across the partition sweep."""
    if not partition_counts:
        raise ValueError("need at least one partition count")
    points: List[BreakdownPoint] = []
    for num_partitions in partition_counts:
        config = ClusterConfig(
            spec=spec,
            partitioning=replace(cost_model, num_partitions=num_partitions),
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate_qps),
            demands=demands,
            num_queries=num_queries,
        )
        result = run_open_loop(config, scenario, seed=seed)
        points.append(
            BreakdownPoint(
                num_partitions=num_partitions,
                mean_components=result.breakdown_means(warmup_fraction),
                p99_query_components=result.breakdown_at_percentile(
                    99.0, warmup_fraction
                ),
            )
        )
    return points
