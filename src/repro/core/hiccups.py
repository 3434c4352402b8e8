"""GC-pause study (extension figure F15).

The benchmark's index serving node is a JVM process, and stop-the-world
garbage collection pauses are a well-known source of its tail latency.
This study injects a calibrated pause process into the simulated server
and re-runs the partition sweep.  The finding it demonstrates: pauses
put a **floor** under the tail that intra-server partitioning cannot
remove — a pause freezes every partition's core at once, so the
mechanism that shortens intrinsically-long queries is powerless against
it.  (The remedy in practice is heap tuning or more ISNs, not more
partitions.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.cluster.server import PartitionModelConfig
from repro.cluster.simulation import ClusterConfig, run_open_loop
from repro.metrics.summary import LatencySummary
from repro.servers.spec import ServerSpec
from repro.sim.hiccups import HiccupConfig
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class HiccupPoint:
    """One (pauses on/off, partition count) latency outcome."""

    num_partitions: int
    hiccups_enabled: bool
    summary: LatencySummary


def hiccup_study(
    spec: ServerSpec,
    demands: ServiceDemandModel,
    partition_counts: Sequence[int],
    rate_qps: float,
    hiccups: HiccupConfig,
    cost_model: PartitionModelConfig = PartitionModelConfig(),
    num_queries: int = 5_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[HiccupPoint]:
    """F15: partition sweep with and without GC-style pauses.

    Returns two points per partition count (pauses off, then on), all
    sharing the same workload seed.
    """
    if not partition_counts:
        raise ValueError("need at least one partition count")
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    points: List[HiccupPoint] = []
    for num_partitions in partition_counts:
        for pause_config in (None, hiccups):
            config = ClusterConfig(
                spec=spec,
                partitioning=replace(
                    cost_model, num_partitions=num_partitions
                ),
                hiccups=pause_config,
            )
            scenario = WorkloadScenario(
                arrivals=PoissonArrivals(rate_qps),
                demands=demands,
                num_queries=num_queries,
            )
            result = run_open_loop(config, scenario, seed=seed)
            points.append(
                HiccupPoint(
                    num_partitions=num_partitions,
                    hiccups_enabled=pause_config is not None,
                    summary=result.summary(warmup_fraction=warmup_fraction),
                )
            )
    return points
