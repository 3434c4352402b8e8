"""Cluster fan-out study (extension figure F12): tail at scale.

Shards the collection across ``N`` index serving nodes and measures
end-to-end latency as ``N`` grows, holding the whole-query work and
the arrival rate fixed.  Two opposing forces shape the curve:

- per-node work falls as ``1/N``, so latency improves with ``N``;
- the query waits for the **slowest** of ``N`` nodes, so independent
  per-node disturbances (shard imbalance, network jitter) accumulate
  into the critical path — the "tail at scale" effect.

The measurable signatures: the sharding *speedup* is sublinear
(``speedup(N) < N`` and the efficiency ``speedup/N`` decays), and the
mean fan-out skew grows both absolutely with ``N`` and as a fraction
of the remaining latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster.fanout import FanoutConfig, run_fanout_open_loop
from repro.cluster.server import PartitionModelConfig
from repro.metrics.summary import LatencySummary
from repro.servers.spec import ServerSpec
from repro.sim.network import NetworkModel, NoDelay
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class FanoutPoint:
    """One cluster size's latency outcome."""

    num_servers: int
    summary: LatencySummary
    mean_fanout_skew: float

    @property
    def skew_fraction(self) -> float:
        """Mean fan-out skew as a fraction of mean latency."""
        if self.summary.mean == 0:
            return 0.0
        return self.mean_fanout_skew / self.summary.mean


def fanout_scaling_study(
    spec: ServerSpec,
    demands: ServiceDemandModel,
    server_counts: Sequence[int],
    rate_qps: float,
    partitioning: PartitionModelConfig = PartitionModelConfig(),
    network: NetworkModel = NoDelay(),
    num_queries: int = 5_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[FanoutPoint]:
    """F12: latency vs. cluster width at fixed whole-query work."""
    if not server_counts:
        raise ValueError("need at least one server count")
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    points: List[FanoutPoint] = []
    for num_servers in server_counts:
        config = FanoutConfig(
            num_servers=num_servers,
            spec=spec,
            partitioning=partitioning,
            network=network,
        )
        scenario = WorkloadScenario(
            arrivals=PoissonArrivals(rate_qps),
            demands=demands,
            num_queries=num_queries,
        )
        result = run_fanout_open_loop(config, scenario, seed=seed)
        points.append(
            FanoutPoint(
                num_servers=num_servers,
                summary=result.summary(warmup_fraction=warmup_fraction),
                mean_fanout_skew=result.mean_fanout_skew(),
            )
        )
    return points
