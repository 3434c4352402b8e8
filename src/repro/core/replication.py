"""Replica selection and hedging study (extension figure F16).

On a replicated cluster with GC-like per-replica hiccups, compares the
broker's tail-taming options:

- replica **selection**: random vs. round-robin vs. least-outstanding
  (join-the-shortest-queue);
- **hedged requests**: duplicate a shard request that misses a
  deadline, take the first answer.

Expected shape (Dean & Barroso's "tail at scale"): least-outstanding
beats random at no extra work; hedging with a ~p95 deadline cuts the
p99 dramatically for a few percent of duplicated requests — because
per-replica hiccups are independent, so a second replica is almost
never paused at the same time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.cluster.fanout import (
    FanoutConfig,
    ReplicaSelection,
    run_fanout_open_loop,
)
from repro.engine.hedging import HedgingPolicy
from repro.metrics.summary import LatencySummary
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class ReplicationPoint:
    """One broker-policy configuration's outcome."""

    label: str
    selection: ReplicaSelection
    hedge_delay: Optional[float]
    summary: LatencySummary
    hedge_fraction: float


def replication_policy_study(
    base_config: FanoutConfig,
    demands: ServiceDemandModel,
    rate_qps: float,
    hedge_delays: Sequence[float] = (),
    num_queries: int = 5_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[ReplicationPoint]:
    """F16: every selection policy, then hedging on the best-known one.

    Returns one point per selection policy (no hedging) followed by one
    point per hedge delay (least-outstanding selection).
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate_qps),
        demands=demands,
        num_queries=num_queries,
    )

    points: List[ReplicationPoint] = []
    for selection in ReplicaSelection:
        config = replace(base_config, selection=selection, hedging=None)
        result = run_fanout_open_loop(config, scenario, seed=seed)
        points.append(
            ReplicationPoint(
                label=selection.value,
                selection=selection,
                hedge_delay=None,
                summary=result.summary(warmup_fraction=warmup_fraction),
                hedge_fraction=result.hedge_fraction,
            )
        )
    for delay in hedge_delays:
        config = replace(
            base_config,
            selection=ReplicaSelection.LEAST_OUTSTANDING,
            hedging=HedgingPolicy(hedge_delay_s=delay, max_retries=0),
        )
        result = run_fanout_open_loop(config, scenario, seed=seed)
        points.append(
            ReplicationPoint(
                label=f"hedge@{delay * 1000:.0f}ms",
                selection=ReplicaSelection.LEAST_OUTSTANDING,
                hedge_delay=float(delay),
                summary=result.summary(warmup_fraction=warmup_fraction),
                hedge_fraction=result.hedge_fraction,
            )
        )
    return points
