"""Mixed-fleet study (extension figure F22): big.LITTLE web search.

Extends the paper's low-power question to fleet composition: given
the same aggregate compute budget, compare

- an all-big fleet (the conventional deployment),
- an all-little fleet (the paper's low-power deployment), and
- a mixed fleet with cost-aware routing (cheap queries — most of
  them — to little servers; the expensive tail to big servers).

Expected shape: all-little wins on power but pays tail latency at
P=1-per-server; the mixed fleet recovers (most of) the big fleet's
tail — because only expensive queries need fast cores — at a fraction
of its power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.hetero import (
    HeterogeneousConfig,
    run_heterogeneous_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.metrics.summary import LatencySummary
from repro.servers.spec import ServerSpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import ServiceDemandModel


@dataclass(frozen=True)
class FleetPoint:
    """One fleet composition's latency/power outcome."""

    label: str
    num_big: int
    num_little: int
    summary: LatencySummary
    total_power_watts: float
    energy_per_query_joules: float
    big_traffic_share: float


def fleet_composition_study(
    big_spec: ServerSpec,
    little_spec: ServerSpec,
    demands: ServiceDemandModel,
    rate_qps: float,
    all_big: int,
    mixed_big: int,
    mixed_little: int,
    all_little: Optional[int] = None,
    threshold_quantile: float = 0.8,
    partitioning: PartitionModelConfig = PartitionModelConfig(),
    num_queries: int = 6_000,
    warmup_fraction: float = 0.1,
    seed: int = 0,
) -> List[FleetPoint]:
    """F22: all-big vs all-little vs cost-routed mixed fleet.

    ``all_little`` defaults to the little-server count matching the
    all-big fleet's compute capacity.  The mixed fleet's routing
    threshold is the ``threshold_quantile`` of the demand distribution
    (estimated by sampling), so the big group receives roughly the top
    ``1 - threshold_quantile`` of queries by cost.
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    if not 0.0 < threshold_quantile < 1.0:
        raise ValueError("threshold_quantile must be in (0, 1)")
    if all_little is None:
        ratio = big_spec.compute_capacity / little_spec.compute_capacity
        all_little = max(1, int(round(all_big * ratio)))

    sample = demands.demands(20_000, np.random.default_rng(987654321))
    threshold = float(np.quantile(sample, threshold_quantile))

    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate_qps),
        demands=demands,
        num_queries=num_queries,
    )

    configurations = [
        (
            "all-big",
            HeterogeneousConfig(
                big_spec=big_spec,
                num_big=all_big,
                little_spec=little_spec,
                num_little=0,
                partitioning=partitioning,
                demand_threshold=0.0,  # everything routes to big
            ),
        ),
        (
            "all-little",
            HeterogeneousConfig(
                big_spec=big_spec,
                num_big=0,
                little_spec=little_spec,
                num_little=all_little,
                partitioning=partitioning,
                demand_threshold=float("inf"),  # everything to little
            ),
        ),
        (
            f"mixed (top {100 * (1 - threshold_quantile):.0f}% to big)",
            HeterogeneousConfig(
                big_spec=big_spec,
                num_big=mixed_big,
                little_spec=little_spec,
                num_little=mixed_little,
                partitioning=partitioning,
                demand_threshold=threshold,
            ),
        ),
    ]

    points: List[FleetPoint] = []
    for label, config in configurations:
        result = run_heterogeneous_open_loop(config, scenario, seed=seed)
        total = max(1, result.routed_to_big + result.routed_to_little)
        points.append(
            FleetPoint(
                label=label,
                num_big=config.num_big,
                num_little=config.num_little,
                summary=result.summary(warmup_fraction=warmup_fraction),
                total_power_watts=result.total_power_watts,
                energy_per_query_joules=result.energy_per_query_joules(),
                big_traffic_share=result.routed_to_big / total,
            )
        )
    return points
