"""Per-query records and aggregate results of a cluster simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.metrics.summary import LatencySummary, summarize


@dataclass(slots=True)
class QueryRecord:
    """Timeline of one query through the simulated server.

    All times are absolute simulation seconds; ``nan`` until the
    corresponding stage happens.  The derived properties implement the
    component breakdown reported by the architecture-analysis figure.
    """

    query_id: int
    client_send: float
    demand: float
    server_arrival: float = float("nan")
    first_task_start: float = float("nan")
    earliest_task_end: float = float("nan")
    last_task_end: float = float("nan")
    merge_start: float = float("nan")
    merge_end: float = float("nan")
    client_receive: float = float("nan")
    coverage: float = 1.0

    @property
    def complete(self) -> bool:
        """True once the response reached the client."""
        return not np.isnan(self.client_receive)

    @property
    def latency(self) -> float:
        """End-to-end response time seen by the client."""
        return self.client_receive - self.client_send

    @property
    def latency_s(self) -> float:
        """Alias of :attr:`latency` (common query-outcome accessor)."""
        return self.latency

    def doc_ids(self) -> List[int]:
        """Doc ids of the answer — empty: the simulator models time, not
        content (protocol accessor shared with the native engine)."""
        return []

    @property
    def server_latency(self) -> float:
        """Time spent inside the server (excludes network)."""
        return self.merge_end - self.server_arrival

    @property
    def queue_wait(self) -> float:
        """Arrival → first partition task starting on a core."""
        return self.first_task_start - self.server_arrival

    @property
    def parallel_service(self) -> float:
        """First task start → earliest partition task completion."""
        return self.earliest_task_end - self.first_task_start

    @property
    def straggler_skew(self) -> float:
        """Earliest → last partition task completion (fork-join skew)."""
        return self.last_task_end - self.earliest_task_end

    @property
    def merge_wait(self) -> float:
        """Last task end → merge starting on a core."""
        return self.merge_start - self.last_task_end

    @property
    def merge_service(self) -> float:
        """Merge execution time."""
        return self.merge_end - self.merge_start

    @property
    def network_time(self) -> float:
        """Total client↔server network time."""
        return self.latency - self.server_latency


#: Component labels, in pipeline order, for breakdown reporting.
BREAKDOWN_COMPONENTS = (
    "queue_wait",
    "parallel_service",
    "straggler_skew",
    "merge_wait",
    "merge_service",
    "network_time",
)


@dataclass
class SimulationResult:
    """All per-query records of one simulation run plus run metadata."""

    records: List[QueryRecord]
    horizon: float
    core_busy_time: float
    num_cores: int
    label: str = ""

    def __post_init__(self) -> None:
        incomplete = [r.query_id for r in self.records if not r.complete]
        if incomplete:
            raise ValueError(
                f"{len(incomplete)} queries never completed "
                f"(first: {incomplete[:5]})"
            )

    def __len__(self) -> int:
        return len(self.records)

    def _selected(self, warmup_fraction: float) -> List[QueryRecord]:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        skip = int(len(self.records) * warmup_fraction)
        return self.records[skip:]

    def latencies(self, warmup_fraction: float = 0.0) -> np.ndarray:
        """Client-observed latencies, optionally dropping warm-up queries."""
        return np.array(
            [record.latency for record in self._selected(warmup_fraction)]
        )

    def summary(self, warmup_fraction: float = 0.0) -> LatencySummary:
        """Latency summary over the post-warm-up window."""
        return summarize(self.latencies(warmup_fraction))

    def achieved_qps(self) -> float:
        """Completed queries per second of simulated time."""
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        return len(self.records) / self.horizon

    def utilization(self) -> float:
        """Average core utilization over the run."""
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.core_busy_time / (self.num_cores * self.horizon)

    def breakdown_means(self, warmup_fraction: float = 0.0) -> Dict[str, float]:
        """Mean seconds per latency component (sums to mean latency)."""
        selected = self._selected(warmup_fraction)
        if not selected:
            raise ValueError("no records after warm-up filtering")
        return {
            component: float(
                np.mean([getattr(record, component) for record in selected])
            )
            for component in BREAKDOWN_COMPONENTS
        }

    def breakdown_at_percentile(
        self, quantile: float, warmup_fraction: float = 0.0
    ) -> Dict[str, float]:
        """Component values of the query at the given latency percentile.

        Tail analysis wants to know *what the p99 query spent its time
        on*, which is not the per-component p99 (components of different
        queries don't co-occur).  This picks the actual query nearest
        the requested percentile and reports its components.
        """
        selected = self._selected(warmup_fraction)
        if not selected:
            raise ValueError("no records after warm-up filtering")
        latencies = np.array([record.latency for record in selected])
        order = np.argsort(latencies)
        position = min(
            len(order) - 1, int(round(quantile / 100.0 * (len(order) - 1)))
        )
        record = selected[int(order[position])]
        return {
            component: getattr(record, component)
            for component in BREAKDOWN_COMPONENTS
        }
