"""Calibrating the simulator's service-demand model from native runs.

The discrete-event studies are only as good as their service demands.
Calibration runs the *native* engine serially over a query sample,
regresses service time against matched postings volume (the affine
work model ``time ≈ base + per_posting × volume``), and packages the
coefficients so the simulator's :class:`IndexDerivedDemand` reproduces
both the scale and the query-cost correlation of the real engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.stats import linear_fit
from repro.corpus.querylog import QueryLog
from repro.engine.driver import QueryMeasurement, replay_serial
from repro.engine.isn import IndexServingNode
from repro.index.inverted import InvertedIndex
from repro.metrics.summary import LatencySummary, summarize
from repro.workload.servicetime import IndexDerivedDemand


@dataclass(frozen=True)
class CalibrationResult:
    """The fitted affine work model and its quality.

    ``base_seconds`` is the per-query fixed cost (parse, setup, result
    assembly); ``per_posting_seconds`` the marginal cost of traversing
    one posting.  ``r_squared`` reports how much of the service-time
    variance the postings volume explains.
    """

    base_seconds: float
    per_posting_seconds: float
    r_squared: float
    num_measurements: int
    service_summary: LatencySummary

    def predicted_demand(self, matched_volume: int) -> float:
        """Model-predicted service demand for a given postings volume."""
        return self.base_seconds + self.per_posting_seconds * matched_volume


def calibrate_from_measurements(
    measurements: Sequence[QueryMeasurement],
) -> CalibrationResult:
    """Fit the affine work model to existing serial measurements."""
    if len(measurements) < 2:
        raise ValueError("calibration needs at least two measurements")
    volumes = [measurement.matched_volume for measurement in measurements]
    times = [measurement.service_seconds for measurement in measurements]
    intercept, slope, r_squared = linear_fit(volumes, times)
    # Clamp to physical (non-negative) coefficients: tiny corpora can
    # produce a slightly negative intercept from noise.
    return CalibrationResult(
        base_seconds=max(0.0, intercept),
        per_posting_seconds=max(0.0, slope),
        r_squared=r_squared,
        num_measurements=len(measurements),
        service_summary=summarize(times),
    )


def calibrate_isn(
    isn: IndexServingNode,
    query_log: QueryLog,
    num_queries: int = 200,
    repeats: int = 3,
    seed: int = 0,
) -> CalibrationResult:
    """Measure a popularity-weighted query sample and fit the model."""
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    queries = query_log.sample_stream(num_queries, rng)
    measurements = replay_serial(isn, queries, repeats=repeats)
    return calibrate_from_measurements(measurements)


def demand_model_from_calibration(
    calibration: CalibrationResult,
    index: InvertedIndex,
    query_log: QueryLog,
) -> IndexDerivedDemand:
    """Build the simulator demand model carrying the calibrated costs."""
    return IndexDerivedDemand(
        index=index,
        query_log=query_log,
        base_seconds=calibration.base_seconds,
        per_posting_seconds=calibration.per_posting_seconds,
    )


def cost_model_from_calibration(
    calibration: CalibrationResult,
    merge_per_hit_seconds: float = 2e-6,
    top_k: int = 10,
    min_overhead_fraction: float = 0.03,
) -> "PartitionModelConfig":
    """Derive the simulator's partitioning cost model from calibration.

    Each shard search pays roughly the per-query fixed cost (parse is
    shared, but per-shard setup, cursor opening, and heap allocation are
    not), so the per-partition overhead ``α`` is the calibrated
    ``base_seconds``.  The regression intercept is noisy — the fixed
    cost is tiny next to the per-posting term — so ``α`` is floored at
    ``min_overhead_fraction`` of the median measured service time (the
    per-shard setup cost is certainly not *zero*).  Merge cost scales
    with the ``top_k`` hits each extra partition contributes.
    """
    from repro.cluster.server import PartitionModelConfig

    floor = min_overhead_fraction * calibration.service_summary.p50
    return PartitionModelConfig(
        num_partitions=1,
        partition_overhead=max(calibration.base_seconds, floor),
        merge_base=merge_per_hit_seconds * top_k,
        merge_per_partition=merge_per_hit_seconds * top_k,
    )
