#!/usr/bin/env python3
"""The paper's central study: intra-server partitioning vs. tail latency.

Full pipeline in one script:

1. build the native benchmark and **calibrate** the simulator's
   service-demand and partitioning cost models from real serial
   measurements;
2. sweep the partition count on a simulated big server at fixed load;
3. report p50/p90/p99 per partition count.

Expected shape (the paper's finding): p99 falls steeply from P=1 to
P=4–8, then flattens or rises as per-partition overhead dominates.

Run:  python examples/partitioning_study.py
"""

from repro import CorpusConfig, QueryLogConfig, SearchService, VocabularyConfig
from repro.core.calibration import (
    calibrate_isn,
    cost_model_from_calibration,
    demand_model_from_calibration,
)
from repro.core.partitioning import run_partitioning_sweep
from repro.core.reporting import format_series
from repro.servers.catalog import BIG_SERVER

PARTITIONS = [1, 2, 4, 8, 16]


def main() -> None:
    print("Building the native benchmark and calibrating ...")
    service = SearchService(
        corpus=CorpusConfig(
            num_documents=3_000,
            vocabulary=VocabularyConfig(size=15_000),
            mean_length=200,
            seed=11,
        ),
        query_log=QueryLogConfig(num_unique_queries=400, seed=3),
        num_partitions=1,
    )
    with service:
        calibration = calibrate_isn(
            service.isn, service.query_log, num_queries=100, repeats=2
        )
        demand_model = demand_model_from_calibration(
            calibration, service.partitioned[0].index, service.query_log
        )
    cost_model = cost_model_from_calibration(calibration)
    print(
        f"  calibrated: base={calibration.base_seconds * 1000:.3f} ms, "
        f"{calibration.per_posting_seconds * 1e9:.1f} ns/posting, "
        f"R^2={calibration.r_squared:.3f}"
    )

    capacity = BIG_SERVER.compute_capacity / cost_model.total_work(
        demand_model.mean_demand()
    )
    rate = 0.35 * capacity
    print(f"  simulating at {rate:.0f} qps (35% of P=1 capacity)\n")

    points = run_partitioning_sweep(
        BIG_SERVER,
        demand_model,
        PARTITIONS,
        rate,
        cost_model=cost_model,
        num_queries=8_000,
        seed=0,
    )
    print(
        format_series(
            "Latency vs intra-server partitions (big server)",
            "partitions",
            PARTITIONS,
            [
                ("p50_ms", [p.summary.p50 * 1000 for p in points]),
                ("p90_ms", [p.summary.p90 * 1000 for p in points]),
                ("p99_ms", [p.summary.p99 * 1000 for p in points]),
                ("utilization", [p.utilization for p in points]),
            ],
        )
    )
    best = min(points, key=lambda p: p.summary.p99)
    baseline = points[0]
    print(
        f"\np99 reduction at P={best.num_partitions}: "
        f"{baseline.summary.p99 / best.summary.p99:.2f}x vs P=1"
    )


if __name__ == "__main__":
    main()
