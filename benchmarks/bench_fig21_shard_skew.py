"""F21 (ablation) — Shard work skew vs. the partitioning tail win.

Sweeps the Dirichlet concentration of the per-query work split at
fixed P=8 and load — from near-perfect shards down to the heavy skew a
CONTIGUOUS assignment of a drifting crawl produces (F14).  Shape: as
shards skew, the straggler term eats the fork-join win and the p99
climbs back toward the unpartitioned level — an uneven partitioning is
hardly a partitioning at all.
"""

from dataclasses import replace

from repro.core.partitioning import imbalance_sensitivity, run_partitioning_sweep
from repro.core.reporting import format_series
from repro.servers.catalog import BIG_SERVER

# From near-even (1e6) down to heavily skewed (2).
CONCENTRATIONS = [1e6, 60.0, 10.0, 4.0, 2.0]
NUM_PARTITIONS = 8


def test_fig21_shard_skew(benchmark, demand_model, cost_model, emit):
    # Capacity at the swept partition count: the per-partition overhead
    # makes a query's total work at P=8 a multiple of its P=1 work.
    capacity_qps = BIG_SERVER.compute_capacity / replace(
        cost_model, num_partitions=NUM_PARTITIONS
    ).total_work(demand_model.mean_demand())
    rate = 0.35 * capacity_qps

    points = benchmark.pedantic(
        imbalance_sensitivity,
        args=(BIG_SERVER, demand_model, CONCENTRATIONS, rate),
        kwargs={
            "num_partitions": NUM_PARTITIONS,
            "cost_model": cost_model,
            "num_queries": 8_000,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    # Reference: the unpartitioned server under the same workload.
    baseline = run_partitioning_sweep(
        BIG_SERVER, demand_model, [1], rate,
        cost_model=cost_model, num_queries=8_000, seed=0,
    )[0]

    emit(
        "fig21_shard_skew",
        format_series(
            f"F21: p99 vs shard work skew (P=8, {rate:.0f} qps; "
            f"P=1 reference p99 = {baseline.summary.p99 * 1000:.1f} ms)",
            "concentration",
            CONCENTRATIONS,
            [
                ("p99_ms", [p.summary.p99 * 1000 for p in points]),
                ("p50_ms", [p.summary.p50 * 1000 for p in points]),
                (
                    "mean_skew_ms",
                    [p.mean_straggler_skew * 1000 for p in points],
                ),
            ],
        ),
    )

    p99s = [p.summary.p99 for p in points]
    skews = [p.mean_straggler_skew for p in points]
    # Skew grows monotonically as concentration falls...
    assert skews == sorted(skews)
    # ...and the tail pays monotonically for it (the per-query Dirichlet
    # resampling averages the worst splits out, so the cost is a steady
    # erosion rather than a collapse).
    assert p99s == sorted(p99s)
    assert p99s[-1] > 1.1 * p99s[0]
    # Even heavily skewed, P=8 still clearly beats P=1.
    assert p99s[-1] < 0.7 * baseline.summary.p99
