"""F24 — Overload control and graceful degradation under chaos.

The tail-tolerance figure (F23) handles *stragglers*; this figure
handles *failure plus overload*: one shard of a 4-shard cluster flaps
(periodic crash/restart) and runs 3x slow between crashes while the
offered load sweeps from comfortably below the knee to 3x capacity.

Two configurations run the identical fault schedule:

- **unprotected** — no admission control, no breakers, no deadline.
  The slow shard's queue grows without bound above its degraded
  capacity, every fork-join query waits on it, and response times climb
  into seconds while goodput collapses to the sick shard's throughput.
- **protected** — admission control (bounded concurrency + queue),
  per-shard circuit breakers, and a per-shard deadline.  The breaker
  fences off the sick shard (bounded coverage loss instead of unbounded
  queueing), the deadline caps the damage while the breaker is probing,
  and admission control sheds excess load so *served* queries keep
  below-knee latency.

Acceptance contract (mirrors ISSUE criteria):

- protected served-p99 at every swept load stays ≤ 2x the protected
  below-knee (0.5x) served-p99;
- protected goodput at 3x capacity ≥ unprotected goodput at 3x;
- the sweep is deterministic: re-running a cell with the same seed
  reproduces identical latencies, coverage, and shed counts.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    BIG_SERVER,
    BreakerConfig,
    ClusterConfig,
    ClusterModel,
    FaultPlan,
    HedgingPolicy,
    LognormalDemand,
    OverloadPolicy,
    ShardSlowdown,
    format_table,
)

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)  # mean ~14 ms, heavy tail
NUM_SERVERS = 4
SICK_SHARD = 1
SLOWDOWN_FACTOR = 3.0
FLAP_PERIOD_S = 0.5
FLAP_DUTY = 0.2
DEADLINE_S = 0.05
NUM_QUERIES = 6_000
QUICK_QUERIES = 1_500
WARMUP = 0.1
SEED = 0

#: Healthy cluster capacity (qps): each query's demand splits evenly
#: across the shards (``demand / num_servers`` per ISN), so the healthy
#: knee sits at num_servers x compute_capacity / mean_demand.  The sick
#: shard's degraded capacity is this divided by the slowdown factor.
CAPACITY_QPS = (
    NUM_SERVERS * BIG_SERVER.compute_capacity / DEMAND.mean_demand()
)

#: Offered load as fractions of healthy capacity; 0.5x is the
#: below-knee baseline, 3x is deep overload.
LOAD_FRACTIONS = (0.5, 1.0, 2.0, 3.0)

PROTECTION = {
    "hedging": HedgingPolicy(deadline_s=DEADLINE_S),
    "breakers": BreakerConfig(failure_threshold=3, recovery_time_s=0.25),
    # CoDel keeps the admission queue's standing delay near 10 ms, so a
    # served query's latency is bounded queue wait + deadline-bounded
    # service — not minutes of queueing.
    "overload": OverloadPolicy(
        max_concurrency=64,
        queue_limit=64,
        codel_target_delay_s=0.01,
        codel_interval_s=0.05,
    ),
}


def _fault_plan(horizon_s: float) -> FaultPlan:
    """One shard flapping over the arrival window, slow in between."""
    flapping = FaultPlan.flapping_shard(
        SICK_SHARD,
        period_s=FLAP_PERIOD_S,
        duty=FLAP_DUTY,
        horizon_s=horizon_s,
        seed=SEED,
    )
    return FaultPlan(
        crashes=flapping.crashes,
        slowdowns=(
            ShardSlowdown(
                shard=SICK_SHARD,
                start_s=0.0,
                duration_s=horizon_s,
                factor=SLOWDOWN_FACTOR,
            ),
        ),
        seed=SEED,
    )


def _run_cell(load_fraction, protected, num_queries, seed=SEED):
    rate = load_fraction * CAPACITY_QPS
    plan = _fault_plan(num_queries / rate)
    config = ClusterConfig(
        num_servers=NUM_SERVERS,
        spec=BIG_SERVER,
        faults=plan,
        **(PROTECTION if protected else {}),
    )
    return ClusterModel(config).run(
        rate_qps=rate, num_queries=num_queries, demand=DEMAND, seed=seed
    )


def _sweep(num_queries):
    rows = []
    for load_fraction in LOAD_FRACTIONS:
        for protected in (False, True):
            result = _run_cell(load_fraction, protected, num_queries)
            summary = result.summary(WARMUP)
            rows.append(
                {
                    "load_x": load_fraction,
                    "protected": protected,
                    "served": len(result) - result.shed_count,
                    "shed": result.shed_count,
                    "p50": summary.p50,
                    "p99": summary.p99,
                    "goodput": result.goodput_qps(WARMUP),
                    "coverage": result.mean_coverage(WARMUP),
                    "breaker_skips": result.breaker_skips,
                }
            )
    return rows


def _format(rows, num_queries):
    return format_table(
        [
            "load_x",
            "mode",
            "served",
            "shed",
            "p50_ms",
            "p99_ms",
            "goodput_qps",
            "coverage",
            "brk_skips",
        ],
        [
            [
                row["load_x"],
                "protected" if row["protected"] else "unprotected",
                row["served"],
                row["shed"],
                row["p50"] * 1000,
                row["p99"] * 1000,
                row["goodput"],
                row["coverage"],
                row["breaker_skips"],
            ]
            for row in rows
        ],
        title=(
            f"F24: overload + flapping shard {SICK_SHARD} "
            f"(capacity ~{CAPACITY_QPS:.0f} qps, {num_queries} queries, "
            f"{NUM_SERVERS} shards)"
        ),
    )


def _bench_data(rows, num_queries):
    protected = {r["load_x"]: r for r in rows if r["protected"]}
    unprotected = {r["load_x"]: r for r in rows if not r["protected"]}
    top = max(LOAD_FRACTIONS)
    return {
        "figure": "fig24",
        "capacity_qps": CAPACITY_QPS,
        "num_queries": num_queries,
        "num_servers": NUM_SERVERS,
        "cells": rows,
        "protected_top_goodput_qps": protected[top]["goodput"],
        "unprotected_top_goodput_qps": unprotected[top]["goodput"],
        "protected_p99_worst_over_baseline": max(
            row["p99"] for row in protected.values()
        )
        / protected[min(LOAD_FRACTIONS)]["p99"],
        "seed": SEED,
    }


def _check(rows) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    protected = {r["load_x"]: r for r in rows if r["protected"]}
    unprotected = {r["load_x"]: r for r in rows if not r["protected"]}
    baseline = protected[min(LOAD_FRACTIONS)]
    for load_fraction, row in protected.items():
        assert row["p99"] <= 2.0 * baseline["p99"], (
            f"protected served-p99 must stay within 2x of below-knee: "
            f"{row['p99'] * 1000:.1f} ms at {load_fraction}x vs baseline "
            f"{baseline['p99'] * 1000:.1f} ms"
        )
    top = max(LOAD_FRACTIONS)
    assert protected[top]["goodput"] >= unprotected[top]["goodput"], (
        f"protection must not lose goodput at {top}x load: "
        f"{protected[top]['goodput']:.1f} vs "
        f"{unprotected[top]['goodput']:.1f} qps"
    )
    assert protected[top]["shed"] > 0, (
        "deep overload should shed load under admission control"
    )
    assert unprotected[top]["p99"] > 2.0 * protected[top]["p99"], (
        "the unprotected run should visibly melt down at top load "
        f"(unprotected p99 {unprotected[top]['p99'] * 1000:.1f} ms, "
        f"protected {protected[top]['p99'] * 1000:.1f} ms)"
    )


def _check_deterministic(num_queries) -> None:
    """Same seed, same cell → bit-identical outcome."""
    first = _run_cell(max(LOAD_FRACTIONS), True, num_queries)
    second = _run_cell(max(LOAD_FRACTIONS), True, num_queries)
    assert np.array_equal(first.latencies(), second.latencies()), (
        "chaos run must be deterministic under a fixed seed"
    )
    assert first.shed_count == second.shed_count
    assert first.shard_failures == second.shard_failures
    assert [r.coverage for r in first.records] == [
        r.coverage for r in second.records
    ]


def test_fig24_overload_degradation(benchmark, emit, quick):
    num_queries = QUICK_QUERIES if quick else NUM_QUERIES
    rows = benchmark.pedantic(
        lambda: _sweep(num_queries), rounds=1, iterations=1
    )
    emit(
        "fig24_overload_degradation",
        _format(rows, num_queries),
        data=_bench_data(rows, num_queries),
    )
    _check(rows)


def test_fig24_deterministic():
    _check_deterministic(QUICK_QUERIES)
