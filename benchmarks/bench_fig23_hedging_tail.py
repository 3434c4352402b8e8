"""F23 — Tail-tolerant fan-out: hedge delay × deadline sweep.

The paper's partitioning study shrinks the *intrinsic* tail; this
figure extends the story to *extrinsic* stragglers (whole-server GC
pauses) and the request-level mitigations the tail-tolerance layer
adds: hedged backup requests to a second replica, and per-shard
deadlines that trade a sliver of coverage for a bounded tail.

Scenario: a 4-shard × 2-replica cluster whose every replica pauses for
25 ms about once a second (~2.5% pause fraction).  Unhedged, the
cluster's p99/p99.9 is pause-bound — the broker waits out whichever
shard is frozen.  Hedging re-issues the straggling shard request to
the sibling replica, which is almost never paused at the same moment,
so the tail collapses to hedge-delay + service time.

Acceptance contract (mirrors ISSUE criteria):

- hedging cuts p99.9 by ≥ 30% vs. no hedging at equal offered load;
- mean coverage stays ≥ 0.95 in every swept cell;
- an *inert* policy (``HedgingPolicy()``) routes through the seed's
  analytic fan-out path and reproduces its latencies within 2%
  (bit-identical, in fact — same code path, same RNG streams).
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    BIG_SERVER,
    ClusterConfig,
    ClusterModel,
    HedgingPolicy,
    HiccupConfig,
    LognormalDemand,
    format_table,
)

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)  # mean ~14 ms, heavy tail
PAUSES = HiccupConfig(mean_interval=1.0, pause_duration=0.025)
RATE_QPS = 150.0
NUM_QUERIES = 12_000
QUICK_QUERIES = 2_000
WARMUP = 0.1

#: The sweep grid: hedge delay (None = no hedging) × deadline budget.
#: The 20 ms deadline sits under the 25 ms pause, so without hedging it
#: converts pause-struck shard requests into coverage loss.
HEDGE_DELAYS = (None, 0.005, 0.010)
DEADLINES = (None, 0.020)


def _run_cell(hedge_delay, deadline, num_queries, seed=0):
    hedging = None
    if hedge_delay is not None or deadline is not None:
        hedging = HedgingPolicy(hedge_delay_s=hedge_delay, deadline_s=deadline)
    model = ClusterModel(
        ClusterConfig(
            num_servers=4,
            spec=BIG_SERVER,
            num_partitions=4,
            replicas_per_shard=2,
            hiccups=PAUSES,
            hedging=hedging,
        )
    )
    return model.run(
        rate_qps=RATE_QPS, num_queries=num_queries, demand=DEMAND, seed=seed
    )


def _sweep(num_queries):
    rows = []
    for hedge_delay in HEDGE_DELAYS:
        for deadline in DEADLINES:
            result = _run_cell(hedge_delay, deadline, num_queries)
            latencies = result.latencies(WARMUP)
            p50, p99, p999 = np.percentile(latencies, [50, 99, 99.9])
            rows.append(
                {
                    "hedge_ms": (
                        hedge_delay * 1000 if hedge_delay is not None else None
                    ),
                    "deadline_ms": (
                        deadline * 1000 if deadline is not None else None
                    ),
                    "p50": float(p50),
                    "p99": float(p99),
                    "p999": float(p999),
                    "coverage": result.mean_coverage(WARMUP),
                    "hedges_issued": result.hedges_issued,
                    "hedges_won": result.hedges_won,
                    "deadline_misses": result.deadline_misses,
                }
            )
    return rows


def _format(rows, num_queries):
    def cell(value):
        return "off" if value is None else f"{value:.0f}"

    return format_table(
        [
            "hedge_ms",
            "deadline_ms",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "coverage",
            "hedged",
            "won",
            "missed",
        ],
        [
            [
                cell(row["hedge_ms"]),
                cell(row["deadline_ms"]),
                row["p50"] * 1000,
                row["p99"] * 1000,
                row["p999"] * 1000,
                row["coverage"],
                row["hedges_issued"],
                row["hedges_won"],
                row["deadline_misses"],
            ]
            for row in rows
        ],
        title=(
            f"F23: hedge delay x deadline under 25ms GC pauses "
            f"({RATE_QPS:.0f} qps, {num_queries} queries, 4 shards x 2 replicas)"
        ),
    )


def _check(rows) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    baseline = next(
        r for r in rows if r["hedge_ms"] is None and r["deadline_ms"] is None
    )
    hedged = [r for r in rows if r["hedge_ms"] is not None]
    assert hedged, "sweep produced no hedged cells"
    best = min(r["p999"] for r in hedged)
    assert best <= 0.7 * baseline["p999"], (
        f"hedging must cut p99.9 by >=30%: best {best * 1000:.2f} ms "
        f"vs baseline {baseline['p999'] * 1000:.2f} ms"
    )
    for row in rows:
        assert row["coverage"] >= 0.95, f"coverage criterion violated: {row}"
    for row in hedged:
        assert row["hedges_won"] > 0, f"hedges never won: {row}"


def _check_inert_policy_matches_seed_path(num_queries) -> None:
    """An inert policy must reproduce the seed fan-out exactly.

    ``HedgingPolicy()`` enables nothing, so the broker runs under the
    same inert ``DISABLED_POLICY`` as with no policy at all — same
    loop, same RNG stream names.  The 2% acceptance bound is asserted
    on top of what is in practice bit-identity.
    """
    plain = ClusterConfig(num_servers=4, spec=BIG_SERVER, num_partitions=4)
    inert = ClusterConfig(
        num_servers=4,
        spec=BIG_SERVER,
        num_partitions=4,
        hedging=HedgingPolicy(),
    )
    base = ClusterModel(plain).run(
        rate_qps=RATE_QPS, num_queries=num_queries, demand=DEMAND, seed=0
    )
    shimmed = ClusterModel(inert).run(
        rate_qps=RATE_QPS, num_queries=num_queries, demand=DEMAND, seed=0
    )
    base_lat = base.latencies()
    shim_lat = shimmed.latencies()
    worst = float(np.max(np.abs(shim_lat / base_lat - 1.0)))
    assert worst <= 0.02, f"inert policy drifted {worst:.4f} from seed path"
    assert np.array_equal(base_lat, shim_lat), (
        "inert policy should be bit-identical to the seed fan-out"
    )


def test_fig23_hedging_tail(benchmark, emit, quick):
    num_queries = QUICK_QUERIES if quick else NUM_QUERIES
    rows = benchmark.pedantic(
        lambda: _sweep(num_queries), rounds=1, iterations=1
    )
    emit("fig23_hedging_tail", _format(rows, num_queries))
    _check(rows)


def test_fig23_inert_policy_matches_seed_path():
    _check_inert_policy_matches_seed_path(QUICK_QUERIES)
