"""F16 (extension) — Replica selection and hedged requests.

On a 4-shard × 2-replica cluster with independent per-replica GC-like
pauses, compares the broker's tail-taming options.  Each server runs 8
intra-server partitions, so the *intrinsic* long-query tail is already
parallelized away (F4) and what remains of the p99 is pause- and
queue-driven — the part selection and hedging can attack.  Shape:
smarter replica selection (least-outstanding) trims the tail at zero
extra work; hedging at a short deadline removes the pause tail almost
entirely for a few percent of duplicated shard requests — the Dean &
Barroso "tail at scale" remedy, composed with the paper's partitioning.
"""

from repro.cluster.fanout import FanoutConfig
from repro.cluster.server import PartitionModelConfig
from repro.core.replication import replication_policy_study
from repro.core.reporting import format_table
from repro.servers.catalog import BIG_SERVER
from repro.sim.hiccups import HiccupConfig

# ~3% of wall time paused (30 ms pause per second): a tuned 2015-era
# heap.  The pause fraction matters: hedging leaves a residual tail of
# *simultaneous* pauses on both replicas, whose per-query probability is
# roughly (shards × fraction²) — at 3% that sits well below the p99.
PAUSES = HiccupConfig(mean_interval=1.0, pause_duration=0.03)


def test_fig16_replication(benchmark, demand_model, cost_model, emit):
    partitioning = PartitionModelConfig(
        num_partitions=8,
        partition_overhead=cost_model.partition_overhead,
        merge_base=cost_model.merge_base,
        merge_per_partition=cost_model.merge_per_partition,
    )
    base = FanoutConfig(
        num_servers=4,
        replicas_per_shard=2,
        spec=BIG_SERVER,
        partitioning=partitioning,
        hiccups=PAUSES,
    )
    # Per-shard work is ~demand/4 split over 8 partition tasks; the
    # clean per-shard latency is ~1 ms, so hedge deadlines of a few ms
    # fire almost only on pause-struck requests.
    mean_demand = demand_model.mean_demand()
    rate = 0.3 * BIG_SERVER.compute_capacity / (
        partitioning.total_work(mean_demand / 4)
    )
    hedge_delays = [mean_demand / 2, mean_demand]

    points = benchmark.pedantic(
        replication_policy_study,
        args=(base, demand_model, rate),
        kwargs={
            "hedge_delays": hedge_delays,
            "num_queries": 6_000,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )

    emit(
        "fig16_replication",
        format_table(
            ["policy", "p50_ms", "p99_ms", "p999_ms", "hedge_fraction"],
            [
                [
                    point.label,
                    point.summary.p50 * 1000,
                    point.summary.p99 * 1000,
                    point.summary.p999 * 1000,
                    point.hedge_fraction,
                ]
                for point in points
            ],
            title=(
                "F16: replica selection & hedging on a 4x2 cluster with "
                f"GC pauses ({rate:.0f} qps)"
            ),
        ),
    )

    by_label = {point.label: point for point in points}
    best_hedge = min(
        (p for p in points if p.hedge_delay is not None),
        key=lambda p: p.summary.p99,
    )
    # Least-outstanding >= random on the tail (ties allowed, no worse
    # than 10%), hedging strictly better than the best pure selection.
    assert (
        by_label["least_outstanding"].summary.p99
        <= 1.1 * by_label["random"].summary.p99
    )
    assert best_hedge.summary.p99 < 0.8 * by_label["least_outstanding"].summary.p99
    # And the duplicate-work budget stays modest.
    assert best_hedge.hedge_fraction < 0.35
