"""F19 (extension) — Replica brownout: failover behaviour under load.

Scripts a brownout of one replica — a twentieth of the run, a quarter
of the way in — and measures how the broker's policies contain the
damage.  Shape: with random selection, requests keep landing on the
stalled replica and wait out the brownout; least-outstanding selection
steers new traffic away, shrinking the damage to the requests already
in flight; hedging rescues even those, capping the worst case near
the hedge deadline plus one service time.
"""

from repro.cluster.fanout import (
    FanoutConfig,
    ReplicaSelection,
    run_fanout_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.core.reporting import format_table
from repro.engine.hedging import HedgingPolicy
from repro.servers.catalog import BIG_SERVER
from repro.sim.outages import OutageSpec
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario

NUM_QUERIES = 8_000
#: The brownout as fractions of the run's length, ``NUM_QUERIES / rate``:
#: the calibrated rate sets how many seconds a run lasts, and a window
#: in absolute seconds can fall past its end.
BROWNOUT_START = 0.25
BROWNOUT_LENGTH = 0.05


def test_fig19_failover(benchmark, demand_model, cost_model, emit):
    partitioning = PartitionModelConfig(
        num_partitions=4,
        partition_overhead=cost_model.partition_overhead,
        merge_base=cost_model.merge_base,
        merge_per_partition=cost_model.merge_per_partition,
    )
    rate = 0.3 * BIG_SERVER.compute_capacity / partitioning.total_work(
        demand_model.mean_demand() / 2
    )
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate),
        demands=demand_model,
        num_queries=NUM_QUERIES,
    )
    horizon = NUM_QUERIES / rate
    brownout = OutageSpec(
        shard=0,
        replica=0,
        start=BROWNOUT_START * horizon,
        duration=BROWNOUT_LENGTH * horizon,
    )
    policies = [
        ("random", ReplicaSelection.RANDOM, None),
        ("least_outstanding", ReplicaSelection.LEAST_OUTSTANDING, None),
        (
            "least_outstanding+hedge",
            ReplicaSelection.LEAST_OUTSTANDING,
            HedgingPolicy(
                hedge_delay_s=2.0 * demand_model.mean_demand(), max_retries=0
            ),
        ),
    ]

    def run_all():
        results = {}
        for label, selection, hedging in policies:
            config = FanoutConfig(
                num_servers=2,
                replicas_per_shard=2,
                spec=BIG_SERVER,
                partitioning=partitioning,
                selection=selection,
                hedging=hedging,
                outages=(brownout,),
            )
            results[label] = run_fanout_open_loop(config, scenario, seed=0)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    emit(
        "fig19_failover",
        format_table(
            ["policy", "p50_ms", "p99_ms", "p999_ms", "max_ms"],
            [
                [
                    label,
                    result.summary().p50 * 1000,
                    result.summary().p99 * 1000,
                    result.summary().p999 * 1000,
                    result.summary().max * 1000,
                ]
                for label, result in results.items()
            ],
            title=(
                f"F19: {brownout.duration * 1000:.0f} ms brownout of one "
                f"replica at {rate:.0f} qps (2 shards x 2 replicas)"
            ),
        ),
    )

    random_max = results["random"].summary().max
    jsq_max = results["least_outstanding"].summary().max
    hedged_max = results["least_outstanding+hedge"].summary().max
    # The brownout is visible under naive selection...
    assert random_max > 0.4 * brownout.duration
    # ...and hedging caps the worst case far below the brownout length.
    assert hedged_max < 0.25 * random_max
    assert hedged_max < 0.2 * brownout.duration
    # Selection alone already improves the tail.
    assert (
        results["least_outstanding"].summary().p999
        <= results["random"].summary().p999
    )
