"""Bit-level pins for what the perf benchmark's digests cannot see.

Every ``des_sweep`` cell is fully served at coverage 1.0, so deadline
misses, sheds, breaker skips, injected faults, retries, replica crashes
and a non-zero network run through the broker with no bit-level guard
there.  Each case below is a small seeded configuration pinned to a
sha256 over its served-latency array plus its typed outcome counts.

The constants were captured by running this file's case bodies at the
commit *before* the four simulated brokers were merged into
:mod:`repro.cluster.broker`; the merge had to reproduce every one of
them byte for byte.  A pin that moves is a behaviour change: either
explain it and re-capture, or fix the regression.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.cluster.fanout import FanoutConfig, run_fanout_open_loop
from repro.cluster.server import PartitionModelConfig
from repro.engine.hedging import HedgingPolicy
from repro.resilience.admission import OverloadPolicy
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import (
    ErrorBurst,
    FaultPlan,
    ShardCrash,
    ShardSlowdown,
)
from repro.servers.catalog import BIG_SERVER
from repro.servers.spec import ServerSpec
from repro.sim.autoscale import (
    AutoscaleConfig,
    ReactivePolicy,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.sim.failures import MttfMttrFailures
from repro.sim.hiccups import HiccupConfig
from repro.sim.network import FixedDelay
from repro.workload.arrivals import PoissonArrivals
from repro.workload.diurnal import DiurnalArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
PAUSES = HiccupConfig(mean_interval=0.5, pause_duration=0.03)
SMALL_NODE = ServerSpec(
    name="golden-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)


def _outcomes(records) -> dict:
    """Typed outcome of every record: served, or the shed/fail reason."""
    return dict(Counter(r.shed_reason or "served" for r in records))


def _sha(latencies: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(latencies, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def _fanout(rate, num_queries, seed, **config):
    partitions = config.pop("partitions", 1)
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate=rate),
        demands=DEMAND,
        num_queries=num_queries,
    )
    result = run_fanout_open_loop(
        FanoutConfig(
            spec=BIG_SERVER,
            partitioning=PartitionModelConfig(num_partitions=partitions),
            **config,
        ),
        scenario,
        seed=seed,
    )
    assert len(result) == num_queries
    return {
        "latencies": _sha(result.latencies()),
        "outcomes": _outcomes(result.records),
        "coverage": round(result.mean_coverage(), 12),
        "hedges": (result.hedges_issued, result.hedges_won),
        "deadline_misses": result.deadline_misses,
        "breaker_skips": result.breaker_skips,
        "failures": result.failures,
        "shard_failures": result.shard_failures,
    }


def _autoscale(policy, seed, horizon_s=120.0, base=20.0, peak=80.0, **config):
    rng = np.random.default_rng(seed)
    times = DiurnalArrivals(
        base_qps=base,
        peak_qps=peak,
        period_s=horizon_s,
        peak_time_s=horizon_s / 2.0,
    ).realize_trace(horizon_s, rng)
    demands = DEMAND.demands(times.size, rng)
    params = dict(
        spec=SMALL_NODE,
        initial_replicas=2,
        max_replicas=6,
        warmup_s=8.0,
        control_interval_s=5.0,
        scale_down_cooldown_s=15.0,
        scale_down_stability=2,
    )
    params.update(config)
    result = run_autoscaled_cluster(
        AutoscaleConfig(**params), policy, times, demands, seed=seed
    )
    assert len(result.records) == times.size
    return {
        "latencies": _sha(result.latencies()),
        "outcomes": _outcomes(result.records),
        "row_spans": _sha(np.array(result.row_spans).ravel()),
        "rows": len(result.row_spans),
        "scale_events": (result.scale_up_events, result.scale_down_events),
        "crashes": (result.replica_crashes, result.replica_recoveries),
    }


CASES = {
    "plain_fixed_delay": lambda: _fanout(
        200.0, 300, 11,
        num_servers=4, partitions=2, network=FixedDelay(0.0005),
    ),
    "hedged_tight_deadline": lambda: _fanout(
        120.0, 400, 12,
        num_servers=4, replicas_per_shard=2, hiccups=PAUSES,
        hedging=HedgingPolicy(hedge_delay_s=0.004, deadline_s=0.02),
    ),
    "quantile_hedging": lambda: _fanout(
        150.0, 400, 13,
        num_servers=2, partitions=2, replicas_per_shard=2, hiccups=PAUSES,
        network=FixedDelay(0.0002),
        hedging=HedgingPolicy(
            hedge_delay_s=0.02, hedge_quantile=0.9, min_quantile_samples=16
        ),
    ),
    "overload_both_reasons": lambda: _fanout(
        9_000.0, 600, 14,
        num_servers=2,
        overload=OverloadPolicy(
            max_concurrency=4, queue_limit=6,
            codel_target_delay_s=0.0005, codel_interval_s=0.002,
        ),
    ),
    "breakers_and_faults": lambda: _fanout(
        150.0, 500, 15,
        num_servers=3, replicas_per_shard=2,
        hedging=HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.08),
        breakers=BreakerConfig(failure_threshold=3, recovery_time_s=0.3),
        faults=FaultPlan(
            crashes=(
                ShardCrash(shard=0, start_s=0.5, duration_s=0.6, replica=0),
                ShardCrash(shard=1, start_s=1.5, duration_s=0.4),
            ),
            slowdowns=(
                ShardSlowdown(
                    shard=2, start_s=1.0, duration_s=1.0, factor=6.0
                ),
            ),
            error_bursts=(
                ErrorBurst(
                    shard=1, start_s=2.2, duration_s=0.8, error_rate=0.7
                ),
            ),
        ),
    ),
    "faults_without_policy": lambda: _fanout(
        150.0, 400, 16,
        num_servers=2,
        faults=FaultPlan(
            crashes=(ShardCrash(shard=1, start_s=1.6, duration_s=0.3),),
            error_bursts=(
                ErrorBurst(
                    shard=0, start_s=0.4, duration_s=1.0, error_rate=0.5
                ),
            ),
        ),
    ),
    "three_replicas_two_hedges": lambda: _fanout(
        200.0, 400, 17,
        num_servers=2, replicas_per_shard=3, hiccups=PAUSES,
        hedging=HedgingPolicy(hedge_delay_s=0.003, max_hedges=2),
    ),
    "autoscale_overload": lambda: _autoscale(
        StaticPolicy(replicas=1), 18, base=60.0, peak=160.0,
        initial_replicas=1, max_replicas=1,
        overload=OverloadPolicy(
            max_concurrency=6, queue_limit=4,
            codel_target_delay_s=0.05, codel_interval_s=0.1,
        ),
    ),
    "autoscale_failures": lambda: _autoscale(
        StaticPolicy(replicas=3), 19, base=60.0, peak=180.0,
        shards=2, initial_replicas=3,
        failures=MttfMttrFailures(mttf_s=25.0, mttr_s=6.0),
    ),
    "autoscale_up_and_down": lambda: _autoscale(
        ReactivePolicy(target_utilization=0.5), 20, horizon_s=200.0,
        base=10.0, peak=250.0, shards=2, initial_replicas=1,
    ),
}

GOLDEN = {
    "autoscale_failures": {
        "crashes": (10, 10),
        "latencies": "f26755ca18be4a89",
        "outcomes": {
            "no_active_replica": 1583,
            "replica_crash": 689,
            "served": 12155,
        },
        "row_spans": "84757f738a3b0eca",
        "rows": 3,
        "scale_events": (0, 0),
    },
    "autoscale_overload": {
        "crashes": (0, 0),
        "latencies": "2186eb8308a0d6f9",
        "outcomes": {"codel": 148, "queue_full": 5211, "served": 7863},
        "row_spans": "282a39c3addc67b9",
        "rows": 1,
        "scale_events": (0, 0),
    },
    "autoscale_up_and_down": {
        "crashes": (0, 0),
        "latencies": "942f239fa637da87",
        "outcomes": {"served": 26013},
        "row_spans": "20a66f09f9c45f8d",
        "rows": 4,
        "scale_events": (3, 3),
    },
    "breakers_and_faults": {
        "breaker_skips": 216,
        "coverage": 0.849333333333,
        "deadline_misses": 3,
        "failures": 24,
        "hedges": (215, 2),
        "latencies": "1ec8e372ab6e2cdb",
        "outcomes": {"served": 500},
        "shard_failures": (4, 20, 3),
    },
    "faults_without_policy": {
        "breaker_skips": 0,
        "coverage": 0.89375,
        "deadline_misses": 0,
        "failures": 206,
        "hedges": (0, 0),
        "latencies": "693600bd372af42b",
        "outcomes": {"served": 400},
        "shard_failures": (122, 84),
    },
    "hedged_tight_deadline": {
        "breaker_skips": 0,
        "coverage": 0.994375,
        "deadline_misses": 9,
        "failures": 0,
        "hedges": (577, 39),
        "latencies": "e1badc7c6f689d73",
        "outcomes": {"served": 400},
        "shard_failures": (5, 2, 1, 1),
    },
    "overload_both_reasons": {
        "breaker_skips": 0,
        "coverage": 0.071666666667,
        "deadline_misses": 0,
        "failures": 0,
        "hedges": (0, 0),
        "latencies": "80b783d10e083223",
        "outcomes": {"codel": 116, "queue_full": 441, "served": 43},
        "shard_failures": (0, 0),
    },
    "plain_fixed_delay": {
        "breaker_skips": 0,
        "coverage": 1.0,
        "deadline_misses": 0,
        "failures": 0,
        "hedges": (0, 0),
        "latencies": "0bbfcaa99b130a98",
        "outcomes": {"served": 300},
        "shard_failures": (0, 0, 0, 0),
    },
    "quantile_hedging": {
        "breaker_skips": 0,
        "coverage": 1.0,
        "deadline_misses": 0,
        "failures": 0,
        "hedges": (84, 24),
        "latencies": "3cc95b39113b32ce",
        "outcomes": {"served": 400},
        "shard_failures": (0, 0),
    },
    "three_replicas_two_hedges": {
        "breaker_skips": 0,
        "coverage": 1.0,
        "deadline_misses": 0,
        "failures": 0,
        "hedges": (969, 25),
        "latencies": "4d5ca3e97c2a9340",
        "outcomes": {"served": 400},
        "shard_failures": (0, 0),
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert CASES[name]() == GOLDEN[name]
