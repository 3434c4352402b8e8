"""F27 — Capacity-model-driven autoscaling under diurnal + flash traffic.

The provisioning table (T3) sizes a *static* fleet; this figure asks
what that static sizing costs against traffic that spends most of the
day far below peak.  A compressed diurnal day (raised-cosine envelope)
with a flash crowd plays against three provisioning policies over the
identical arrival trace:

- **static** — peak provisioning from the analytical capacity model:
  enough replicas for the worst minute, held all day (the baseline an
  autoscaler must beat);
- **reactive** — classic utilization target-tracking, which sees load
  only after it arrives and so trails every ramp by the warm-up time;
- **model** — predict-ahead: extrapolate the observed arrival rate one
  replica warm-up into the future and ask the capacity model for the
  replica count whose *predicted p99* meets the SLO at that rate.

Acceptance contract (mirrors ISSUE criteria):

- the capacity model's p99 stays within 15% of the DES across a
  below-knee load sweep (1 and 2 replicas);
- model-driven autoscaling meets the p99 SLO (>= 99% of offered
  queries inside it, sheds counted as misses) with >= 20% fewer
  replica-hours than static peak provisioning;
- the whole study is deterministic under a fixed seed.

The 25%-tolerance validation against the *native* engine (measured
M/G/1 p99 via :class:`~repro.engine.driver.OpenLoopDriver`) is its own
test: it executes real queries on the benchmark instance, at one size,
and is skipped under ``--quick`` so the CI smoke stays DES-only and
exactly reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    CapacityModel,
    ClusterConfig,
    ClusterModel,
    DiurnalArrivals,
    FlashCrowd,
    LognormalDemand,
    OverloadPolicy,
    ServerSpec,
    ServiceTimeProfile,
    format_table,
    peak_replicas,
    static_replica_hours,
)
from repro.sim.autoscale import (
    AutoscaleConfig,
    ModelPolicy,
    ReactivePolicy,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.sim.random import RandomStreams

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)  # mean ~14 ms, heavy tail

#: A deliberately small node so replica counts (not raw QPS) carry the
#: dynamics: ~69 qps of per-replica capacity at this demand.
SPEC = ServerSpec(
    name="autoscale-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)

SLO_S = 0.180
SEED = 20_26

#: Compressed "day" for the full study and the CI smoke.
FULL = dict(horizon_s=3_600.0, base_qps=40.0, peak_qps=300.0)
QUICK = dict(horizon_s=1_800.0, base_qps=8.0, peak_qps=110.0)

#: Below-knee fractions of saturation for the model-vs-DES sweep.
#: 0.7 is the top: past it the DES p99 estimate itself swings +-10%
#: between seeds (busy-period luck), drowning the model bias.
VALIDATION_LOADS = (0.3, 0.5, 0.6, 0.7)
DES_TOLERANCE = 0.15
NATIVE_TOLERANCE = 0.25

#: PR 3 admission control in front of the broker: a transient that
#: outruns even predict-ahead scaling degrades by bounded shedding.
OVERLOAD = OverloadPolicy(
    max_concurrency=600,
    queue_limit=300,
    codel_target_delay_s=0.05,
    codel_interval_s=0.1,
)


def _capacity_model() -> CapacityModel:
    profile = ServiceTimeProfile.from_demand_model(DEMAND)
    return CapacityModel(profile=profile, spec=SPEC)


def _arrivals(horizon_s: float, base_qps: float, peak_qps: float):
    """The diurnal + flash-crowd envelope for one compressed day."""
    return DiurnalArrivals(
        base_qps=base_qps,
        peak_qps=peak_qps,
        period_s=horizon_s,
        peak_time_s=0.6 * horizon_s,
        flash_crowds=(
            FlashCrowd(
                start_s=0.3 * horizon_s,
                magnitude=1.8,
                ramp_s=0.05 * horizon_s,
                hold_s=0.067 * horizon_s,
                decay_s=0.083 * horizon_s,
            ),
        ),
    )


def _autoscale_config(initial: int, static_n: int) -> AutoscaleConfig:
    return AutoscaleConfig(
        spec=SPEC,
        shards=1,
        initial_replicas=initial,
        min_replicas=1,
        max_replicas=max(12, static_n),
        warmup_s=90.0,
        control_interval_s=30.0,
        scale_down_cooldown_s=180.0,
        scale_down_stability=3,
        overload=OVERLOAD,
    )


def _realize(arrivals, horizon_s: float, seed: int = SEED):
    """One common trace every policy replays (common random numbers)."""
    streams = RandomStreams(seed)
    times = arrivals.realize_trace(horizon_s, streams.stream("arrivals"))
    demands = DEMAND.demands(times.size, streams.stream("demands"))
    return times, demands


def _policy_suite(model: CapacityModel, arrivals, horizon_s: float):
    """(policy, initial_replicas) for static / reactive / model."""
    static_n = peak_replicas(
        model, arrivals, SLO_S, horizon_s=horizon_s, headroom=1.1
    )
    start_qps = float(arrivals.envelope_qps(0.0)) * 1.15
    dynamic_start = model.replicas_for_slo(start_qps, SLO_S)
    lookahead = 90.0 + 30.0  # warm-up + one control interval
    return static_n, [
        (StaticPolicy(static_n), static_n),
        (ReactivePolicy(target_utilization=0.55), dynamic_start),
        (
            ModelPolicy(
                model, SLO_S, lookahead_s=lookahead, headroom=1.15
            ),
            dynamic_start,
        ),
    ]


def _run_policies(params, seed: int = SEED):
    model = _capacity_model()
    arrivals = _arrivals(**params)
    horizon = params["horizon_s"]
    times, demands = _realize(arrivals, horizon, seed)
    static_n, suite = _policy_suite(model, arrivals, horizon)
    rows = []
    for policy, initial in suite:
        config = _autoscale_config(initial, static_n)
        result = run_autoscaled_cluster(
            config, policy, times, demands, horizon_s=horizon, seed=seed
        )
        latencies = result.latencies()
        rows.append(
            {
                "policy": policy.name,
                "replica_hours": result.replica_hours(),
                "static_hours": static_replica_hours(static_n, horizon),
                "p50": float(np.quantile(latencies, 0.50)),
                "p99": float(np.quantile(latencies, 0.99)),
                "attainment": result.slo_attainment(SLO_S),
                "shed": result.shed_count,
                "scale_ups": result.scale_up_events,
                "scale_downs": result.scale_down_events,
                "max_replicas": result.max_provisioned(),
                "queries": len(result.records),
            }
        )
    return static_n, rows


def _validate_vs_des(num_queries: int, replica_counts=(1, 2)):
    """Model p99 vs DES p99 across a below-knee load sweep.

    Each point pools latencies from four independently seeded DES
    runs: near the knee a single run's p99 swings +-20% with the luck
    of its longest busy period, which would drown the model bias the
    sweep is meant to bound.
    """
    model = _capacity_model()
    points = []
    for replicas in replica_counts:
        saturation = model.saturation_qps(1, replicas)
        for fraction in VALIDATION_LOADS:
            qps = saturation * fraction
            predicted = model.predict(qps, shards=1, replicas=replicas)
            config = ClusterConfig(
                num_servers=1, spec=SPEC, replicas_per_shard=replicas
            )
            pooled = [
                ClusterModel(config)
                .run(
                    rate_qps=qps,
                    num_queries=num_queries,
                    demand=DEMAND,
                    seed=SEED + offset,
                )
                .latencies(0.05)
                for offset in range(4)
            ]
            des_p99 = float(np.quantile(np.concatenate(pooled), 0.99))
            points.append(
                {
                    "replicas": replicas,
                    "load_fraction": fraction,
                    "qps": qps,
                    "model_p99": predicted.p99_s,
                    "des_p99": des_p99,
                    "rel_error": (predicted.p99_s - des_p99) / des_p99,
                }
            )
    return points


def _format_validation(points):
    return format_table(
        ["replicas", "load_x", "qps", "model_p99_ms", "des_p99_ms", "err_pct"],
        [
            [
                p["replicas"],
                p["load_fraction"],
                p["qps"],
                p["model_p99"] * 1000,
                p["des_p99"] * 1000,
                p["rel_error"] * 100,
            ]
            for p in points
        ],
        title="F27a: capacity-model p99 vs DES (below-knee sweep)",
    )


def _format_policies(static_n, rows, params):
    return format_table(
        [
            "policy",
            "replica_hrs",
            "saving_pct",
            "p50_ms",
            "p99_ms",
            "slo_attain",
            "shed",
            "ups",
            "downs",
            "max_rep",
        ],
        [
            [
                row["policy"],
                row["replica_hours"],
                100.0 * (1.0 - row["replica_hours"] / row["static_hours"]),
                row["p50"] * 1000,
                row["p99"] * 1000,
                row["attainment"],
                row["shed"],
                row["scale_ups"],
                row["scale_downs"],
                row["max_replicas"],
            ]
            for row in rows
        ],
        title=(
            f"F27b: autoscaling over a {params['horizon_s'] / 3600:.2f}h "
            f"diurnal+flash day (SLO p99 <= {SLO_S * 1000:.0f} ms, "
            f"static = {static_n} replicas)"
        ),
    )


def _bench_data(static_n, rows, validation, params):
    by_policy = {row["policy"]: row for row in rows}
    model_row = by_policy["model"]
    return {
        "figure": "fig27",
        "slo_ms": SLO_S * 1000,
        "horizon_s": params["horizon_s"],
        "static_replicas": static_n,
        "policies": rows,
        "savings_pct": 100.0
        * (1.0 - model_row["replica_hours"] / model_row["static_hours"]),
        "model_vs_des_max_err_pct": 100.0
        * max(abs(p["rel_error"]) for p in validation),
        "seed": SEED,
    }


def _check(static_n, rows, validation) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    worst = max(abs(p["rel_error"]) for p in validation)
    assert worst <= DES_TOLERANCE, (
        f"capacity model must track the DES p99 within "
        f"{DES_TOLERANCE:.0%} below the knee; worst error {worst:.1%}"
    )
    by_policy = {row["policy"]: row for row in rows}
    static = by_policy["static"]
    model = by_policy["model"]
    assert static["attainment"] >= 0.99, (
        f"static peak provisioning must meet the SLO "
        f"(attainment {static['attainment']:.4f})"
    )
    assert model["attainment"] >= 0.99, (
        f"model-driven autoscaling must meet the SLO "
        f"(attainment {model['attainment']:.4f})"
    )
    assert model["replica_hours"] <= 0.8 * static["replica_hours"], (
        f"model-driven autoscaling must save >= 20% replica-hours: "
        f"{model['replica_hours']:.2f} vs static "
        f"{static['replica_hours']:.2f}"
    )


def _check_deterministic(params) -> None:
    """Same seed → bit-identical trace, latencies, and replica-hours."""
    first_static, first = _run_policies(params)
    second_static, second = _run_policies(params)
    assert first_static == second_static
    assert first == second, "autoscaling study must be deterministic"


def test_fig27_autoscaling(benchmark, emit, quick):
    params = QUICK if quick else FULL

    def _study():
        validation = _validate_vs_des(num_queries=6_000 if quick else 25_000)
        static_n, rows = _run_policies(params)
        return static_n, rows, validation

    static_n, rows, validation = benchmark.pedantic(
        _study, rounds=1, iterations=1
    )
    emit(
        "fig27_autoscaling",
        _format_validation(validation)
        + "\n\n"
        + _format_policies(static_n, rows, params),
        data=_bench_data(static_n, rows, validation, params),
    )
    _check(static_n, rows, validation)


def test_fig27_deterministic():
    _check_deterministic(QUICK)


def test_fig27_native_validation(service, quick):
    """Model p99 within 25% of the native-path M/G/1 p99.

    One median-of-3 native measurement pass yields the service-time
    sample; the "measured" side is then the *exact* FCFS sample path —
    the same Lindley recursion ``OpenLoopDriver(mode="replay")`` runs —
    over those natively measured services under pooled independent
    Poisson arrival sequences.  Sharing the sample between the two
    sides is deliberate: the model's queueing layer (Erlang-C wait
    probability, Allen–Cunneen mean, exponential conditional wait) is
    what is under test, and a second measurement pass would only add
    box-speed drift *between* passes — which on a shared single-core
    runner routinely exceeds the modelling error being gated.
    """
    if quick:
        pytest.skip("live native measurement; the smoke is DES-only")
    from repro.capacity import CapacityModel, ServiceTimeProfile
    from repro.cluster.server import PartitionModelConfig
    from repro.engine.driver import replay_serial

    rng = np.random.default_rng(3)
    profile_queries = service.query_log.sample_stream(1_000, rng)
    measured = replay_serial(
        service.isn, profile_queries, repeats=3, warmup=10
    )
    service_s = np.asarray(
        [m.service_seconds for m in measured], dtype=np.float64
    )
    profile = ServiceTimeProfile.from_measurements(service_s)
    # Measured service times already include every native overhead, so
    # the model's cost layer must stay flat (total_work == demand).
    model = CapacityModel(
        profile=profile,
        spec=ServerSpec(
            name="native-core",
            num_cores=1,
            core_speed=1.0,
            idle_power_watts=1.0,
            peak_power_watts=2.0,
        ),
        partitioning=PartitionModelConfig(
            partition_overhead=0.0, merge_base=0.0, merge_per_partition=0.0
        ),
        broker_merge_per_server=0.0,
    )
    saturation = model.saturation_qps(1, 1)

    def fcfs_p99(qps, seed):
        """Lindley recursion over the measured services — identical to
        ``OpenLoopDriver._run_replay``'s wait derivation."""
        gaps = np.random.default_rng(seed).exponential(
            1.0 / qps, service_s.size
        )
        wait = 0.0
        latencies = np.empty_like(service_s)
        latencies[0] = service_s[0]
        for i in range(1, service_s.size):
            wait = max(0.0, wait + service_s[i - 1] - gaps[i])
            latencies[i] = wait + service_s[i]
        return latencies

    errors = {}
    for fraction in (0.25, 0.4, 0.55, 0.65):
        qps = saturation * fraction
        predicted = model.predict(qps)
        pooled = np.concatenate(
            [fcfs_p99(qps, seed) for seed in (0, 1, 2, 3)]
        )
        native_p99 = float(np.quantile(pooled, 0.99))
        errors[fraction] = (predicted.p99_s - native_p99) / native_p99
    worst = max(abs(e) for e in errors.values())
    assert worst <= NATIVE_TOLERANCE, (
        f"capacity model must track measured native p99 within "
        f"{NATIVE_TOLERANCE:.0%} below the knee; errors {errors}"
    )
