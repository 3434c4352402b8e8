"""F28 — SLO attainment under replica failures: naive vs N+k sizing.

The provisioning studies so far size replica fleets for *load*; this
figure asks what happens when replicas also *die*.  A steady Poisson
stream plays against a fleet whose replicas crash and recover under a
seeded MTTF/MTTR alternating-renewal process
(:class:`repro.sim.failures.MttfMttrFailures`): a crash fails every
query in flight on the replica (typed, counted as SLO misses), removes
it from the dispatchable set, and the replacement rejoins only after
the warm-up — exactly the failure semantics the DES autoscaler serves.

Two static sizings run over the identical arrival/demand/failure
trace (common random numbers):

- **naive** — ``replicas_for_slo(qps, slo)``: enough replicas for the
  load, assuming they never fail;
- **n_plus_k** — ``replicas_for_slo(qps, slo, mttf_s=…, mttr_s=…)``:
  the availability-aware sizing, which finds the smallest fleet whose
  *expected* attainment — binomial over up-replicas at steady-state
  availability MTTF/(MTTF+MTTR), degraded-capacity attainment per
  survivor count, first-order in-flight crash loss — meets the target.

Acceptance contract (mirrors ISSUE criteria):

- with failures on, the naive sizing measurably violates the SLO
  (attainment < 0.985) while the N+k sizing keeps attainment >= 0.99;
- with failures off, the naive sizing meets the SLO (the violation is
  caused by failures, not by under-provisioning for load);
- the whole study is deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.api import (
    CapacityModel,
    LognormalDemand,
    ServerSpec,
    ServiceTimeProfile,
    format_table,
)
from repro.sim.autoscale import (
    AutoscaleConfig,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.sim.failures import MttfMttrFailures, steady_state_availability
from repro.sim.random import RandomStreams

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)  # mean ~14 ms, heavy tail

#: Same deliberately small node as F27: ~69 qps per replica at this
#: demand, so replica counts (not raw QPS) carry the dynamics.
SPEC = ServerSpec(
    name="failures-node",
    num_cores=2,
    core_speed=0.5,
    idle_power_watts=30.0,
    peak_power_watts=90.0,
)

SLO_S = 0.180
RATE_QPS = 120.0
SEED = 20_27

#: Aggressive but plausible compressed fault regime: availability 0.75
#: per replica, so a load-only sizing spends a quarter of the run
#: degraded or worse.
MTTF_S = 150.0
MTTR_S = 50.0
ATTAINMENT_TARGET = 0.99

FULL = dict(horizon_s=900.0)
QUICK = dict(horizon_s=450.0)

WARMUP_S = 20.0


def _capacity_model() -> CapacityModel:
    profile = ServiceTimeProfile.from_demand_model(DEMAND)
    return CapacityModel(profile=profile, spec=SPEC)


def _sizings(model: CapacityModel):
    """(naive, n_plus_k) replica counts for the study's load point."""
    naive = model.replicas_for_slo(RATE_QPS, SLO_S)
    planned = model.replicas_for_slo(
        RATE_QPS,
        SLO_S,
        mttf_s=MTTF_S,
        mttr_s=MTTR_S,
        attainment_target=ATTAINMENT_TARGET,
    )
    return naive, planned


def _realize(horizon_s: float, seed: int = SEED):
    """One common arrival/demand trace every sizing replays."""
    streams = RandomStreams(seed)
    rng = streams.stream("arrivals")
    gaps = rng.exponential(
        1.0 / RATE_QPS, size=int(RATE_QPS * horizon_s * 1.3) + 16
    )
    times = np.cumsum(gaps)
    times = times[times < horizon_s]
    demands = DEMAND.demands(times.size, streams.stream("demands"))
    return times, demands


def _autoscale_config(replicas: int, failures) -> AutoscaleConfig:
    return AutoscaleConfig(
        spec=SPEC,
        shards=1,
        initial_replicas=replicas,
        min_replicas=replicas,
        max_replicas=replicas,
        warmup_s=WARMUP_S,
        failures=failures,
    )


def _run_sizings(params, seed: int = SEED):
    model = _capacity_model()
    naive_n, planned_n = _sizings(model)
    horizon = params["horizon_s"]
    times, demands = _realize(horizon, seed)
    failure_model = MttfMttrFailures(mttf_s=MTTF_S, mttr_s=MTTR_S)
    suite = [
        ("naive-no-failures", naive_n, None),
        ("naive", naive_n, failure_model),
        ("n_plus_k", planned_n, failure_model),
    ]
    rows = []
    for label, replicas, failures in suite:
        result = run_autoscaled_cluster(
            _autoscale_config(replicas, failures),
            StaticPolicy(replicas),
            times,
            demands,
            horizon_s=horizon,
            seed=seed,
        )
        latencies = result.latencies()
        rows.append(
            {
                "sizing": label,
                "replicas": replicas,
                "attainment": result.slo_attainment(SLO_S),
                "p50": float(np.quantile(latencies, 0.50)),
                "p99": float(np.quantile(latencies, 0.99)),
                "crashes": result.replica_crashes,
                "recoveries": result.replica_recoveries,
                "failed": result.failed_count,
                "shed": result.shed_count,
                "queries": len(result.records),
            }
        )
    expected = {
        "naive": model.expected_slo_attainment(
            RATE_QPS, SLO_S, 1, naive_n, MTTF_S, MTTR_S
        ),
        "n_plus_k": model.expected_slo_attainment(
            RATE_QPS, SLO_S, 1, planned_n, MTTF_S, MTTR_S
        ),
    }
    return naive_n, planned_n, rows, expected


def _format_rows(naive_n, planned_n, rows, params):
    availability = steady_state_availability(MTTF_S, MTTR_S)
    return format_table(
        [
            "sizing",
            "replicas",
            "slo_attain",
            "p50_ms",
            "p99_ms",
            "crashes",
            "recoveries",
            "failed",
            "queries",
        ],
        [
            [
                row["sizing"],
                row["replicas"],
                row["attainment"],
                row["p50"] * 1000,
                row["p99"] * 1000,
                row["crashes"],
                row["recoveries"],
                row["failed"],
                row["queries"],
            ]
            for row in rows
        ],
        title=(
            f"F28: SLO attainment under replica failures "
            f"({params['horizon_s']:.0f}s at {RATE_QPS:.0f} qps, "
            f"MTTF {MTTF_S:.0f}s / MTTR {MTTR_S:.0f}s, "
            f"availability {availability:.2f}, "
            f"SLO p99 <= {SLO_S * 1000:.0f} ms)"
        ),
    )


def _bench_data(naive_n, planned_n, rows, expected, params):
    return {
        "figure": "fig28",
        "slo_ms": SLO_S * 1000,
        "rate_qps": RATE_QPS,
        "horizon_s": params["horizon_s"],
        "mttf_s": MTTF_S,
        "mttr_s": MTTR_S,
        "availability": steady_state_availability(MTTF_S, MTTR_S),
        "naive_replicas": naive_n,
        "n_plus_k_replicas": planned_n,
        "expected_attainment": expected,
        "sizings": rows,
        "seed": SEED,
    }


def _check(naive_n, planned_n, rows) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    assert planned_n > naive_n, (
        f"availability-aware planning must add spares: "
        f"{planned_n} vs naive {naive_n}"
    )
    by_sizing = {row["sizing"]: row for row in rows}
    no_failures = by_sizing["naive-no-failures"]
    naive = by_sizing["naive"]
    planned = by_sizing["n_plus_k"]
    assert no_failures["attainment"] >= ATTAINMENT_TARGET, (
        f"naive sizing must meet the SLO without failures "
        f"(attainment {no_failures['attainment']:.4f}) — otherwise the "
        "violation below would be mis-attributed to load"
    )
    assert naive["attainment"] < 0.985, (
        f"naive sizing must measurably violate the SLO under failures "
        f"(attainment {naive['attainment']:.4f})"
    )
    assert planned["attainment"] >= ATTAINMENT_TARGET, (
        f"N+k sizing must keep the SLO under failures "
        f"(attainment {planned['attainment']:.4f})"
    )


def _check_deterministic(params) -> None:
    """Same seed → bit-identical failures, latencies, and counts."""
    first = _run_sizings(params)
    second = _run_sizings(params)
    assert first == second, "replica-failure study must be deterministic"


def test_fig28_replica_failures(benchmark, emit, quick):
    params = QUICK if quick else FULL
    naive_n, planned_n, rows, expected = benchmark.pedantic(
        lambda: _run_sizings(params), rounds=1, iterations=1
    )
    emit(
        "fig28_replica_failures",
        _format_rows(naive_n, planned_n, rows, params),
        data=_bench_data(naive_n, planned_n, rows, expected, params),
    )
    _check(naive_n, planned_n, rows)


def test_fig28_deterministic():
    _check_deterministic(QUICK)
