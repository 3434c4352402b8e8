"""F29 — service-time prediction & deadline-aware scheduling.

Three questions, one calibrated predictor:

1. **Is service time predictable at admission?**  The predictor sees
   only dictionary-resident features (term count, summed posting-list
   lengths — no postings traversal) and is fitted/scored on disjoint
   query texts.  Gate: holdout MAPE <= 35%.
2. **Does prediction-aware routing help a mixed fleet?**  One big +
   three little replicas at the same offered load: demand-oblivious
   spray vs :class:`~repro.predict.scheduler.DeadlineScheduler`
   routing on *predicted* demand (true demand perturbed by the
   predictor's measured error model).  Gate: p99 cut >= 15% at equal
   energy (ratio <= 1.10).
3. **Does deadline-driven early termination move the fig6 crossover
   left?**  The big-vs-little partition sweep re-run with the DES
   mirror of the native BMW depth cap; the little server's qualifying
   partition count must not rise and must not be bought by discarding
   the workload (served work fraction >= 85% at the crossover point).
   How far it drops is reported, not gated: truncation cuts the
   per-posting work, and on a calibration where a fixed per-shard
   cost dominates there is little of that to cut (EXPERIMENTS.md).

Plus the parity contract: an ISN built with a routing-only scheduler
returns bit-identical hits to ``scheduler=None``, the depth-capped
BMW path actually truncates (``predict.depth_capped`` > 0) while
still filling the page, and the whole study is deterministic under a
fixed seed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.api import (
    BIG_SERVER,
    SMALL_SERVER,
    DeadlineScheduler,
    PoissonArrivals,
    WorkloadScenario,
    calibrate_predictor,
    compare_servers_vs_partitions_scheduled,
    crossover_partitions,
    format_table,
)
from repro.cluster.hetero import HeterogeneousConfig, run_heterogeneous_open_loop
from repro.engine.isn import IndexServingNode
from repro.obs.registry import MetricsRegistry

MAPE_GATE = 0.35
P99_CUT_GATE = 0.15
ENERGY_RATIO_GATE = 1.10
MIN_SERVED_FRACTION = 0.85

FLEET_PARTITIONS = 4
FLEET_NUM_LITTLE = 3
FLEET_LONG_QUANTILE = 0.88
SEED = 29_29

FULL = dict(
    calibration_queries=150,
    calibration_repeats=3,
    fleet_queries=4_000,
    sweep_queries=4_000,
    partitions=(1, 2, 4, 8, 16),
    identity_queries=30,
)
QUICK = dict(
    calibration_queries=100,
    calibration_repeats=2,
    fleet_queries=2_000,
    sweep_queries=2_000,
    partitions=(1, 2, 4, 8),
    identity_queries=15,
)


# ----------------------------------------------------------------------
# Study pieces.


def _fleet_deadline(demand_model, partitioning) -> float:
    """Deadline for the mixed-fleet study, derived from the workload.

    The time an idle little server needs for the query at the
    ``FLEET_LONG_QUANTILE`` of demand: the longest eighth of the
    workload is predicted to miss it there and must overflow to the
    big server, the bulk still fits the littles.  A quantile, not a
    fraction of the p99 demand: the share of queries it selects does
    not depend on how dispersed the fitted demand is.
    """
    probe = demand_model.demands(2_000, np.random.default_rng(9))
    long_demand = float(np.quantile(probe, FLEET_LONG_QUANTILE))
    parallelism = min(SMALL_SERVER.num_cores, partitioning.num_partitions)
    return partitioning.total_work(long_demand) / (
        SMALL_SERVER.core_speed * parallelism
    )


def _fleet_study(demand_model, cost_model, predictor, params):
    """Spray vs predicted-demand routing on the 1-big/3-little fleet."""
    partitioning = replace(cost_model, num_partitions=FLEET_PARTITIONS)
    mean_work = partitioning.total_work(demand_model.mean_demand())
    fleet_capacity = (
        BIG_SERVER.compute_capacity
        + FLEET_NUM_LITTLE * SMALL_SERVER.compute_capacity
    ) / mean_work
    rate = 0.45 * fleet_capacity
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate),
        demands=demand_model,
        num_queries=params["fleet_queries"],
    )
    deadline = _fleet_deadline(demand_model, partitioning)

    def fleet(scheduler):
        return HeterogeneousConfig(
            big_spec=BIG_SERVER,
            num_big=1,
            little_spec=SMALL_SERVER,
            num_little=FLEET_NUM_LITTLE,
            partitioning=partitioning,
            scheduler=scheduler,
        )

    scheduler = DeadlineScheduler(predictor=predictor, deadline_s=deadline)
    rows = []
    for label, config in (
        ("spray", fleet(None)),
        ("predicted", fleet(scheduler)),
    ):
        result = run_heterogeneous_open_loop(config, scenario, seed=SEED)
        summary = result.summary(warmup_fraction=0.1)
        rows.append(
            {
                "router": label,
                "p50_s": summary.p50,
                "p99_s": summary.p99,
                "energy_j": result.energy_per_query_joules(),
                "routed_big": result.routed_to_big,
                "routed_little": result.routed_to_little,
            }
        )
    spray, predicted = rows
    return {
        "rate_qps": rate,
        "deadline_s": deadline,
        "rows": rows,
        "p99_cut": 1.0 - predicted["p99_s"] / spray["p99_s"],
        "energy_ratio": predicted["energy_j"] / spray["energy_j"],
    }


def _crossover_study(demand_model, cost_model, predictor, params):
    """The fig6 sweep with and without deadline-capped early termination."""
    partitions = list(params["partitions"])
    base = replace(cost_model, num_partitions=1)
    small_capacity = SMALL_SERVER.compute_capacity / base.total_work(
        demand_model.mean_demand()
    )
    rate = 0.3 * small_capacity
    common = dict(
        demands=demand_model,
        partition_counts=partitions,
        rate_qps=rate,
        cost_model=cost_model,
        num_queries=params["sweep_queries"],
        seed=SEED,
    )
    plain = compare_servers_vs_partitions_scheduled(
        [BIG_SERVER, SMALL_SERVER], scheduler=None, **common
    )
    big1 = next(
        p
        for p in plain
        if p.server_name == BIG_SERVER.name and p.num_partitions == 1
    )
    # QoS bar: within 30% of the big server's 1-partition p99, floored
    # just above the little server's own best plain point so the
    # unscheduled sweep always qualifies *somewhere* — the study then
    # measures where, not whether.  The deadline equals the big-server
    # p99 ("finish about when the big server would") and truncation
    # keeps >= 25% of any query's work.
    best_little = min(
        p.summary.p99
        for p in plain
        if p.server_name == SMALL_SERVER.name
    )
    target = max(1.3 * big1.summary.p99, 1.05 * best_little)
    deadline = big1.summary.p99
    scheduler = DeadlineScheduler(
        predictor=predictor,
        deadline_s=deadline,
        depth_from_budget=True,
        min_depth_fraction=0.25,
    )
    scheduled = compare_servers_vs_partitions_scheduled(
        [BIG_SERVER, SMALL_SERVER], scheduler=scheduler, **common
    )
    crossover_without = crossover_partitions(plain, SMALL_SERVER.name, target)
    crossover_with = crossover_partitions(
        scheduled,
        SMALL_SERVER.name,
        target,
        min_served_fraction=MIN_SERVED_FRACTION,
    )
    return {
        "rate_qps": rate,
        "p99_target_s": target,
        "deadline_s": deadline,
        "plain": [
            {
                "server": p.server_name,
                "partitions": p.num_partitions,
                "p99_s": p.summary.p99,
                "served_fraction": p.served_fraction,
            }
            for p in plain
        ],
        "scheduled": [
            {
                "server": p.server_name,
                "partitions": p.num_partitions,
                "p99_s": p.summary.p99,
                "served_fraction": p.served_fraction,
            }
            for p in scheduled
        ],
        "crossover_without": crossover_without,
        "crossover_with": crossover_with,
        # Partitions saved by early termination (None when either
        # sweep never qualifies); reported, the gate is "not negative".
        "crossover_shift": (
            None
            if crossover_without is None or crossover_with is None
            else crossover_without - crossover_with
        ),
    }


def _native_parity(service, predictor, params):
    """Routing-only scheduler must not change a single hit; the
    depth-capped BMW path must truncate yet still fill pages."""
    texts = [q.text for q in list(service.query_log)[: params["identity_queries"]]]
    baseline = [service.isn.execute(text, k=10) for text in texts]

    median_predicted = float(
        np.median(
            [predictor.predict(f) for f in params["holdout_features"]]
        )
    )
    routing_only = IndexServingNode(
        service.partitioned,
        scheduler=DeadlineScheduler(
            predictor=predictor,
            long_query_threshold_s=max(median_predicted, 1e-9),
        ),
    )
    try:
        routed = [routing_only.execute(text, k=10) for text in texts]
    finally:
        routing_only.close()
    identical = all(
        [(h.doc_id, h.score) for h in a.hits]
        == [(h.doc_id, h.score) for h in b.hits]
        for a, b in zip(baseline, routed)
    )

    metrics = MetricsRegistry()
    capped_isn = IndexServingNode(
        service.partitioned,
        algorithm="block_max_wand",
        scheduler=DeadlineScheduler(
            predictor=predictor,
            deadline_s=max(median_predicted, 1e-6),
            depth_from_budget=True,
            min_depth_fraction=0.05,
        ),
        metrics=metrics,
    )
    try:
        capped_pages = [capped_isn.execute(text, k=10) for text in texts]
    finally:
        capped_isn.close()
    return {
        "identity_queries": len(texts),
        "routing_only_identical": identical,
        "depth_capped_queries": metrics.counter("predict.depth_capped").value,
        "capped_pages_with_hits": sum(
            1 for page in capped_pages if len(page.hits) > 0
        ),
    }


def _run_study(service, demand_model, cost_model, params):
    calibration = calibrate_predictor(
        service.isn,
        service.query_log,
        num_queries=params["calibration_queries"],
        repeats=params["calibration_repeats"],
        seed=0,
    )
    predictor = calibration.predictor
    fleet = _fleet_study(demand_model, cost_model, predictor, params)
    crossover = _crossover_study(demand_model, cost_model, predictor, params)
    parity = _native_parity(
        service,
        predictor,
        {**params, "holdout_features": calibration.holdout_features},
    )
    return {
        "figure": "fig29",
        "seed": SEED,
        "predictor": {
            "base_s": predictor.base_seconds,
            "per_term_s": predictor.per_term_seconds,
            "per_posting_s": predictor.per_posting_seconds,
            "residual_log_sigma": predictor.residual_log_sigma,
            "train_mape": calibration.train_mape,
            "holdout_mape": calibration.holdout_mape,
            "num_train": calibration.num_train,
            "num_holdout": calibration.num_holdout,
        },
        "fleet": fleet,
        "crossover": crossover,
        "parity": parity,
    }


def _format_study(study) -> str:
    predictor = study["predictor"]
    fleet = study["fleet"]
    crossover = study["crossover"]
    parity = study["parity"]
    tables = [
        format_table(
            ["quantity", "value"],
            [
                ["holdout MAPE (%)", predictor["holdout_mape"] * 100],
                ["train MAPE (%)", predictor["train_mape"] * 100],
                ["residual log-sigma", predictor["residual_log_sigma"]],
                ["per posting (ns)", predictor["per_posting_s"] * 1e9],
                ["holdout n", predictor["num_holdout"]],
            ],
            title="F29a: admission-time service-time prediction",
        ),
        format_table(
            ["router", "p50_ms", "p99_ms", "J/query", "big", "little"],
            [
                [
                    row["router"],
                    row["p50_s"] * 1000,
                    row["p99_s"] * 1000,
                    row["energy_j"],
                    row["routed_big"],
                    row["routed_little"],
                ]
                for row in fleet["rows"]
            ],
            title=(
                f"F29b: mixed fleet (1 big + {FLEET_NUM_LITTLE} little) at "
                f"{fleet['rate_qps']:.0f} qps, deadline "
                f"{fleet['deadline_s'] * 1000:.1f} ms — p99 cut "
                f"{fleet['p99_cut']:+.1%}, energy ratio "
                f"{fleet['energy_ratio']:.3f}"
            ),
        ),
        format_table(
            ["server", "P", "plain p99 (ms)", "sched p99 (ms)", "served"],
            [
                [
                    plain["server"],
                    plain["partitions"],
                    plain["p99_s"] * 1000,
                    sched["p99_s"] * 1000,
                    sched["served_fraction"],
                ]
                for plain, sched in zip(
                    crossover["plain"], crossover["scheduled"]
                )
            ],
            title=(
                f"F29c: fig6 crossover with deadline-capped early "
                f"termination (target p99 <= "
                f"{crossover['p99_target_s'] * 1000:.1f} ms) — little "
                f"crossover {crossover['crossover_without']} -> "
                f"{crossover['crossover_with']} partitions (shift "
                f"{crossover['crossover_shift']})"
            ),
        ),
        format_table(
            ["check", "value"],
            [
                [
                    "routing-only hits identical",
                    parity["routing_only_identical"],
                ],
                ["depth-capped queries", parity["depth_capped_queries"]],
                [
                    "capped pages with hits",
                    f"{parity['capped_pages_with_hits']}"
                    f"/{parity['identity_queries']}",
                ],
            ],
            title="F29d: native parity & truncation",
        ),
    ]
    return "\n\n".join(tables)


def _check(study) -> None:
    """The acceptance assertions, at full and ``--quick`` size alike."""
    predictor = study["predictor"]
    assert predictor["holdout_mape"] <= MAPE_GATE, (
        f"holdout MAPE {predictor['holdout_mape']:.1%} exceeds the "
        f"{MAPE_GATE:.0%} gate — admission-time features no longer "
        "predict service time"
    )
    fleet = study["fleet"]
    assert fleet["p99_cut"] >= P99_CUT_GATE, (
        f"prediction-aware routing cut p99 by only {fleet['p99_cut']:.1%} "
        f"(gate {P99_CUT_GATE:.0%}) vs demand-oblivious spray"
    )
    assert fleet["energy_ratio"] <= ENERGY_RATIO_GATE, (
        f"routing win is not at equal energy: ratio "
        f"{fleet['energy_ratio']:.3f} > {ENERGY_RATIO_GATE}"
    )
    crossover = study["crossover"]
    assert crossover["crossover_without"] is not None, (
        "plain little server never met the p99 target — the sweep's "
        "load point is mis-tuned"
    )
    assert crossover["crossover_with"] is not None, (
        "scheduled little server never met the p99 target with served "
        f"fraction >= {MIN_SERVED_FRACTION}"
    )
    assert crossover["crossover_with"] <= crossover["crossover_without"], (
        f"early termination moved the crossover right: "
        f"{crossover['crossover_with']} vs "
        f"{crossover['crossover_without']} partitions"
    )
    parity = study["parity"]
    assert parity["routing_only_identical"], (
        "a routing-only scheduler changed native hits — it must be "
        "bit-identical to scheduler=None"
    )
    assert parity["depth_capped_queries"] > 0, (
        "the depth-capped BMW configuration never truncated a query"
    )
    assert (
        parity["capped_pages_with_hits"] == parity["identity_queries"]
    ), "depth-capped pages must still return hits"


def _check_deterministic(demand_model, cost_model, predictor, params) -> None:
    """Same seed → identical fleet and crossover results."""
    first = _fleet_study(demand_model, cost_model, predictor, params)
    second = _fleet_study(demand_model, cost_model, predictor, params)
    assert first == second, "fleet study must be deterministic"
    first = _crossover_study(demand_model, cost_model, predictor, params)
    second = _crossover_study(demand_model, cost_model, predictor, params)
    assert first == second, "crossover study must be deterministic"


def test_fig29_prediction_scheduling(
    benchmark, service, demand_model, cost_model, emit, quick
):
    params = QUICK if quick else FULL
    study = benchmark.pedantic(
        lambda: _run_study(service, demand_model, cost_model, params),
        rounds=1,
        iterations=1,
    )
    emit("fig29_prediction_scheduling", _format_study(study), data=study)
    _check(study)


def test_fig29_deterministic(service, demand_model, cost_model):
    calibration = calibrate_predictor(
        service.isn,
        service.query_log,
        num_queries=QUICK["calibration_queries"],
        repeats=1,
        seed=0,
    )
    _check_deterministic(
        demand_model, cost_model, calibration.predictor, QUICK
    )
