"""Command-line interface: run the paper's studies from a shell.

``python -m repro <command>`` exposes the main studies with small,
fast default configurations:

- ``quickstart`` — build the benchmark and answer a few queries;
- ``characterize`` — service-time distribution (F1);
- ``partition-sweep`` — tail latency vs. partition count (F4);
- ``lowpower`` — big vs. low-power server comparison (F6);
- ``capacity`` — QoS-bounded max throughput vs. partitions (F5), or
  analytic replica sizing via ``--target-qps``/``--slo-ms`` (F27);
- ``cache`` — result-cache hit rates (F11a);
- ``profile-log`` — workload-side characterization of the query log;
- ``report`` — full Markdown characterization report;
- ``trace`` — run one query with tracing on and print its span tree;
- ``chaos`` — fault-injected simulated run under overload protection
  (``--dry-run`` prints the fault schedule without running);
- ``health`` — build a serving node, answer warm-up queries, and print
  its liveness snapshot (worker probes, respawns, breaker states);
- ``predict`` — calibrate the service-time predictor and demo
  prediction-aware big/little routing (F29).

Every command accepts ``--docs``/``--seed`` to scale and reseed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import (
    BIG_SERVER,
    EXECUTION_BACKENDS,
    SMALL_SERVER,
    CorpusConfig,
    EngineConfig,
    ExecutionConfig,
    HedgingPolicy,
    QueryLogConfig,
    SearchEngine,
    TraversalStrategy,
    VocabularyConfig,
    format_series,
    format_table,
)
from repro.core.calibration import (
    calibrate_isn,
    cost_model_from_calibration,
    demand_model_from_calibration,
)
from repro.core.capacity import capacity_vs_partitions
from repro.core.caching import hit_rate_vs_capacity
from repro.core.characterization import characterize_service_times
from repro.core.lowpower import compare_servers_vs_partitions
from repro.core.partitioning import run_partitioning_sweep

DEFAULT_PARTITIONS = (1, 2, 4, 8)


def _engine_config(
    args: argparse.Namespace,
    num_partitions: int = 1,
    hedging: Optional[HedgingPolicy] = None,
) -> EngineConfig:
    traversal = TraversalStrategy.coerce(
        getattr(args, "traversal", "exhaustive")
    )
    tiered = None
    tiered_cache_kib = getattr(args, "tiered_cache_kib", None)
    if tiered_cache_kib is not None:
        from repro.api import TieredStorageConfig

        tiered = TieredStorageConfig(
            cache_budget_bytes=int(tiered_cache_kib * 1024)
        )
    execution = None
    backend = getattr(args, "backend", None)
    workers = getattr(args, "workers", None)
    if backend is not None or workers is not None:
        execution = ExecutionConfig(
            backend=backend if backend is not None else "threads",
            workers=workers,
        )
    return EngineConfig(
        corpus=CorpusConfig(
            num_documents=args.docs,
            vocabulary=VocabularyConfig(size=max(2_000, args.docs * 5)),
            mean_length=150,
            seed=args.seed,
        ),
        query_log=QueryLogConfig(
            num_unique_queries=min(500, max(50, args.docs // 10)),
            seed=args.seed + 1,
        ),
        num_partitions=num_partitions,
        algorithm=traversal,
        execution=execution,
        hedging=hedging,
        tiered=tiered,
    )


def _build_engine(
    args: argparse.Namespace, num_partitions: int = 1
) -> SearchEngine:
    return SearchEngine(_engine_config(args, num_partitions))


def _calibrated_models(args: argparse.Namespace):
    with _build_engine(args) as engine:
        calibration = calibrate_isn(
            engine.isn, engine.query_log, num_queries=80, repeats=2,
            seed=args.seed,
        )
        demand = demand_model_from_calibration(
            calibration, engine.partitioned[0].index, engine.query_log
        )
    return demand, cost_model_from_calibration(calibration)


def cmd_quickstart(args: argparse.Namespace) -> int:
    with _build_engine(args, num_partitions=4) as engine:
        print(
            f"indexed {len(engine.collection)} documents "
            f"into 4 partitions"
        )
        for query in list(engine.query_log)[: args.queries]:
            response = engine.search(query.text, k=3)
            print(
                f"  {query.text!r}: {len(response.hits)} hits in "
                f"{response.latency_s * 1000:.2f} ms"
            )
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    with _build_engine(args) as engine:
        result = characterize_service_times(
            engine.isn, engine.query_log, num_queries=args.queries,
            seed=args.seed,
        )
    summary = result.summary.scaled(1000.0)
    print(
        format_table(
            ["statistic", "value"],
            [
                ["queries", summary.count],
                ["mean (ms)", summary.mean],
                ["p50 (ms)", summary.p50],
                ["p99 (ms)", summary.p99],
                ["p99/p50", result.tail_ratio],
                ["lognormal KS", result.lognormal.ks_distance],
                ["exponential KS", result.exponential.ks_distance],
            ],
            title="Service-time characterization",
        )
    )
    return 0


def cmd_partition_sweep(args: argparse.Namespace) -> int:
    demand, cost_model = _calibrated_models(args)
    capacity = BIG_SERVER.compute_capacity / cost_model.total_work(
        demand.mean_demand()
    )
    rate = args.load_fraction * capacity
    points = run_partitioning_sweep(
        BIG_SERVER, demand, list(args.partitions), rate,
        cost_model=cost_model, num_queries=args.sim_queries, seed=args.seed,
    )
    print(
        format_series(
            f"Latency vs partitions ({rate:.0f} qps)",
            "partitions",
            list(args.partitions),
            [
                ("p50_ms", [p.summary.p50 * 1000 for p in points]),
                ("p99_ms", [p.summary.p99 * 1000 for p in points]),
                ("util", [p.utilization for p in points]),
            ],
        )
    )
    return 0


def cmd_lowpower(args: argparse.Namespace) -> int:
    demand, cost_model = _calibrated_models(args)
    small_capacity = SMALL_SERVER.compute_capacity / cost_model.total_work(
        demand.mean_demand()
    )
    rate = args.load_fraction * small_capacity
    points = compare_servers_vs_partitions(
        [BIG_SERVER, SMALL_SERVER], demand, list(args.partitions), rate,
        cost_model=cost_model, num_queries=args.sim_queries, seed=args.seed,
    )
    series: dict = {}
    for point in points:
        series.setdefault(point.server_name, {})[point.num_partitions] = point
    print(
        format_series(
            f"p99 (ms) vs partitions at {rate:.0f} qps",
            "partitions",
            list(args.partitions),
            [
                (
                    name,
                    [
                        series[name][p].summary.p99 * 1000
                        for p in args.partitions
                    ],
                )
                for name in series
            ],
        )
    )
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    if args.target_qps is not None:
        return _cmd_capacity_plan(args)
    demand, cost_model = _calibrated_models(args)
    qos = args.qos_ms / 1000.0
    points = capacity_vs_partitions(
        BIG_SERVER, demand, list(args.partitions), qos,
        cost_model=cost_model, num_queries=args.sim_queries,
        tolerance_qps=max(
            2.0, 0.02 * BIG_SERVER.compute_capacity / demand.mean_demand()
        ),
        seed=args.seed,
    )
    print(
        format_table(
            ["partitions", "max_qps", "p99_at_max_ms"],
            [
                [p.num_partitions, p.max_qps, p.p99_at_max * 1000]
                for p in points
            ],
            title=f"Max throughput under p99 <= {args.qos_ms:.1f} ms",
        )
    )
    return 0


def _cmd_capacity_plan(args: argparse.Namespace) -> int:
    """Analytic sizing: replicas needed for a QPS target under an SLO."""
    from repro.api import CapacityModel, ServiceTimeProfile

    demand, cost_model = _calibrated_models(args)
    model = CapacityModel(
        profile=ServiceTimeProfile.from_demand_model(demand),
        spec=BIG_SERVER,
        partitioning=cost_model,
    )
    slo_s = args.slo_ms / 1000.0
    needed = model.replicas_for_slo(
        args.target_qps, slo_s, shards=args.shards
    )
    rows = []
    for replicas in range(1, needed + 1):
        p = model.predict(args.target_qps, shards=args.shards,
                          replicas=replicas)
        rows.append([
            replicas,
            round(p.utilization, 3),
            "yes" if p.stable else "no",
            round(p.p50_s * 1000, 1) if p.stable else "inf",
            round(p.p99_s * 1000, 1) if p.stable else "inf",
            "yes" if p.stable and p.p99_s <= slo_s else "no",
        ])
    print(
        format_table(
            ["replicas", "utilization", "stable", "p50_ms", "p99_ms",
             "meets_slo"],
            rows,
            title=(
                f"Capacity plan: {args.target_qps:.0f} qps across "
                f"{args.shards} shard(s) under p99 <= {args.slo_ms:.0f} ms "
                f"({BIG_SERVER.name})"
            ),
        )
    )
    print(f"provision {needed} replica(s) per shard")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    with _build_engine(args) as engine:
        log = engine.query_log
    capacities = [c for c in (10, 30, 100, 300) if c <= len(log)] or [10]
    rates = hit_rate_vs_capacity(log, capacities, seed=args.seed)
    print(
        format_series(
            f"LRU hit rate ({len(log)} unique queries)",
            "capacity",
            capacities,
            [("hit_rate", rates)],
        )
    )
    return 0


def cmd_profile_log(args: argparse.Namespace) -> int:
    from repro.corpus.loganalysis import profile_query_log

    with _build_engine(args) as engine:
        profile = profile_query_log(engine.query_log, stream_length=30_000,
                                    seed=args.seed)
    mix_rows = [
        [terms, round(share, 3)]
        for terms, share in sorted(profile.term_count_mix.items())
    ]
    print(
        format_table(
            ["property", "value"],
            [
                ["unique queries", profile.num_unique_queries],
                ["mean terms/query", round(profile.mean_terms_per_query, 2)],
                [
                    "popularity Zipf exponent (measured)",
                    round(profile.estimated_popularity_exponent, 3),
                ],
                ["fit R^2", round(profile.popularity_fit_r_squared, 3)],
                [
                    "top 1% traffic share",
                    round(profile.top_1pct_traffic_share, 3),
                ],
                [
                    "top 10% traffic share",
                    round(profile.top_10pct_traffic_share, 3),
                ],
            ],
            title="Query-log profile",
        )
    )
    print()
    print(format_table(["terms", "share"], mix_rows, title="Term-count mix"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        export_registry_csv,
        export_trace_jsonl,
        format_span_tree,
    )
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracing import Tracer

    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    hedging = None
    if args.hedge_delay_ms is not None or args.deadline_ms is not None:
        hedging = HedgingPolicy(
            hedge_delay_s=(
                args.hedge_delay_ms / 1000.0
                if args.hedge_delay_ms is not None
                else None
            ),
            deadline_s=(
                args.deadline_ms / 1000.0
                if args.deadline_ms is not None
                else None
            ),
        )
    config = _engine_config(args, args.partitions, hedging=hedging)
    with SearchEngine(config, tracer=tracer, metrics=registry) as engine:
        query = args.query or next(iter(engine.query_log)).text
        response = engine.search(query, k=args.k)
    print(
        f"query: {query!r} -> {len(response.hits)} hits, "
        f"coverage {response.coverage:.2f}"
    )
    if hedging is not None:
        print(
            f"hedges issued {response.hedges_issued}, "
            f"won {response.hedges_won}, "
            f"deadline misses {response.deadline_misses}"
        )
    print()
    print(format_span_tree(response.trace))
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                [name, entry["value"]]
                for name, entry in registry.snapshot().items()
                if entry["type"] == "counter"
            ],
            title="Serving-path counters",
        )
    )
    if args.jsonl:
        lines = export_trace_jsonl(tracer.traces, args.jsonl)
        print(f"\n{lines} spans written to {args.jsonl}")
    if args.metrics_csv:
        rows = export_registry_csv(registry, args.metrics_csv)
        print(f"{rows} metric rows written to {args.metrics_csv}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.api import (
        BreakerConfig,
        ClusterModel,
        FaultPlan,
        OverloadPolicy,
    )

    horizon = args.sim_queries / args.rate
    plan = FaultPlan.flapping_shard(
        args.flap_shard,
        period_s=args.flap_period,
        duty=args.flap_duty,
        horizon_s=horizon,
        seed=args.seed,
    )
    if args.dry_run:
        print(
            f"chaos plan: {args.servers} servers at {args.rate:g} qps, "
            f"~{horizon:.1f}s simulated horizon"
        )
        for line in plan.describe():
            print(f"  {line}")
        print("(dry run: nothing executed)")
        return 0

    protected = not args.unprotected
    model = ClusterModel(
        num_servers=args.servers,
        replicas_per_shard=args.replicas,
        hedging=HedgingPolicy(deadline_s=args.deadline_ms / 1000.0),
        breakers=(
            BreakerConfig(
                failure_threshold=args.breaker_failures,
                recovery_time_s=args.breaker_recovery_s,
            )
            if protected
            else None
        ),
        overload=(
            OverloadPolicy(max_concurrency=args.max_concurrency)
            if protected
            else None
        ),
        faults=plan,
    )
    result = model.run(
        rate_qps=args.rate, num_queries=args.sim_queries, seed=args.seed
    )
    summary = result.summary()
    print(
        format_table(
            ["statistic", "value"],
            [
                ["mode", "protected" if protected else "unprotected"],
                ["queries", len(result)],
                ["served", len(result) - result.shed_count],
                ["shed", result.shed_count],
                ["goodput (qps)", round(result.goodput_qps(), 1)],
                ["mean coverage", round(result.mean_coverage(), 3)],
                ["p50 (ms)", round(summary.p50 * 1000, 2)],
                ["p99 (ms)", round(summary.p99 * 1000, 2)],
                ["shard failures", list(result.shard_failures)],
                ["breaker skips", result.breaker_skips],
            ],
            title=f"Chaos run: flapping shard {args.flap_shard}",
        )
    )
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """Build a node, serve warm-up queries, print the health snapshot."""
    from repro.api import BreakerConfig

    config = _engine_config(args, args.partitions)
    if args.breakers:
        from dataclasses import replace

        config = replace(config, breakers=BreakerConfig())
    with SearchEngine(config) as engine:
        for query in list(engine.query_log)[: args.queries]:
            engine.search(query.text, k=3)
        snapshot = engine.health()
    rows = [
        ["backend", snapshot["backend"]],
        ["partitions", snapshot["partitions"]],
        ["healthy", "yes" if snapshot["healthy"] else "no"],
    ]
    pool = snapshot.get("pool")
    if pool is not None:
        rows.extend(
            [
                [
                    "live workers",
                    f"{pool['live_workers']}/{len(pool['workers'])}",
                ],
                ["probe interval (s)", pool["probe_interval_s"]],
                ["probes", pool["probes"]],
                ["deaths detected", pool["deaths_detected"]],
                ["respawns", pool["respawns"]],
            ]
        )
        for worker in pool["workers"]:
            rows.append(
                [
                    f"worker {worker['slot']}",
                    f"pid {worker['pid']} "
                    f"{'alive' if worker['alive'] else 'dead'}",
                ]
            )
    for shard, state in snapshot.get("breakers", {}).items():
        rows.append([f"breaker shard {shard}", state])
    print(format_table(["property", "value"], rows, title="Node health"))
    return 0 if snapshot["healthy"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import ReportOptions, characterization_report

    with _build_engine(args) as engine:
        report = characterization_report(
            engine,
            ReportOptions(num_queries=args.queries, seed=args.seed),
            path=args.output,
        )
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.api import DeadlineScheduler, calibrate_predictor, extract_features

    with _build_engine(args) as engine:
        calibration = calibrate_predictor(
            engine.isn,
            engine.query_log,
            num_queries=args.queries,
            repeats=2,
            seed=args.seed,
        )
        predictor = calibration.predictor
        print(
            format_table(
                ["coefficient", "value"],
                [
                    ["base (ms)", predictor.base_seconds * 1000],
                    ["per term (ms)", predictor.per_term_seconds * 1000],
                    ["per posting (ns)", predictor.per_posting_seconds * 1e9],
                    ["residual log-sigma", predictor.residual_log_sigma],
                    ["train MAPE (%)", calibration.train_mape * 100],
                    ["holdout MAPE (%)", calibration.holdout_mape * 100],
                    ["train / holdout n",
                     f"{calibration.num_train} / {calibration.num_holdout}"],
                ],
                title="Service-time predictor calibration",
            )
        )
        # Routing demo: classify the log's head queries against a
        # threshold at the predictor's median holdout prediction.
        median = sorted(
            predictor.predict(f) for f in calibration.holdout_features
        )[len(calibration.holdout_features) // 2]
        scheduler = DeadlineScheduler(
            predictor=predictor, long_query_threshold_s=max(median, 1e-9)
        )
        rows = []
        for query in list(engine.query_log)[: args.demo_queries]:
            features = extract_features(
                engine.partitioned, engine.isn.parser.parse(query.text)
            )
            rows.append(
                [
                    query.text[:40],
                    features.term_count,
                    features.total_postings,
                    f"{scheduler.predicted_seconds(features) * 1000:.3f}",
                    "big" if scheduler.is_long(features) else "little",
                ]
            )
        print(
            format_table(
                ["query", "terms", "postings", "predicted (ms)", "route"],
                rows,
                title=f"Routing demo (threshold {median * 1000:.3f} ms)",
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Web search benchmark characterization (ISPASS 2015 reproduction)",
    )
    parser.add_argument("--docs", type=int, default=1_500,
                        help="corpus size (documents)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--backend",
        choices=list(EXECUTION_BACKENDS),
        default=None,
        help="execution backend for the native engine's partition "
             "fan-out: 'threads' (default) or 'processes' (GIL-free "
             "worker pool over a mapped index image; bit-identical "
             "results)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the selected backend (default: one per "
             "partition)",
    )
    parser.add_argument(
        "--traversal",
        choices=["exhaustive", "wand", "block-max-wand"],
        default="exhaustive",
        help="postings traversal strategy for the native engine "
             "(exhaustive DAAT is the benchmark-faithful default; the "
             "WAND variants prune documents that cannot reach the top-k)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser(
        "quickstart", help="build the benchmark and answer queries"
    )
    quickstart.add_argument("--queries", type=int, default=5)
    quickstart.set_defaults(handler=cmd_quickstart)

    characterize = subparsers.add_parser(
        "characterize", help="service-time distribution (F1)"
    )
    characterize.add_argument("--queries", type=int, default=150)
    characterize.set_defaults(handler=cmd_characterize)

    def add_sim_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--partitions", type=int, nargs="+", default=list(DEFAULT_PARTITIONS)
        )
        sub.add_argument("--sim-queries", type=int, default=4_000)
        sub.add_argument("--load-fraction", type=float, default=0.35)

    sweep = subparsers.add_parser(
        "partition-sweep", help="tail latency vs partition count (F4)"
    )
    add_sim_args(sweep)
    sweep.set_defaults(handler=cmd_partition_sweep)

    lowpower = subparsers.add_parser(
        "lowpower", help="big vs low-power server (F6)"
    )
    add_sim_args(lowpower)
    lowpower.set_defaults(handler=cmd_lowpower)

    capacity = subparsers.add_parser(
        "capacity",
        help="QoS-bounded max throughput (F5), or analytic replica "
        "sizing with --target-qps/--slo-ms (F27)",
    )
    add_sim_args(capacity)
    capacity.add_argument("--qos-ms", type=float, default=30.0)
    capacity.add_argument(
        "--target-qps",
        type=float,
        default=None,
        help="plan replicas for this offered load instead of sweeping "
        "partitions (switches to the analytical capacity model)",
    )
    capacity.add_argument(
        "--slo-ms",
        type=float,
        default=250.0,
        help="p99 SLO for --target-qps planning (default 250 ms)",
    )
    capacity.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard groups the plan fans out over (default 1)",
    )
    capacity.set_defaults(handler=cmd_capacity)

    cache = subparsers.add_parser(
        "cache", help="result-cache hit rates (F11a)"
    )
    cache.set_defaults(handler=cmd_cache)

    profile = subparsers.add_parser(
        "profile-log", help="workload characterization of the query log"
    )
    profile.set_defaults(handler=cmd_profile_log)

    trace = subparsers.add_parser(
        "trace", help="trace one query end-to-end and print its span tree"
    )
    trace.add_argument(
        "query", nargs="?", default=None,
        help="query text (default: the generated log's first query)",
    )
    trace.add_argument("--partitions", type=int, default=4)
    trace.add_argument("--k", type=int, default=10)
    trace.add_argument(
        "--hedge-delay-ms", type=float, default=None,
        help="enable hedged shard requests after this many milliseconds",
    )
    trace.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-shard deadline budget in milliseconds (partial results)",
    )
    trace.add_argument(
        "--tiered-cache-kib", type=float, default=None,
        help="serve the index from tiered block storage with this "
        "block-cache budget (KiB, split across shards); the span tree "
        "then carries blocks_fetched/bytes_read per shard",
    )
    trace.add_argument("--jsonl", default=None,
                       help="also export the trace as JSON-lines")
    trace.add_argument("--metrics-csv", default=None,
                       help="also export the metrics registry as CSV")
    trace.set_defaults(handler=cmd_trace)

    chaos = subparsers.add_parser(
        "chaos",
        help="fault-injected simulated run with overload protection",
    )
    chaos.add_argument("--servers", type=int, default=4)
    chaos.add_argument("--replicas", type=int, default=1)
    chaos.add_argument("--rate", type=float, default=300.0,
                       help="offered load (queries/second)")
    chaos.add_argument("--sim-queries", type=int, default=2_000)
    chaos.add_argument("--flap-shard", type=int, default=1,
                       help="index of the shard that flaps")
    chaos.add_argument("--flap-period", type=float, default=0.5,
                       help="seconds between crashes of the flapping shard")
    chaos.add_argument("--flap-duty", type=float, default=0.6,
                       help="fraction of each period the shard is down")
    chaos.add_argument("--deadline-ms", type=float, default=50.0,
                       help="per-query deadline (graceful degradation)")
    chaos.add_argument("--breaker-failures", type=int, default=3,
                       help="consecutive failures before a breaker opens")
    chaos.add_argument("--breaker-recovery-s", type=float, default=0.25,
                       help="open time before a breaker probes again")
    chaos.add_argument("--max-concurrency", type=int, default=64,
                       help="admission-control concurrency limit")
    chaos.add_argument("--unprotected", action="store_true",
                       help="disable breakers and admission control")
    chaos.add_argument("--dry-run", action="store_true",
                       help="print the fault schedule and exit")
    chaos.set_defaults(handler=cmd_chaos)

    health = subparsers.add_parser(
        "health",
        help="serve warm-up queries and print the node's liveness "
        "snapshot (worker probes, respawns, breaker states)",
    )
    health.add_argument("--partitions", type=int, default=2)
    health.add_argument("--queries", type=int, default=3,
                        help="warm-up queries before the snapshot")
    health.add_argument("--breakers", action="store_true",
                        help="configure circuit breakers so per-shard "
                        "states appear in the snapshot")
    health.set_defaults(handler=cmd_health)

    report = subparsers.add_parser(
        "report", help="full Markdown characterization report"
    )
    report.add_argument("--queries", type=int, default=150)
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    report.set_defaults(handler=cmd_report)

    predict = subparsers.add_parser(
        "predict",
        help="calibrate the service-time predictor and demo "
        "prediction-aware big/little routing (F29)",
    )
    predict.add_argument("--queries", type=int, default=120,
                        help="queries replayed for calibration")
    predict.add_argument("--demo-queries", type=int, default=8,
                        help="log-head queries shown in the routing demo")
    predict.set_defaults(handler=cmd_predict)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
