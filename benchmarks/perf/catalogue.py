"""The metric catalogue: every name the benchmark prints, with its unit
and direction.  ``BENCHMARK.json`` at the repository root lists the same
metrics (the self-tests check the two agree); ``README.md`` says which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

#: (name, unit, better, bound): ``bound`` is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
END_TO_END = (
    ("qps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better).  Times are per-query floor medians unless the
#: name says otherwise; counts are exact.
PER_LAYER = (
    # span self times of the traced workload (0 where it never enters
    # the layer, which is the "must stay flat" prediction made visible)
    ("trace.total_us", "us", "lower"),
    ("trace.query_parse_us", "us", "lower"),
    ("trace.search_traverse_us", "us", "lower"),
    ("trace.mp_dispatch_us", "us", "lower"),
    ("trace.merger_merge_us", "us", "lower"),
    ("trace.workload_scenario_us", "us", "lower"),
    ("trace.fanout_plain_us", "us", "lower"),
    ("trace.fanout_tail_us", "us", "lower"),
    ("trace.autoscale_us", "us", "lower"),
    ("trace.metrics_summary_us", "us", "lower"),
    ("trace.glue_us", "us", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    # search.query / text
    ("query.parse_us", "us", "lower"),
    ("text.analyze_doc_us", "us", "lower"),
    # index.dictionary
    ("dictionary.lookup_us", "us", "lower"),
    # search traversals on the 1-partition index
    ("daat.traverse_us", "us", "lower"),
    ("taat.traverse_us", "us", "lower"),
    ("wand.traverse_us", "us", "lower"),
    ("bmw.traverse_us", "us", "lower"),
    ("daat.traverse_share", "ratio", "lower"),
    ("bmw.traverse_share", "ratio", "lower"),
    ("daat.ns_per_posting", "ns", "lower"),
    ("bmw.ns_per_scored_doc", "ns", "lower"),
    ("search.postings_per_query", "count", "lower"),
    ("daat.docs_scored_per_query", "count", "lower"),
    ("bmw.docs_scored_per_query", "count", "lower"),
    ("bmw.block_skips_per_query", "count", "higher"),
    ("bmw.useful_ratio", "ratio", "higher"),
    # search.scoring / search.topk / search.merger
    ("scoring.score_block_ns_per_doc", "ns", "lower"),
    ("topk.offer_ns", "ns", "lower"),
    ("merger.merge2_us", "us", "lower"),
    ("merger.merge4_us", "us", "lower"),
    # engine.isn
    ("isn.execute_us", "us", "lower"),
    ("isn.self_us", "us", "lower"),
    ("isn.start_s", "s", "lower"),
    # engine.mp / index.shared
    ("mp.roundtrip_us", "us", "lower"),
    ("mp.batch16_us_per_query", "us", "lower"),
    ("mp.pool_start_s", "s", "lower"),
    ("shared.export_s", "s", "lower"),
    ("shared.arena_mb", "MB", "lower"),
    # engine.service / engine.snippets
    ("snippets.snippet_us", "us", "lower"),
    ("service.page_us", "us", "lower"),
    # corpus / index.builder / index.serialization
    ("corpus.generate_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.build_docs_per_s", "1/s", "higher"),
    ("index.serialize_mb_per_s", "MB/s", "higher"),
    ("index.deserialize_mb_per_s", "MB/s", "higher"),
    ("index.bytes_per_posting", "B", "lower"),
    # sim.engine
    ("sim.kernel_events_per_s", "1/s", "higher"),
    ("sim.kernel_cancel_events_per_s", "1/s", "higher"),
    # cluster.fanout / sim.autoscale
    ("fanout.plain_simq_per_s", "1/s", "higher"),
    ("fanout.tail_simq_per_s", "1/s", "higher"),
    ("autoscale.simq_per_s", "1/s", "higher"),
    ("fanout.build_us", "us", "lower"),
    ("fanout.hedges_per_query", "ratio", "lower"),
    # diagnostics of the run itself
    ("noise.rounds", "count", "higher"),
    ("noise.round_spread", "ratio", "lower"),
    ("raw.qps_median_round", "1/s", "higher"),
    ("isn.threads_2p_over_1p_bmw", "ratio", "lower"),
)

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
