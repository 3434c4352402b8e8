"""Observability: per-query span tracing and a unified metrics registry.

The paper's contribution is a *characterization* — per-component
service-time breakdowns and tail attribution — so the serving path must
be measurable end to end.  This package provides the three pieces:

- :mod:`tracing` — a low-overhead span tracer.  ``tracer.span(name)``
  opens a nested span with monotonic start/end timestamps, parent ids,
  and arbitrary attributes (shard id, postings scanned, ...).  Tracing
  is **off by default**; the disabled path costs one branch.
- :mod:`registry` — a :class:`MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms that serving-path components register into
  (query cache hit/miss/eviction, postings traversed, heap operations).
- :mod:`export` — the one export module: per-query trace trees to
  JSON-lines and a text renderer for the ``repro trace`` CLI command,
  plus the CSV writer for registry snapshots (re-exported by
  :mod:`repro.metrics`).
"""

from repro.obs.export import (
    TRACE_SCHEMA_FIELDS,
    export_trace_jsonl,
    format_span_tree,
    span_to_dict,
    trace_to_dicts,
)
from repro.obs.registry import (
    Counter,
    FixedBucketHistogram,
    Gauge,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "FixedBucketHistogram",
    "MetricsRegistry",
    "TRACE_SCHEMA_FIELDS",
    "span_to_dict",
    "trace_to_dicts",
    "export_trace_jsonl",
    "format_span_tree",
]
