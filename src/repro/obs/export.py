"""Exporters: traces to JSON-lines / a terminal tree, records to CSV.

One trace (a root span and its descendants) flattens to one JSON object
per span, depth-first pre-order, with a fixed field set
(:data:`TRACE_SCHEMA_FIELDS`).  Native-engine and simulator traces use
the same schema — only the clock domain of ``start``/``end`` differs —
so downstream analysis reads either interchangeably.

A metrics-registry snapshot exports to CSV, so external tooling
(spreadsheets, pandas, R) can re-analyze a run without re-running.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Union

from repro.obs.tracing import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

PathLike = Union[str, Path]

__all__ = [
    "TRACE_SCHEMA_FIELDS",
    "span_to_dict",
    "trace_to_dicts",
    "export_trace_jsonl",
    "format_span_tree",
    "export_registry_csv",
]

#: Every exported span object carries exactly these keys, in this order.
TRACE_SCHEMA_FIELDS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start",
    "end",
    "duration_seconds",
    "attributes",
)


def span_to_dict(span: Span) -> Dict[str, object]:
    """One span as a schema-stable, JSON-serializable mapping."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration_seconds": span.duration,
        "attributes": dict(span.attributes),
    }


def trace_to_dicts(root: Span) -> List[Dict[str, object]]:
    """Flatten a trace to span dicts, depth-first pre-order."""
    return [span_to_dict(span) for span in root.iter_tree()]


def export_trace_jsonl(traces: Iterable[Span], path: PathLike) -> int:
    """Write traces as JSON-lines (one span per line); returns lines written.

    Keys are emitted in :data:`TRACE_SCHEMA_FIELDS` order so the output
    is byte-stable for identical inputs (the golden-schema test relies
    on this).
    """
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        for root in traces:
            for record in trace_to_dicts(root):
                handle.write(json.dumps(record, sort_keys=False))
                handle.write("\n")
                lines += 1
    return lines


def format_span_tree(root: Span, unit_scale: float = 1000.0) -> str:
    """Render a trace as an indented tree with durations.

    ``unit_scale`` converts span durations for display (default
    seconds → milliseconds).  Attributes print inline after the name.
    """
    lines: List[str] = []
    _format_into(root, lines, prefix="", is_last=True, is_root=True,
                 unit_scale=unit_scale)
    return "\n".join(lines)


def _format_into(
    span: Span,
    lines: List[str],
    prefix: str,
    is_last: bool,
    is_root: bool,
    unit_scale: float,
) -> None:
    attributes = " ".join(
        f"{key}={value}" for key, value in sorted(span.attributes.items())
    )
    label = span.name if not attributes else f"{span.name} [{attributes}]"
    duration = f"{span.duration * unit_scale:9.3f} ms"
    if is_root:
        lines.append(f"{label}  {duration}")
        child_prefix = ""
    else:
        connector = "└─ " if is_last else "├─ "
        lines.append(f"{prefix}{connector}{label}  {duration}")
        child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(span.children):
        _format_into(
            child,
            lines,
            prefix=child_prefix,
            is_last=index == len(span.children) - 1,
            is_root=False,
            unit_scale=unit_scale,
        )


REGISTRY_COLUMNS = ("metric", "type", "field", "value")


def export_registry_csv(registry: "MetricsRegistry", path: PathLike) -> int:
    """Write a metrics-registry snapshot as CSV; returns rows written.

    Counters and gauges emit one ``value`` row; histograms emit
    ``count``, ``sum``, and cumulative ``le_<edge>`` bucket rows (see
    :meth:`repro.obs.registry.MetricsRegistry.as_rows`).
    """
    rows = registry.as_rows()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(REGISTRY_COLUMNS)
        for metric, kind, field, value in rows:
            writer.writerow([metric, kind, field, value])
    return len(rows)
