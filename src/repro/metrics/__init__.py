"""Latency and distribution metrics.

Everything the paper reports is a statistic over per-query latencies;
this package provides empirical CDFs (:mod:`histogram`) and the summary
record used across studies and benchmarks (:mod:`summary`).
"""

from repro.obs.export import export_registry_csv
from repro.metrics.histogram import cdf_points
from repro.metrics.summary import LatencySummary, summarize

__all__ = [
    "cdf_points",
    "LatencySummary",
    "summarize",
    "export_registry_csv",
]
