"""Latency and distribution metrics.

Everything the paper reports is a statistic over per-query latencies;
this package provides exact percentile computation (:mod:`latency`),
log-binned histograms/CDFs (:mod:`histogram`), and the summary record
used across studies and benchmarks (:mod:`summary`).
"""

from repro.obs.export import export_registry_csv
from repro.metrics.histogram import Histogram, cdf_points
from repro.metrics.latency import LatencyRecorder
from repro.metrics.summary import LatencySummary, summarize

__all__ = [
    "Histogram",
    "cdf_points",
    "LatencyRecorder",
    "LatencySummary",
    "summarize",
    "export_registry_csv",
]
