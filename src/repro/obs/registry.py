"""A unified metrics registry: counters, gauges, fixed-bucket histograms.

Components on the serving path register named metrics once and update
them per event; a run-level snapshot aggregates everything for export
(see :func:`repro.obs.export.export_registry_csv`).  Metric names
are dotted paths (``cache.hits``, ``daat.postings_traversed``) so the
snapshot reads as a namespace.

Histograms use *fixed* bucket edges chosen at registration — unlike
:class:`repro.metrics.histogram.Histogram`, which fits log-spaced edges
to a completed sample set, a registry histogram must accept updates
online.  :meth:`FixedBucketHistogram.log_buckets` builds the same
log-spaced edge layout, and :meth:`FixedBucketHistogram.to_histogram`
converts a snapshot back into the existing analysis type so CDF/density
tooling is reused unchanged.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.histogram import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "FixedBucketHistogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]


class Counter:
    """A monotonically-increasing event count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self._value += amount


class Gauge:
    """A last-value-wins instantaneous measurement."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        with self._lock:
            self._value += float(delta)


class FixedBucketHistogram:
    """An online histogram over fixed, monotonic bucket edges.

    ``bin_edges`` has ``num_buckets + 1`` boundaries; a sample lands in
    bucket ``i`` when ``edges[i] <= sample < edges[i+1]``.  Samples
    below the first edge count into the first bucket and samples at or
    above the last edge into the last — totals are never silently lost.
    """

    __slots__ = ("name", "bin_edges", "_counts", "_sum", "_lock")

    def __init__(self, name: str, bin_edges: Sequence[float]):
        edges = [float(edge) for edge in bin_edges]
        if len(edges) < 2:
            raise ValueError("need at least two bucket edges")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.bin_edges = tuple(edges)
        self._counts = [0] * (len(edges) - 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    @staticmethod
    def log_buckets(
        low: float, high: float, num_buckets: int = 40
    ) -> Tuple[float, ...]:
        """Log-spaced edges matching the analysis histogram's layout."""
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high for log-spaced buckets")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        return tuple(
            float(edge)
            for edge in np.logspace(np.log10(low), np.log10(high), num_buckets + 1)
        )

    def observe(self, value: float) -> None:
        """Record one sample."""
        position = bisect.bisect_right(self.bin_edges, float(value)) - 1
        index = min(max(position, 0), len(self._counts) - 1)
        with self._lock:
            self._counts[index] += 1
            self._sum += float(value)

    @property
    def counts(self) -> List[int]:
        return list(self._counts)

    @property
    def total(self) -> int:
        """Number of samples observed."""
        return sum(self._counts)

    @property
    def sum(self) -> float:
        """Sum of all observed sample values."""
        return self._sum

    def to_histogram(self) -> Histogram:
        """Snapshot as the analysis-layer :class:`Histogram` type."""
        return Histogram(
            bin_edges=np.asarray(self.bin_edges, dtype=np.float64),
            counts=np.asarray(self._counts, dtype=np.int64),
        )


Metric = Union[Counter, Gauge, FixedBucketHistogram]

#: Default bucket layout for second-valued latency histograms: 10 µs – 10 s.
DEFAULT_LATENCY_BUCKETS = FixedBucketHistogram.log_buckets(1e-5, 10.0, 40)


class MetricsRegistry:
    """Named metrics with get-or-create registration.

    Re-registering a name returns the existing metric; registering the
    same name as a different kind raises, so two components cannot
    silently split one metric.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bin_edges: Optional[Sequence[float]] = None
    ) -> FixedBucketHistogram:
        """Get or create the histogram ``name``.

        ``bin_edges`` defaults to the log-spaced latency layout; it is
        only consulted on first registration.
        """
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, FixedBucketHistogram):
                    raise ValueError(
                        f"metric {name!r} is already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = FixedBucketHistogram(
                name, DEFAULT_LATENCY_BUCKETS if bin_edges is None else bin_edges
            )
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, name: str, kind):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} is already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = kind(name)
            self._metrics[name] = metric
            return metric

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time value of every metric, keyed by name."""
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value}
            else:
                out[name] = {
                    "type": "histogram",
                    "total": metric.total,
                    "sum": metric.sum,
                    "bin_edges": list(metric.bin_edges),
                    "counts": metric.counts,
                }
        return out

    def as_rows(self) -> List[Tuple[str, str, str, object]]:
        """Flatten to ``(metric, type, field, value)`` rows for CSV export.

        Histogram buckets become Prometheus-style cumulative rows
        (``le_<edge>``), plus ``count`` and ``sum``.
        """
        rows: List[Tuple[str, str, str, object]] = []
        for name, entry in self.snapshot().items():
            kind = str(entry["type"])
            if kind in ("counter", "gauge"):
                rows.append((name, kind, "value", entry["value"]))
                continue
            rows.append((name, kind, "count", entry["total"]))
            rows.append((name, kind, "sum", entry["sum"]))
            cumulative = 0
            edges = list(entry["bin_edges"])  # type: ignore[arg-type]
            counts = list(entry["counts"])  # type: ignore[arg-type]
            for upper, count in zip(edges[1:], counts):
                cumulative += int(count)
                rows.append((name, kind, f"le_{upper:.9g}", cumulative))
        return rows

    def merge_counter_deltas(self, deltas: Dict[str, int]) -> None:
        """Fold another registry's counter increments into this one.

        The process execution backend keeps a private registry per
        worker (counters cannot be shared across processes) and ships
        the increments accumulated since its previous reply back with
        each batch of results; merging them here makes ``search.*`` /
        ``wand.*`` / ``store.*`` totals backend-invariant.
        """
        for name, delta in deltas.items():
            self.counter(name).add(int(delta))

    def reset(self) -> None:
        """Drop every registered metric (names become available again)."""
        with self._lock:
            self._metrics.clear()


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (always present, initially empty)."""
    return _GLOBAL_REGISTRY


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` globally (None installs a fresh empty one)."""
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry if registry is not None else MetricsRegistry()
    return _GLOBAL_REGISTRY
