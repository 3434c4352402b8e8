"""Exact latency percentile recording.

Tail latency is the paper's central metric, and tails are exactly where
approximate quantile sketches are least trustworthy — so the recorder
keeps every sample (a few MB even for millions of queries) and computes
exact order statistics on demand.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


class LatencyRecorder:
    """Accumulates latency samples and answers exact quantile queries."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, latency: float) -> None:
        """Record one latency sample (seconds); must be non-negative."""
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self._samples.append(float(latency))
        self._sorted_cache = None

    def record_many(self, latencies: Iterable[float]) -> None:
        """Record a batch of samples."""
        for latency in latencies:
            self.record(latency)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one."""
        self._samples.extend(other._samples)
        self._sorted_cache = None

    def _sorted(self) -> np.ndarray:
        if self._sorted_cache is None:
            self._sorted_cache = np.sort(
                np.asarray(self._samples, dtype=np.float64)
            )
        return self._sorted_cache

    def percentile(self, quantile: float) -> float:
        """Exact percentile, e.g. ``percentile(99.0)`` for p99.

        Uses the "lower" interpolation convention so the returned value
        is always an observed sample (what a latency SLA refers to).
        """
        if not 0.0 <= quantile <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {quantile}")
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(np.percentile(self._sorted(), quantile, method="lower"))

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(np.mean(self._samples))

    def max(self) -> float:
        """Largest recorded sample."""
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(self._sorted()[-1])

    def min(self) -> float:
        """Smallest recorded sample."""
        if not self._samples:
            raise ValueError("no samples recorded")
        return float(self._sorted()[0])

    def tail_ratio(self, quantile: float = 99.0) -> float:
        """Ratio of the given percentile to the median.

        The paper's headline "partitioning reduces tail latency" claim is
        visible as this ratio shrinking with the partition count.
        """
        median = self.percentile(50.0)
        if median == 0:
            return float("inf")
        return self.percentile(quantile) / median
