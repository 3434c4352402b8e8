"""The latency summary record reported by every study and benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of one latency distribution (seconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p95: float
    p99: float
    p999: float
    max: float

    @property
    def tail_ratio(self) -> float:
        """p99 / p50 — the skew measure used in the tail-latency study."""
        if self.p50 == 0:
            return float("inf")
        return self.p99 / self.p50

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for table rendering."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
        }

    def scaled(self, factor: float) -> "LatencySummary":
        """Return a copy with every statistic multiplied by ``factor``
        (e.g. seconds → milliseconds with ``factor=1000``)."""
        return LatencySummary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p90=self.p90 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            p999=self.p999 * factor,
            max=self.max * factor,
        )


#: The summary of zero samples: count 0, every statistic NaN.  NaN (not
#: zero) so that an all-shed run plotted next to healthy runs produces a
#: gap, never a fake zero-latency point.
EMPTY_SUMMARY = LatencySummary(
    count=0,
    mean=float("nan"),
    p50=float("nan"),
    p90=float("nan"),
    p95=float("nan"),
    p99=float("nan"),
    p999=float("nan"),
    max=float("nan"),
)


def summarize(
    samples: Sequence[float], empty: str = "raise"
) -> LatencySummary:
    """Compute a :class:`LatencySummary` over ``samples``.

    ``empty`` picks the zero-sample behaviour: ``"raise"`` (default)
    raises ``ValueError``, ``"nan"`` returns :data:`EMPTY_SUMMARY`.
    Callers whose sample list can legitimately drain — e.g. a run where
    admission control shed every query — pass ``empty="nan"``.
    """
    if empty not in ("raise", "nan"):
        raise ValueError(f"empty must be 'raise' or 'nan', got {empty!r}")
    data = np.asarray(samples, dtype=np.float64)
    if data.size == 0:
        if empty == "nan":
            return EMPTY_SUMMARY
        raise ValueError("cannot summarize zero samples")
    data = np.sort(data)
    p50, p90, p95, p99, p999 = np.percentile(
        data, [50, 90, 95, 99, 99.9], method="lower"
    ).tolist()
    return LatencySummary(
        count=int(data.size),
        mean=float(data.mean()),
        p50=p50,
        p90=p90,
        p95=p95,
        p99=p99,
        p999=p999,
        max=float(data[-1]),
    )
