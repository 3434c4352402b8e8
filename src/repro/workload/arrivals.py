"""Query arrival processes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np


def _require_rate(rate: float) -> None:
    """Reject NaN, infinite and non-positive rates (a NaN rate yields
    NaN arrival times, an infinite one simultaneous arrivals)."""
    if not 0.0 < rate < float("inf"):
        raise ValueError(f"rate must be positive and finite, got {rate}")


class ArrivalProcess(Protocol):
    """Open-loop arrival process: generates absolute arrival times."""

    def arrival_times(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return ``num_queries`` sorted arrival timestamps from t=0."""
        ...


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrivals at ``rate`` queries per second."""

    rate: float

    def __post_init__(self) -> None:
        _require_rate(self.rate)

    def arrival_times(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        gaps = rng.exponential(1.0 / self.rate, size=num_queries)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class DeterministicArrivals:
    """Perfectly paced arrivals (isolates service-time variability)."""

    rate: float

    def __post_init__(self) -> None:
        _require_rate(self.rate)

    def arrival_times(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        interval = 1.0 / self.rate
        return interval * np.arange(1, num_queries + 1, dtype=np.float64)


@dataclass(frozen=True)
class MMPPArrivals:
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates between a ``base_rate`` state and a
    ``burst_rate`` state with exponentially distributed dwell times —
    the standard model for diurnal-plus-spike search traffic.
    """

    base_rate: float
    burst_rate: float
    mean_base_dwell: float = 10.0
    mean_burst_dwell: float = 2.0

    def __post_init__(self) -> None:
        _require_rate(self.base_rate)
        _require_rate(self.burst_rate)
        if self.mean_base_dwell <= 0 or self.mean_burst_dwell <= 0:
            raise ValueError("dwell times must be positive")

    def arrival_times(
        self, num_queries: int, rng: np.random.Generator
    ) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        times = np.empty(num_queries, dtype=np.float64)
        clock = 0.0
        in_burst = False
        state_ends = rng.exponential(self.mean_base_dwell)
        produced = 0
        while produced < num_queries:
            rate = self.burst_rate if in_burst else self.base_rate
            gap = rng.exponential(1.0 / rate)
            if clock + gap >= state_ends:
                # State flips before the next arrival would land.
                clock = state_ends
                in_burst = not in_burst
                dwell = (
                    self.mean_burst_dwell if in_burst else self.mean_base_dwell
                )
                state_ends = clock + rng.exponential(dwell)
                continue
            clock += gap
            times[produced] = clock
            produced += 1
        return times


@dataclass(frozen=True)
class ClosedLoopSpec:
    """Faban-style closed-loop driver parameters.

    ``num_clients`` emulated users each cycle through: think for an
    exponentially distributed time with mean ``mean_think_time``, issue
    one query, and block until the response returns.  Offered load is
    therefore self-limiting — the semantics of the benchmark's shipped
    driver.  (This is a parameter record, not an ``ArrivalProcess``:
    closed-loop arrivals depend on completions, so the cluster simulator
    drives them directly.)
    """

    num_clients: int
    mean_think_time: float = 0.5

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if self.mean_think_time < 0:
            raise ValueError("mean_think_time must be non-negative")
