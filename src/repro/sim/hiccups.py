"""Server hiccup (stop-the-world pause) injection.

The benchmark's index serving node runs on a JVM, and garbage
collection pauses are a classic source of its tail latency: a pause
freezes every core for milliseconds, delaying whatever is running or
queued.  ``HiccupSchedule`` generates a deterministic sequence of
stop-the-world intervals (exponential inter-arrival gaps, fixed or
log-normal durations) and answers the one question the core model
needs: *if work starts at time t and needs d busy seconds, when does
it finish once pauses are excluded?*
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class HiccupConfig:
    """Stop-the-world pause process parameters.

    Attributes
    ----------
    mean_interval:
        Mean seconds between pause starts (exponential gaps).  A JVM
        under allocation pressure pauses every few hundred ms to few
        seconds depending on heap sizing.
    pause_duration:
        Pause length in seconds (young-generation pauses of the era:
        5–50 ms).
    duration_sigma:
        Log-normal sigma of pause durations; 0 gives fixed-length
        pauses.
    """

    mean_interval: float
    pause_duration: float
    duration_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if self.pause_duration <= 0:
            raise ValueError("pause_duration must be positive")
        if self.duration_sigma < 0:
            raise ValueError("duration_sigma must be non-negative")


class PauseSchedule:
    """Sorted, non-overlapping stall intervals and the walk that skips them.

    The one answer to *when does work finish once pauses are excluded?*
    — shared by the stochastic :class:`HiccupSchedule` and the scripted
    :class:`~repro.sim.outages.FixedOutages`, which differ only in
    where the intervals come from (:meth:`_extend_past`).
    """

    #: Every interval starting before this is known (a fixed set: all).
    _frontier = float("inf")

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []

    def _extend_past(self, time: float) -> None:
        """Make every interval starting at or before ``time`` known.

        A no-op for a fixed set of intervals; a lazily-generated
        schedule draws more here.
        """

    def pauses_up_to(self, time: float) -> List[Tuple[float, float]]:
        """All pause intervals starting at or before ``time``."""
        self._extend_past(time)
        return [
            (start, end)
            for start, end in zip(self._starts, self._ends)
            if start <= time
        ]

    def execute(self, start: float, busy_seconds: float) -> Tuple[float, float]:
        """Run ``busy_seconds`` of work beginning at ``start``.

        Returns ``(actual_start, end)``: the start is pushed out of any
        pause it lands in, and the end accounts for every pause the
        execution spans.  ``busy_seconds`` may be 0 (the start is still
        pushed out of a pause — a zero-length task cannot run mid-pause).
        """
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be non-negative")
        end = start + busy_seconds
        if end >= self._frontier:
            self._extend_past(end)
        # Find the first pause that could affect us.
        index = bisect_right(self._ends, start)
        if index == len(self._starts) or start < self._starts[index] >= end:
            return start, end  # no pause overlaps [start, end)
        return self._walk(start, busy_seconds, index)

    def _walk(
        self, clock: float, remaining: float, index: int
    ) -> Tuple[float, float]:
        """:meth:`execute` over the pauses from ``index`` on."""
        if self._starts[index] <= clock:
            clock = self._ends[index]  # started mid-pause: resume after
            index += 1
        actual_start = clock
        while remaining > 0:
            self._extend_past(clock + remaining)
            if index < len(self._starts) and self._starts[index] < clock + remaining:
                # Work up to the pause, then jump over it.
                executed = self._starts[index] - clock
                remaining -= executed
                clock = self._ends[index]
                index += 1
            else:
                clock += remaining
                remaining = 0.0
        return actual_start, clock


class HiccupSchedule(PauseSchedule):
    """A lazily-extended, deterministic sequence of pause intervals.

    Pauses never overlap: the next pause's gap is drawn from the end of
    the previous one.
    """

    def __init__(self, config: HiccupConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self._rng = rng
        self._frontier = 0.0

    def _extend_past(self, time: float) -> None:
        while self._frontier <= time:
            gap = float(self._rng.exponential(self.config.mean_interval))
            start = self._frontier + gap
            duration = self.config.pause_duration
            if self.config.duration_sigma > 0:
                duration = float(
                    duration
                    * np.exp(
                        self.config.duration_sigma
                        * self._rng.standard_normal()
                        - self.config.duration_sigma**2 / 2.0
                    )
                )
            self._starts.append(start)
            self._ends.append(start + duration)
            self._frontier = start + duration
