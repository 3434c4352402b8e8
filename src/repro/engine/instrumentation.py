"""Timing instrumentation for the native engine."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional


class Timer:
    """Context-manager stopwatch over ``time.perf_counter``.

    ::

        with Timer() as timer:
            work()
        print(timer.elapsed)
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        # Exiting without entering leaves elapsed at 0.0 instead of
        # raising: ``__exit__`` runs while a body exception may be
        # propagating, and raising here would mask it.
        if self._start is None:
            return
        self.elapsed = time.perf_counter() - self._start


@dataclass
class ComponentTimings:
    """Wall-clock breakdown of one query through the ISN (seconds).

    ``shard_seconds[i]`` is shard i's search time as measured inside its
    worker; ``fanout_seconds`` is the span from first dispatch to last
    shard completion (≥ max shard time: includes pool queueing).
    """

    parse_seconds: float = 0.0
    shard_seconds: List[float] = field(default_factory=list)
    fanout_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def slowest_shard_seconds(self) -> float:
        """The straggler shard's search time (0.0 with no shards)."""
        return max(self.shard_seconds, default=0.0)

    @property
    def skew_seconds(self) -> float:
        """Slowest minus fastest shard time — the fork-join skew.

        Skew needs at least two shards to compare; with zero or one
        shard there is no straggler, so the skew is defined as 0.0.
        """
        if len(self.shard_seconds) < 2:
            return 0.0
        return max(self.shard_seconds) - min(self.shard_seconds)
