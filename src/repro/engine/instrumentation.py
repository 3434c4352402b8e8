"""Timing instrumentation for the native engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


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
