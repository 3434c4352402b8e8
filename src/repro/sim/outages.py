"""Scheduled outage (brownout) injection.

Where :mod:`repro.sim.hiccups` models a stochastic pause *process*,
``FixedOutages`` models deterministic, scripted stall windows — "this
replica freezes from t=2.0s for 500 ms" — the standard failure-
injection shape for studying failover behaviour.  It is the same
:class:`~repro.sim.hiccups.PauseSchedule` the core bank consumes, with
the intervals given up front, so any server can be given scripted
brownouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.sim.hiccups import PauseSchedule


@dataclass(frozen=True)
class OutageSpec:
    """One scripted brownout of one replica.

    Attributes
    ----------
    shard / replica:
        Which server stalls (indexes into the replicated cluster).
    start / duration:
        The stall window in simulation seconds.
    """

    shard: int
    replica: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.shard < 0 or self.replica < 0:
            raise ValueError("shard and replica must be non-negative")
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


class FixedOutages(PauseSchedule):
    """A fixed set of stall intervals with hiccup-compatible semantics.

    Overlapping or adjacent intervals are merged at construction.
    """

    def __init__(self, intervals: Sequence[Tuple[float, float]]):
        cleaned: List[Tuple[float, float]] = []
        for start, duration in intervals:
            if start < 0 or duration <= 0:
                raise ValueError(
                    "intervals need non-negative start and positive duration"
                )
            cleaned.append((float(start), float(start + duration)))
        cleaned.sort()
        merged: List[Tuple[float, float]] = []
        for start, end in cleaned:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        super().__init__()
        self._starts = [start for start, _ in merged]
        self._ends = [end for _, end in merged]
