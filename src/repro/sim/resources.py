"""FCFS multi-core processing resource.

``CoreBank`` models a server's cores fed by one shared FCFS run queue
— the structure of the benchmark's index-serving thread pool, where
partition tasks are enqueued and run to completion on the next free
hardware context.

Because tasks are non-preemptive and dispatched in arrival order, the
earliest-free-core greedy assignment computed *at submission time* is
exactly FCFS — no per-core events are needed, which keeps the simulator
fast.  The one requirement is that submissions happen in non-decreasing
simulation time, which the event-ordered DES guarantees; the class
asserts it anyway.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.sim.hiccups import HiccupSchedule


class CoreBank:
    """``num_cores`` identical cores with a shared FCFS queue.

    Parameters
    ----------
    num_cores:
        Hardware contexts available.
    speed:
        Core speed relative to the reference core that service demands
        are expressed in: a demand of ``d`` reference-seconds executes
        in ``d / speed`` wall-clock seconds.
    hiccups:
        Optional stop-the-world pause schedule (JVM GC model).  Pauses
        freeze every core: running tasks are stretched across them and
        queued tasks cannot start inside one.
    """

    def __init__(
        self,
        num_cores: int,
        speed: float = 1.0,
        hiccups: Optional["HiccupSchedule"] = None,
    ):
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.num_cores = num_cores
        self.speed = speed
        self.hiccups = hiccups
        self._free_at: List[float] = [0.0] * num_cores
        heapq.heapify(self._free_at)
        self._last_submission = 0.0
        self._busy_time = 0.0

    def submit(self, now: float, demand: float) -> Tuple[float, float]:
        """Enqueue a task of ``demand`` reference-seconds at time ``now``.

        Returns ``(start_time, completion_time)``.
        """
        if demand < 0:
            raise ValueError(f"demand must be non-negative, got {demand}")
        if now < self._last_submission:
            raise ValueError(
                "submissions must be in non-decreasing time order: "
                f"{now} after {self._last_submission}"
            )
        self._last_submission = now
        earliest_free = self._free_at[0]
        start = earliest_free if earliest_free > now else now
        duration = demand / self.speed
        if self.hiccups is not None:
            start, end = self.hiccups.execute(start, duration)
        else:
            end = start + duration
        heapq.heapreplace(self._free_at, end)
        self._busy_time += duration
        return start, end

    def utilization(self, horizon: float) -> float:
        """Busy fraction of total core capacity over ``[0, horizon]``."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self._busy_time / (self.num_cores * horizon)

    @property
    def busy_time(self) -> float:
        """Total core-seconds of work executed so far."""
        return self._busy_time

    def next_free_time(self) -> float:
        """Earliest time any core becomes free."""
        return self._free_at[0]
