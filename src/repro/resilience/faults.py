"""Deterministic, seedable fault injection for both execution paths.

A resilience layer that has never seen a failure is decoration.  This
module provides the *chaos harness*: a declarative :class:`FaultPlan`
listing shard slowdowns, crash/restart windows, and error bursts on a
shared timeline, interpreted by both execution paths —

- the **DES broker** (:func:`repro.cluster.fanout.run_fanout_open_loop`)
  folds crash windows into each replica's stall schedule, scales
  dispatched work by the slowdown factor, and converts error bursts
  into instantaneous failure responses drawn from a dedicated
  ``"faults"`` random stream;
- the **native ISN** wraps each shard search with a wall-clock
  :class:`FaultInjector` that raises :class:`InjectedFault` for crashes
  and errors (flowing through the existing retry machinery) and pads
  service time for slowdowns.

Faults address a shard and optionally a single replica; the plan is a
frozen value object, so the same plan drives a simulation, a native
run, and a pytest fixture with identical meaning.  Corrupted-postings
detection — the storage-level fault — lives in
:mod:`repro.index.serialization` as checksum verification.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "ShardSlowdown",
    "ShardCrash",
    "ErrorBurst",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
]


class InjectedFault(RuntimeError):
    """Raised by the native injector in place of a real shard failure.

    ``kind`` is ``"crash"`` or ``"error"``; the fan-out's retry/breaker
    machinery treats it like any other shard exception.
    """

    def __init__(self, kind: str, shard: int, message: str):
        super().__init__(message)
        self.kind = kind
        self.shard = shard


def _applies(fault_shard: int, fault_replica: Optional[int],
             shard: int, replica: Optional[int]) -> bool:
    if fault_shard != shard:
        return False
    return fault_replica is None or replica is None or fault_replica == replica


@dataclass(frozen=True, kw_only=True)
class ShardSlowdown:
    """Multiply a shard's service demand by ``factor`` during a window."""

    shard: int
    start_s: float
    duration_s: float
    factor: float
    replica: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("slowdown window must have start>=0, duration>0")
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1.0")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True, kw_only=True)
class ShardCrash:
    """Shard is down (no answers at all) during a window, then restarts."""

    shard: int
    start_s: float
    duration_s: float
    replica: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("crash window must have start>=0, duration>0")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True, kw_only=True)
class ErrorBurst:
    """Shard answers a fraction of requests with an error during a window."""

    shard: int
    start_s: float
    duration_s: float
    error_rate: float
    replica: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("error window must have start>=0, duration>0")
        if not 0.0 < self.error_rate <= 1.0:
            raise ValueError("error_rate must be in (0, 1]")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True, kw_only=True)
class FaultPlan:
    """A declarative, seedable schedule of injected faults.

    The timeline starts at 0 — simulated time for the DES broker, time
    since :meth:`FaultInjector.start` for the native path — so one plan
    means the same thing in both interpreters.  ``seed`` feeds the
    probabilistic decisions (error bursts); everything else is a fixed
    window, so a plan replays identically run after run.
    """

    slowdowns: Tuple[ShardSlowdown, ...] = ()
    crashes: Tuple[ShardCrash, ...] = ()
    error_bursts: Tuple[ErrorBurst, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept lists for ergonomics but store hashable tuples.
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "error_bursts", tuple(self.error_bursts))

    @property
    def enabled(self) -> bool:
        return bool(self.slowdowns or self.crashes or self.error_bursts)

    def crash_windows(
        self, shard: int, replica: Optional[int] = None
    ) -> Tuple[Tuple[float, float], ...]:
        """Sorted (start, end) outage windows for one shard/replica."""
        windows = [
            (crash.start_s, crash.end_s)
            for crash in self.crashes
            if _applies(crash.shard, crash.replica, shard, replica)
        ]
        return tuple(sorted(windows))

    def crashed(self, shard: int, replica: Optional[int], now: float) -> bool:
        return any(
            crash.active(now)
            for crash in self.crashes
            if _applies(crash.shard, crash.replica, shard, replica)
        )

    def slowdown_factor(
        self, shard: int, replica: Optional[int], now: float
    ) -> float:
        """Combined service-demand multiplier at ``now`` (1.0 = healthy)."""
        factor = 1.0
        for slow in self.slowdowns:
            if _applies(slow.shard, slow.replica, shard, replica):
                if slow.active(now):
                    factor *= slow.factor
        return factor

    def error_rate(
        self, shard: int, replica: Optional[int], now: float
    ) -> float:
        """Probability that a request at ``now`` draws an injected error."""
        ok = 1.0
        for burst in self.error_bursts:
            if _applies(burst.shard, burst.replica, shard, replica):
                if burst.active(now):
                    ok *= 1.0 - burst.error_rate
        return 1.0 - ok

    def describe(self) -> List[str]:
        """Human-readable schedule, one line per fault (for ``--dry-run``)."""
        lines: List[str] = []

        def where(shard: int, replica: Optional[int]) -> str:
            if replica is None:
                return f"shard {shard}"
            return f"shard {shard} replica {replica}"

        for crash in sorted(self.crashes, key=lambda c: (c.start_s, c.shard)):
            lines.append(
                f"crash    {where(crash.shard, crash.replica)}: "
                f"[{crash.start_s:.3f}s, {crash.end_s:.3f}s)"
            )
        for slow in sorted(self.slowdowns, key=lambda s: (s.start_s, s.shard)):
            lines.append(
                f"slowdown {where(slow.shard, slow.replica)}: "
                f"[{slow.start_s:.3f}s, {slow.end_s:.3f}s) x{slow.factor:g}"
            )
        for burst in sorted(
            self.error_bursts, key=lambda e: (e.start_s, e.shard)
        ):
            lines.append(
                f"errors   {where(burst.shard, burst.replica)}: "
                f"[{burst.start_s:.3f}s, {burst.end_s:.3f}s) "
                f"p={burst.error_rate:g}"
            )
        if not lines:
            lines.append("(no faults)")
        return lines

    @classmethod
    def flapping_shard(
        cls,
        shard: int,
        *,
        period_s: float,
        duty: float,
        horizon_s: float,
        start_s: float = 0.0,
        replica: Optional[int] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Plan where one shard crashes for ``duty`` of every period.

        The canonical bench_fig24 scenario: the shard is down for
        ``duty * period_s`` at the start of each period from ``start_s``
        until ``horizon_s``, coming back up in between — a flapping
        replica that repeatedly poisons the fan-out unless a breaker
        fences it off.
        """
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        crashes = []
        begin = start_s
        while begin < horizon_s:
            crashes.append(
                ShardCrash(
                    shard=shard,
                    start_s=begin,
                    duration_s=duty * period_s,
                    replica=replica,
                )
            )
            begin += period_s
        return cls(crashes=tuple(crashes), seed=seed)


class FaultInjector:
    """Wall-clock interpreter of a :class:`FaultPlan` for the native ISN.

    The plan's timeline is anchored at construction (or an explicit
    :meth:`start`); shard searches then consult it with real elapsed
    time.  Error-burst draws use a private seeded RNG behind a lock, so
    concurrent pool threads stay deterministic in aggregate (the set of
    draws depends only on the seed and the number of requests, not on
    thread interleaving of *other* RNGs).
    """

    def __init__(self, plan: FaultPlan, clock=time.perf_counter):
        self.plan = plan
        self._clock = clock
        self._epoch = clock()
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self.injected_crashes = 0
        self.injected_errors = 0
        self.injected_slowdowns = 0

    def start(self) -> None:
        """Re-anchor the plan timeline at 'now'."""
        self._epoch = self._clock()

    def elapsed(self) -> float:
        return self._clock() - self._epoch

    def before_search(self, shard: int) -> None:
        """Raise :class:`InjectedFault` if the shard should fail now."""
        now = self.elapsed()
        if self.plan.crashed(shard, None, now):
            with self._lock:
                self.injected_crashes += 1
            raise InjectedFault(
                "crash", shard, f"injected crash on shard {shard} at {now:.3f}s"
            )
        rate = self.plan.error_rate(shard, None, now)
        if rate > 0.0:
            with self._lock:
                draw = self._rng.random()
                if draw < rate:
                    self.injected_errors += 1
                    raise InjectedFault(
                        "error",
                        shard,
                        f"injected error on shard {shard} at {now:.3f}s",
                    )

    def slowdown_sleep(self, shard: int, service_elapsed_s: float) -> None:
        """Pad a completed shard search to simulate a slowdown.

        With factor ``f`` the search should have taken ``f * elapsed``,
        so sleep the missing ``(f - 1) * elapsed``.
        """
        factor = self.plan.slowdown_factor(shard, None, self.elapsed())
        if factor > 1.0 and service_elapsed_s > 0.0:
            with self._lock:
                self.injected_slowdowns += 1
            time.sleep((factor - 1.0) * service_elapsed_s)
