"""Per-shard circuit breakers with health tracking.

A shard that is down — crashed, partitioned away, or stuck behind a
multi-second pause — fails every request sent to it, and each failed
request costs the fan-out a deadline's worth of waiting plus a retry's
worth of work.  A circuit breaker converts that repeated discovery
into state: after ``failure_threshold`` consecutive failures the
breaker *opens* and the fan-out skips the shard outright (degrading
coverage exactly like a deadline miss — partial answers are never
cached); after ``recovery_time_s`` it goes *half-open* and lets a
bounded number of probe requests through; ``success_threshold`` probe
successes close it again, while a single probe failure re-opens it.

The breaker is clock-agnostic (every method takes ``now``), so the
native ISN drives it with wall-clock time and the DES broker with
simulated time — one more policy object interpreted identically by
both execution paths.  It is also thread-safe: the native fan-out
records outcomes from pool threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Hashable

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "BreakerBoard",
]


class BreakerState(Enum):
    """The classic three-state breaker machine."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True, kw_only=True)
class BreakerConfig:
    """Declarative per-shard circuit-breaker policy.

    Attributes
    ----------
    failure_threshold:
        Consecutive failures (errors or deadline misses) that trip a
        closed breaker open.
    recovery_time_s:
        How long an open breaker blocks traffic before allowing
        half-open probes.
    half_open_probes:
        Probe requests allowed in flight at once while half-open.
    success_threshold:
        Probe successes required to close a half-open breaker.
    """

    failure_threshold: int = 5
    recovery_time_s: float = 1.0
    half_open_probes: int = 1
    success_threshold: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if self.recovery_time_s <= 0:
            raise ValueError("recovery_time_s must be positive")
        if self.half_open_probes <= 0:
            raise ValueError("half_open_probes must be positive")
        if self.success_threshold <= 0:
            raise ValueError("success_threshold must be positive")


class CircuitBreaker:
    """One shard's closed/open/half-open health state machine."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = float("nan")
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips = 0  # lifetime open transitions
        self.probes = 0  # lifetime half-open probes let through
        self._lock = threading.Lock()

    def state(self, now: float) -> BreakerState:
        """Current state, applying the timed OPEN → HALF_OPEN move."""
        with self._lock:
            return self._sync(now)

    def allow(self, now: float) -> bool:
        """May a request be sent to this shard right now?

        In half-open state a True answer *reserves* one of the bounded
        probe slots; the caller must report the probe's outcome via
        :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            state = self._sync(now)
            if state is BreakerState.CLOSED:
                return True
            if state is BreakerState.OPEN:
                return False
            if self._probes_in_flight < self.config.half_open_probes:
                self._probes_in_flight += 1
                self.probes += 1
                return True
            return False

    def record_success(self, now: float) -> None:
        """A request to this shard answered healthily."""
        with self._lock:
            state = self._sync(now)
            if state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.config.success_threshold:
                    self._close()
            else:
                self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        """A request to this shard failed or missed its deadline."""
        with self._lock:
            state = self._sync(now)
            if state is BreakerState.HALF_OPEN:
                # A failed probe re-opens immediately: the shard is
                # still sick, restart the recovery clock.
                self._trip(now)
            elif state is BreakerState.CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.config.failure_threshold:
                    self._trip(now)
            # Failures while OPEN (late answers from before the trip)
            # carry no new information.

    # -- internals (lock held) -----------------------------------------

    def _sync(self, now: float) -> BreakerState:
        if (
            self._state is BreakerState.OPEN
            and now - self._opened_at >= self.config.recovery_time_s
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
            self._probe_successes = 0
        return self._state

    def _trip(self, now: float) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = now
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips += 1

    def _close(self) -> None:
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0


class BreakerBoard:
    """Lazily-created breakers keyed by shard (or (shard, replica)).

    The native ISN keys by shard index; the DES broker keys by
    ``(shard, replica)`` so one sick replica does not sideline its
    healthy siblings.
    """

    def __init__(self, config: BreakerConfig):
        self.config = config
        self._breakers: Dict[Hashable, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self._probes_exported = 0

    def breaker(self, key: Hashable) -> CircuitBreaker:
        """Get (creating on first use) the breaker for ``key``."""
        with self._lock:
            existing = self._breakers.get(key)
            if existing is None:
                existing = CircuitBreaker(self.config)
                self._breakers[key] = existing
            return existing

    def allow(self, key: Hashable, now: float) -> bool:
        """The one consult: may a request go to ``key`` now?  A half-open
        yes reserves a probe slot and is counted in :attr:`probes`."""
        return self.breaker(key).allow(now)

    def states(self, now: float) -> Dict[Hashable, BreakerState]:
        """Snapshot of every breaker's state."""
        with self._lock:
            items = list(self._breakers.items())
        return {key: breaker.state(now) for key, breaker in items}

    @property
    def trips(self) -> int:
        """Total open transitions across all breakers."""
        with self._lock:
            return sum(breaker.trips for breaker in self._breakers.values())

    @property
    def probes(self) -> int:
        """Total half-open probes let through across all breakers."""
        with self._lock:
            return sum(breaker.probes for breaker in self._breakers.values())

    def export_gauges(
        self, metrics, prefix: str, now: float
    ) -> None:
        """Write per-key state gauges into a metrics registry.

        Gauge value encodes the state: 0 closed, 1 half-open, 2 open —
        so dashboards can plot "how much of the cluster is fenced off".
        The ``{prefix}_probes`` counter gets the probes let through
        since the last export.
        """
        with self._lock:
            probes = sum(breaker.probes for breaker in self._breakers.values())
            unexported = probes - self._probes_exported
            self._probes_exported = probes
        metrics.counter(f"{prefix}_probes").add(unexported)
        encoding = {
            BreakerState.CLOSED: 0.0,
            BreakerState.HALF_OPEN: 1.0,
            BreakerState.OPEN: 2.0,
        }
        for key, state in sorted(
            self.states(now).items(), key=lambda item: str(item[0])
        ):
            label = (
                "-".join(str(part) for part in key)
                if isinstance(key, tuple)
                else str(key)
            )
            metrics.gauge(f"{prefix}.{label}.state").set(encoding[state])
