"""Tail-tolerance policy for the shard/ISN fan-out.

The paper shows intra-server partitioning shrinks *intrinsic* tails by
parallelizing long queries, but a fan-out is still hostage to its
slowest branch: one paused, overloaded, or failing shard sets the
query's latency.  :class:`HedgingPolicy` captures the three standard
request-level mitigations in one declarative object:

- **deadlines** — a per-shard-request latency budget; a shard that
  misses it is dropped from the merge and the response reports the
  fraction of shards that answered (``coverage``);
- **hedging** — after a delay (fixed, or an observed latency quantile)
  a backup request for the same shard is issued and the first answer
  wins; losers are cancelled where the runtime supports it;
- **bounded retry** — failed attempts are retried with exponential
  backoff, up to a budget.

One policy object drives *both* execution paths through one state
machine, :class:`~repro.resilience.gather.GatherMachine`: the native
:class:`~repro.engine.isn.IndexServingNode` runs it on the wall clock
and the DES broker on simulated time — keeping the simulator
calibrated against the engine's tail-tolerance behaviour, not just its
service times.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "HedgingPolicy",
    "ShardLatencyTracker",
    "DISABLED_POLICY",
]


class ShardLatencyTracker:
    """A sliding window of observed shard-request latencies.

    Quantile-based hedging needs an online estimate of "how long does a
    healthy shard request take?".  The tracker keeps the most recent
    ``window`` observations in a ring buffer and answers quantile
    queries over them.  Thread-safe: the native ISN records from its
    fan-out loop while benchmarks may snapshot concurrently.
    """

    __slots__ = ("_window", "_values", "_next", "_count", "_lock")

    def __init__(self, window: int = 512):
        if window <= 0:
            raise ValueError("window must be positive")
        self._window = window
        self._values: List[float] = [0.0] * window
        self._next = 0
        self._count = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return min(self._count, self._window)

    def observe(self, latency_s: float) -> None:
        """Record one completed shard request's latency."""
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        with self._lock:
            self._values[self._next] = float(latency_s)
            self._next = (self._next + 1) % self._window
            self._count += 1

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile of the window (None while empty)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        with self._lock:
            size = min(self._count, self._window)
            if size == 0:
                return None
            values = sorted(self._values[:size])
        # Nearest-rank on the sorted window: robust, allocation-light.
        rank = min(size - 1, int(q * size))
        return values[rank]


@dataclass(frozen=True, kw_only=True)
class HedgingPolicy:
    """Declarative tail-tolerance policy for one fan-out tier.

    All fields are keyword-only.  A default-constructed policy is
    inert (``enabled`` is False): every mechanism must be opted into.

    Attributes
    ----------
    hedge_delay_s:
        Fixed seconds to wait for a shard request before issuing a
        backup.  Production systems set this near the per-shard p95 so
        only ~5% of requests hedge.
    hedge_quantile:
        Adaptive alternative: hedge after the observed shard-latency
        quantile (e.g. ``0.95``), estimated from a sliding window.
        Until ``min_quantile_samples`` observations exist the policy
        falls back to ``hedge_delay_s`` (or does not hedge if that is
        unset too).
    min_quantile_samples:
        Warm-up threshold for quantile-based delays.
    deadline_s:
        Per-shard-request latency budget.  A request that has not
        answered within the budget is abandoned: the merge proceeds
        with the shards that did answer and the response's ``coverage``
        drops below 1.0.
    max_hedges:
        Backup requests allowed per shard request (0 disables hedging
        even when a delay is configured).
    max_retries:
        Re-issues allowed after a *failed* (errored) attempt.
    retry_backoff_s:
        Base backoff before the first retry; successive retries wait
        ``retry_backoff_s * retry_backoff_multiplier**n``.
    retry_backoff_multiplier:
        Exponential backoff growth factor.

    Outstanding sibling attempts are always cancelled the moment a
    winner answers (cancel-on-first-winner).  Attempts that already
    started may only be able to abandon work at their next cancellation
    point; queued attempts are retired outright.
    """

    hedge_delay_s: Optional[float] = None
    hedge_quantile: Optional[float] = None
    min_quantile_samples: int = 32
    deadline_s: Optional[float] = None
    max_hedges: int = 1
    max_retries: int = 1
    retry_backoff_s: float = 0.001
    retry_backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.hedge_delay_s is not None and self.hedge_delay_s <= 0:
            raise ValueError("hedge_delay_s must be positive")
        if self.hedge_quantile is not None and not (
            0.0 < self.hedge_quantile < 1.0
        ):
            raise ValueError("hedge_quantile must be in (0, 1)")
        if self.min_quantile_samples <= 0:
            raise ValueError("min_quantile_samples must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.max_hedges < 0:
            raise ValueError("max_hedges must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.retry_backoff_multiplier < 1.0:
            raise ValueError("retry_backoff_multiplier must be >= 1")

    @property
    def hedges_enabled(self) -> bool:
        """True when the policy can ever issue a backup request."""
        return self.max_hedges > 0 and (
            self.hedge_delay_s is not None or self.hedge_quantile is not None
        )

    @property
    def enabled(self) -> bool:
        """True when any tail-tolerance mechanism is active."""
        return self.hedges_enabled or self.deadline_s is not None

    def resolve_hedge_delay(
        self, tracker: Optional[ShardLatencyTracker] = None
    ) -> Optional[float]:
        """The backup-request delay to use right now (None: don't hedge).

        Quantile-based delays take over once the tracker has warmed up;
        before that the fixed ``hedge_delay_s`` (if any) applies.
        """
        if self.max_hedges <= 0:
            return None
        if (
            self.hedge_quantile is not None
            and tracker is not None
            and len(tracker) >= self.min_quantile_samples
        ):
            estimate = tracker.quantile(self.hedge_quantile)
            if estimate is not None and estimate > 0:
                return estimate
        return self.hedge_delay_s

    def retry_delay(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError("retry_index must be non-negative")
        return self.retry_backoff_s * (
            self.retry_backoff_multiplier**retry_index
        )


#: A shared inert policy: every mechanism off, plain fan-out semantics.
DISABLED_POLICY = HedgingPolicy()
