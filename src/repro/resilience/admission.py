"""Admission control: bounded queueing and load shedding.

An open-loop arrival process has no mercy: offered load above capacity
makes the queue — and therefore every latency percentile — grow without
bound.  The only way to keep a response-time SLO past the knee is to
*refuse* work: bound the admission queue and shed what does not fit,
so the queries that are served stay fast and the rest fail fast.

Three shedding policies, combinable through one declarative
:class:`OverloadPolicy`:

- **hard concurrency limit** — at most ``max_concurrency`` queries in
  service; up to ``queue_limit`` more may wait; beyond that, shed;
- **CoDel-style target-delay dropping** — a queued query whose wait
  exceeds ``codel_target_delay_s`` continuously for a full
  ``codel_interval_s`` marks the queue as *standing*; entries are then
  dropped at dequeue until the wait falls back under the target;
- **AIMD adaptive limit** — the concurrency limit itself adapts: each
  completion compares observed latency against an EWMA baseline;
  latencies beyond ``AIMD_LATENCY_FACTOR`` (2) × baseline multiplicatively
  decrease the limit, healthy ones additively increase it (one unit per
  ``limit`` completions) — the gradient limiter converges to the
  concurrency the backend can actually sustain.

The state machine (:class:`AdmissionController`) is clock-agnostic:
every method takes ``now`` so the native gate can feed it wall-clock
time and the DES broker simulated time, mirroring how
:class:`~repro.engine.hedging.HedgingPolicy` is shared.  Shed queries
are answered with a typed :class:`ShedResponse` — a degenerate
query outcome (``coverage == 0.0``, no hits) — rather than an
exception, so drivers, metrics, and analysis code keep working.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

__all__ = [
    "AimdConfig",
    "OverloadPolicy",
    "AdmissionController",
    "BlockingAdmissionGate",
    "ShedResponse",
    "SHED_CAPACITY",
    "SHED_QUEUE_FULL",
    "SHED_CODEL",
    "QUEUE_DEPTH_BUCKETS",
]

#: Shed reasons, shared by both interpreters.
SHED_CAPACITY = "capacity"  # concurrency full and no queue configured
SHED_QUEUE_FULL = "queue_full"  # admission queue at its bound
SHED_CODEL = "codel"  # dropped at dequeue by target-delay control

#: AIMD gradient constants: additive growth per completion, scaled by
#: the current limit (``limit += AIMD_INCREASE / limit``, roughly one
#: unit per ``limit`` healthy completions); the multiplicative cut on a
#: breach; the breach threshold as a multiple of the EWMA baseline; and
#: the baseline smoothing factor (only healthy samples update it, so a
#: congested period cannot drag the baseline up after itself).
AIMD_INCREASE = 1.0
AIMD_DECREASE_FACTOR = 0.7
AIMD_LATENCY_FACTOR = 2.0
AIMD_EWMA_ALPHA = 0.05


@dataclass(frozen=True)
class ShedResponse:
    """The typed answer to a query the admission layer refused.

    Satisfies the :class:`repro.api.QueryOutcome` protocol — analysis
    code that iterates outcomes sees an answer with ``coverage`` 0.0
    and an empty result list, and can split shed from served via the
    ``shed`` flag (``True`` here, absent/False on real responses).
    """

    reason: str
    latency_s: float = 0.0
    query: str = ""

    #: Class-level marker: ``getattr(outcome, "shed", False)`` is the
    #: idiomatic served/shed test across all outcome types.
    shed = True

    #: No results were computed, so no hits back a rendered page.
    hits: Tuple = ()

    @property
    def coverage(self) -> float:
        """Zero — no shard contributed to this (non-)answer."""
        return 0.0

    def doc_ids(self) -> List[int]:
        """Empty — shed queries carry no results."""
        return []


@dataclass(frozen=True, kw_only=True)
class AimdConfig:
    """Adaptive (AIMD) concurrency limiting parameters.

    Attributes
    ----------
    initial_limit:
        Concurrency limit before any feedback arrives.
    min_limit / max_limit:
        Clamp for the adapted limit.
    cooldown_s:
        Minimum time between two multiplicative decreases — one queue's
        worth of slow completions must count as one congestion event.
    baseline_latency_s:
        Optional prior for the baseline; None starts from the first
        observed completion.
    """

    initial_limit: float = 32.0
    min_limit: float = 1.0
    max_limit: float = 1024.0
    cooldown_s: float = 0.05
    baseline_latency_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.min_limit >= 1:
            raise ValueError("min_limit must be >= 1")
        if self.max_limit < self.min_limit:
            raise ValueError("max_limit must be >= min_limit")
        if not self.min_limit <= self.initial_limit <= self.max_limit:
            raise ValueError("initial_limit must lie in [min, max]")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        if self.baseline_latency_s is not None and self.baseline_latency_s <= 0:
            raise ValueError("baseline_latency_s must be positive")


@dataclass(frozen=True, kw_only=True)
class OverloadPolicy:
    """Declarative admission-control policy for one serving tier.

    All fields are keyword-only, and — like
    :class:`~repro.engine.hedging.HedgingPolicy` — a default-constructed
    policy is inert: every mechanism must be opted into.

    Attributes
    ----------
    max_concurrency:
        Hard cap on queries in service at once (None: uncapped, unless
        ``aimd`` supplies an adaptive cap).
    queue_limit:
        Bounded admission-queue depth for queries that arrive while the
        concurrency limit is saturated.  0 (the default) sheds
        immediately at the limit.
    codel_target_delay_s:
        Target queueing delay for CoDel-style dropping; None disables
        delay-based dropping (the queue bound alone sheds).
    codel_interval_s:
        How long the queue delay must stay above target before the
        controller starts dropping.
    aimd:
        Optional adaptive concurrency limiter.  Combines with
        ``max_concurrency`` as a minimum (the hard cap is a ceiling the
        adaptive limit cannot exceed).
    """

    max_concurrency: Optional[int] = None
    queue_limit: int = 0
    codel_target_delay_s: Optional[float] = None
    codel_interval_s: float = 0.1
    aimd: Optional[AimdConfig] = None

    def __post_init__(self) -> None:
        if self.max_concurrency is not None and self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if (
            self.codel_target_delay_s is not None
            and self.codel_target_delay_s <= 0
        ):
            raise ValueError("codel_target_delay_s must be positive")
        if self.codel_interval_s <= 0:
            raise ValueError("codel_interval_s must be positive")

    @property
    def enabled(self) -> bool:
        """True when any admission mechanism is active."""
        return self.max_concurrency is not None or self.aimd is not None


#: Bucket edges for the admission-queue-depth histograms (queries
#: waiting), shared by the native gate and the simulated broker.
QUEUE_DEPTH_BUCKETS = tuple(float(i) for i in range(0, 65, 4))


class AdmissionController:
    """The admission state machine, shared by both execution paths.

    Clock-agnostic: callers pass ``now`` (wall-clock seconds for the
    native gate, simulated seconds for the DES broker).  The controller
    tracks in-flight and queued counts and implements the three
    policies; the *actual* queue (blocked threads natively, pending
    query states in the DES) belongs to the interpreter.
    """

    def __init__(self, policy: OverloadPolicy):
        if not policy.enabled:
            raise ValueError(
                "policy enables no admission mechanism; "
                "pass None instead of an inert policy"
            )
        self.policy = policy
        self.in_flight = 0
        self.queue_depth = 0
        self.shed_count = 0
        self.served_count = 0
        aimd = policy.aimd
        self._limit = (
            float(aimd.initial_limit)
            if aimd is not None
            else float(policy.max_concurrency)
        )
        self._ewma = aimd.baseline_latency_s if aimd is not None else None
        self._last_decrease = float("-inf")
        # CoDel sojourn tracking.
        self._above_since: Optional[float] = None
        self._dropping = False

    @property
    def limit(self) -> float:
        """The effective concurrency limit right now."""
        if self.policy.aimd is not None and self.policy.max_concurrency:
            return min(self._limit, float(self.policy.max_concurrency))
        return self._limit

    @property
    def aimd_limit(self) -> float:
        """The raw adaptive limit (equals :attr:`limit` without a cap)."""
        return self._limit

    def can_admit(self) -> bool:
        """True when a query could enter service immediately."""
        return self.in_flight < self.limit

    def decide(self, now: float) -> str:
        """Classify an arrival: ``"admit"``, ``"queue"``, or a shed reason."""
        if self.can_admit():
            return "admit"
        if self.queue_depth < self.policy.queue_limit:
            return "queue"
        return SHED_QUEUE_FULL if self.policy.queue_limit > 0 else SHED_CAPACITY

    def admit(self, now: float) -> None:
        """A query enters service."""
        self.in_flight += 1

    def enqueue(self, now: float) -> None:
        """A query starts waiting in the admission queue."""
        self.queue_depth += 1

    def dequeue(self, now: float, enqueued_at: float) -> bool:
        """A queued query reaches the head with a free slot.

        Returns True when the query is admitted into service, False
        when the CoDel controller drops it (the caller sheds it with
        reason :data:`SHED_CODEL`).
        """
        self.queue_depth -= 1
        target = self.policy.codel_target_delay_s
        if target is not None:
            delay = now - enqueued_at
            if delay <= target:
                # The queue drained under target: leave dropping state.
                self._above_since = None
                self._dropping = False
            else:
                if self._above_since is None:
                    self._above_since = now
                if now - self._above_since >= self.policy.codel_interval_s:
                    self._dropping = True
                if self._dropping:
                    self.shed_count += 1
                    return False
        self.in_flight += 1
        return True

    def shed(self, now: float) -> None:
        """A query was refused at arrival (capacity/queue_full)."""
        self.shed_count += 1

    def abandon(self, now: float) -> None:
        """An admitted query left service before any work was done for
        it (nobody to dispatch it to): the slot frees, and there is no
        latency for the AIMD gradient to learn from."""
        self.in_flight -= 1

    def complete(self, now: float, latency_s: float) -> None:
        """A served query finished; feeds the AIMD gradient."""
        self.in_flight -= 1
        self.served_count += 1
        aimd = self.policy.aimd
        if aimd is None:
            return
        if self._ewma is None:
            self._ewma = float(latency_s)
            return
        if latency_s > AIMD_LATENCY_FACTOR * self._ewma:
            if now - self._last_decrease >= aimd.cooldown_s:
                self._limit = max(
                    aimd.min_limit, self._limit * AIMD_DECREASE_FACTOR
                )
                self._last_decrease = now
        else:
            self._ewma += AIMD_EWMA_ALPHA * (float(latency_s) - self._ewma)
            self._limit = min(
                aimd.max_limit, self._limit + AIMD_INCREASE / max(1.0, self._limit)
            )


class BlockingAdmissionGate:
    """Wall-clock interpreter of an :class:`OverloadPolicy`.

    Wraps an :class:`AdmissionController` with a condition variable so
    real caller threads form the bounded FIFO admission queue: a caller
    either enters service, waits its turn (and may be CoDel-dropped at
    dequeue), or is shed immediately.
    """

    def __init__(
        self,
        policy: OverloadPolicy,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.controller = AdmissionController(policy)
        self._clock = clock
        self._cond = threading.Condition()
        self._waiters: Deque[int] = deque()
        self._next_ticket = 0

    def acquire(self) -> Optional[str]:
        """Try to enter service; blocks while queued.

        Returns None when admitted, or the shed reason when refused.
        """
        with self._cond:
            controller = self.controller
            now = self._clock()
            decision = controller.decide(now)
            if decision == "admit":
                controller.admit(now)
                return None
            if decision != "queue":
                controller.shed(now)
                return decision
            ticket = self._next_ticket
            self._next_ticket += 1
            self._waiters.append(ticket)
            controller.enqueue(now)
            enqueued_at = now
            while not (
                self._waiters[0] == ticket and controller.can_admit()
            ):
                self._cond.wait()
            self._waiters.popleft()
            admitted = controller.dequeue(self._clock(), enqueued_at)
            # Whether admitted or dropped, a queue slot freed up.
            self._cond.notify_all()
            return None if admitted else SHED_CODEL

    def release(self, latency_s: float) -> None:
        """A served query finished: free its slot and wake waiters."""
        with self._cond:
            self.controller.complete(self._clock(), float(latency_s))
            self._cond.notify_all()
