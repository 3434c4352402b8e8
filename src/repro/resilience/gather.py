"""One query's gather: the hedge / retry / deadline state machine.

A fan-out must decide each of its *slots* (a query's shards) exactly
once: answered, deadline missed, fenced off by breakers, or exhausted
(failed beyond the retry budget, or nothing left to ask).  How a
:class:`~repro.engine.hedging.HedgingPolicy` turns stragglers and
failures into hedges, retries and misses is decided here only.  The
machine holds no clock, thread or simulator: a driver — the native
ISN's gather on ``perf_counter``, the DES broker on ``sim.now`` —
feeds it timed events and carries out its actions, in order:
``send(slot, kind, now)`` an attempt and report :data:`SENT`,
:data:`BLOCKED` or :data:`EXHAUSTED`; ``arm(timer, slot, at)`` a call
of ``on_due(timer, slot, at)``; ``settle(slot, why, now)``, cancelling
what is in flight or armed for the slot.  Replica choice, the breaker
consult, fault injection and latency tracking stay in the drivers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.hedging import HedgingPolicy, ShardLatencyTracker

#: Attempt kinds.
PRIMARY, HEDGE, RETRY = "primary", "hedge", "retry"
#: What became of a ``send``; the last two are also why a slot settled.
SENT, BLOCKED, EXHAUSTED = "sent", "blocked", "exhausted"
#: Why else a slot settled.
ANSWERED, DEADLINE_MISS = "answered", "deadline"
#: Timers, in the order a driver fires those it finds due together.
DEADLINE, RETRY_TIMER, HEDGE_TIMER = 0, 1, 2


class GatherMachine:
    """The tail-tolerance state of one query's gather.

    Per slot it keeps the hedges, the retries and the decided flag; per
    query the counts below, which read 0 until :meth:`start`.  A
    subclass implements the actions ``send``, ``arm`` and ``settle``.
    """

    answers = hedges_issued = hedges_won = deadline_misses = 0
    retries = breaker_skips = exhausted = 0
    #: Slots not yet decided.
    undecided = 0

    def start(
        self,
        policy: HedgingPolicy,
        now: float,
        slots: int,
        hedgeable: Optional[Sequence[bool]] = None,
        tracker: Optional[ShardLatencyTracker] = None,
        sent: bool = False,
    ) -> None:
        """Send each slot's primary (unless the driver ``sent`` them all
        already), then arm its hedge timer — when the policy hedges and
        ``hedgeable[slot]``, if given — and its deadline timer.
        ``tracker`` feeds a quantile hedge delay, resolved once here."""
        self._policy = policy
        delay = self._delay = policy.resolve_hedge_delay(tracker)
        deadline = policy.deadline_s
        self.deadline_at = float("inf") if deadline is None else now + deadline
        self.undecided = slots
        #: Per slot; events for a decided slot are ignored.
        self.decided: List[bool] = [False] * slots
        self._hedges = [0] * slots
        self._retries = [0] * slots
        for slot in range(slots):
            if not sent:
                status = self.send(slot, PRIMARY, now)
                if status != SENT:
                    self._decide(slot, status, now)
                    continue
            if delay is not None and (hedgeable is None or hedgeable[slot]):
                self.arm(HEDGE_TIMER, slot, now + delay)
            if deadline is not None:
                self.arm(DEADLINE, slot, self.deadline_at)

    def on_answer(self, slot: int, kind: str, now: float) -> None:
        """An attempt answered; the first before the verdict wins."""
        if self.decided[slot]:
            return
        self.answers += 1
        if kind == HEDGE:
            self.hedges_won += 1
        self.decided[slot] = True  # _decide, inlined: the hot path
        self.undecided -= 1
        self.settle(slot, ANSWERED, now)

    def on_failure(self, slot: int, now: float) -> None:
        """An attempt failed: retry after backoff, or give the slot up."""
        if self.decided[slot] or self._missed(slot, now):
            return
        tries = self._retries[slot]
        if tries < self._policy.max_retries:
            self._retries[slot] = tries + 1
            self.retries += 1
            self.arm(RETRY_TIMER, slot, now + self._policy.retry_delay(tries))
        else:
            self._decide(slot, EXHAUSTED, now)

    def on_due(self, timer: int, slot: int, now: float) -> None:
        """A timer armed for ``slot`` is due."""
        if self.decided[slot] or self._missed(slot, now):
            return
        if timer == DEADLINE:
            self._decide(slot, DEADLINE_MISS, now)
        elif timer == RETRY_TIMER:
            status = self.send(slot, RETRY, now)
            if status != SENT:
                self._decide(slot, status, now)
        elif self.send(slot, HEDGE, now) == SENT:
            # A hedge that cannot go out retires the slot's hedge timer.
            self._hedges[slot] += 1
            self.hedges_issued += 1
            if self._hedges[slot] < self._policy.max_hedges:
                self.arm(HEDGE_TIMER, slot, now + self._delay)

    def abandon(self) -> None:
        """The driver gave the whole query up: ignore later events."""
        self.decided = [True] * len(self.decided)
        self.undecided = 0

    def _missed(self, slot: int, now: float) -> bool:
        """The deadline is decided first: a timer or failure that finds
        the slot past it (a polling driver woke late) settles a miss."""
        if now > self.deadline_at:
            self._decide(slot, DEADLINE_MISS, now)
            return True
        return False

    def _decide(self, slot: int, why: str, now: float) -> None:
        if why == DEADLINE_MISS:
            self.deadline_misses += 1
        elif why == BLOCKED:
            self.breaker_skips += 1
        elif why == EXHAUSTED:
            self.exhausted += 1
        self.decided[slot] = True
        self.undecided -= 1
        self.settle(slot, why, now)
