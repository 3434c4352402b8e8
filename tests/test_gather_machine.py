"""The gather state machine on scripted time.

:class:`~repro.resilience.gather.GatherMachine` holds no clock, so a
scripted driver — a heap of timed events and a log of the machine's
actions — runs it exactly.  Three kinds of test use that:

- exact counterparts of two wall-clock tests, which reach the same
  machine through the native ISN's gather:
  ``test_fanout_hedging.py::TestNativeDesParity`` (three straggling
  primaries, three hedges, three wins, no miss) and
  ``test_process_lanes.py::TestHedgingOnProcesses::
  test_deadline_degrades_coverage`` (one slowed shard, one miss,
  coverage 0.5);
- the deadline decided before a retry that is due with it, through the
  node's own driver class and a real breaker board: a miss, no send,
  no half-open probe;
- a conservation property over drawn policies and drawn interleavings
  of events.
"""

from __future__ import annotations

import heapq
from concurrent.futures import Future

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.hedging import HedgingPolicy
from repro.engine.isn import _Gather
from repro.resilience.breaker import BreakerBoard, BreakerConfig, BreakerState
from repro.resilience.gather import (
    ANSWERED,
    BLOCKED,
    DEADLINE,
    DEADLINE_MISS,
    EXHAUSTED,
    HEDGE,
    HEDGE_TIMER,
    PRIMARY,
    RETRY_TIMER,
    SENT,
    GatherMachine,
)

#: Healthy and straggling attempt latencies of the scripted scenarios.
FAST_S, STRAGGLE_S = 0.001, 0.25


class ScriptedGather(GatherMachine):
    """A driver on a scripted clock.

    ``outcome(slot, kind)`` says what a sent attempt does: ``(delay,
    True)`` answers after ``delay``, ``(delay, False)`` fails after it,
    ``None`` never comes back.  ``statuses`` (cycled) is what each
    ``send`` returns.  ``actions`` logs every action in order.
    """

    def __init__(self, outcome, statuses=(SENT,)):
        self.outcome = outcome
        self.statuses = list(statuses)
        self.sends = 0
        self.actions = []
        self.events = []  # heap of (time, seq, event)
        self.seq = 0

    def push(self, at, event):
        heapq.heappush(self.events, (at, self.seq, event))
        self.seq += 1

    def send(self, slot, kind, now):
        self.actions.append(("send", slot, kind))
        status = self.statuses[self.sends % len(self.statuses)]
        self.sends += 1
        if status == SENT:
            result = self.outcome(slot, kind)
            if result is not None:
                delay, answers = result
                self.push(now + delay, ("reply", slot, kind, answers))
        return status

    def arm(self, timer, slot, at):
        self.actions.append(("arm", timer, slot))
        self.push(at, ("due", timer, slot))

    def settle(self, slot, why, now):
        self.actions.append(("settle", slot, why))

    def run(self):
        """Deliver every event in time order (ties in arming order)."""
        while self.events:
            now, _, event = heapq.heappop(self.events)
            if event[0] == "due":
                self.on_due(event[1], event[2], now)
            elif event[3]:
                self.on_answer(event[1], event[2], now)
            else:
                self.on_failure(event[1], now)


def run_scripted(policy, slots, outcome, now=0.0):
    gather = ScriptedGather(outcome)
    gather.start(policy, now, slots)
    gather.run()
    return gather


class TestExactCounterparts:
    def test_three_stragglers_hedge_and_win(self):
        """``TestNativeDesParity``: of ten two-shard queries, 2, 5 and 7
        have a straggling shard-0 primary; a 50 ms hedge delay hedges
        exactly those, and every hedge wins."""
        policy = HedgingPolicy(hedge_delay_s=0.05, max_hedges=1)
        totals = [0, 0, 0]
        for index in range(10):
            slow = index in {2, 5, 7}

            def outcome(slot, kind, slow=slow):
                straggles = slow and slot == 0 and kind == PRIMARY
                return (STRAGGLE_S if straggles else FAST_S, True)

            gather = run_scripted(policy, 2, outcome)
            assert gather.answers == 2
            totals[0] += gather.hedges_issued
            totals[1] += gather.hedges_won
            totals[2] += gather.deadline_misses
            if slow:
                assert gather.actions == [
                    ("send", 0, PRIMARY),
                    ("arm", HEDGE_TIMER, 0),
                    ("send", 1, PRIMARY),
                    ("arm", HEDGE_TIMER, 1),
                    ("settle", 1, ANSWERED),
                    ("send", 0, HEDGE),
                    ("settle", 0, ANSWERED),
                ]
        assert tuple(totals) == (3, 3, 0)

    def test_deadline_degrades_coverage(self):
        """``TestHedgingOnProcesses::test_deadline_degrades_coverage``:
        a 150 ms deadline, shard 0 padded to 600 ms, shard 1 healthy."""
        policy = HedgingPolicy(deadline_s=0.15)
        gather = run_scripted(
            policy, 2, lambda slot, kind: (0.6 if slot == 0 else FAST_S, True)
        )
        assert gather.deadline_misses == 1
        assert gather.answers / 2 == 0.5
        assert ("settle", 0, DEADLINE_MISS) in gather.actions
        assert gather.hedges_issued == gather.retries == 0


class _PendingBackend:
    """Records each submission; its futures never finish."""

    def __init__(self):
        self.submitted = []

    def submit(self, items, token, max_docs, crash_retries):
        self.submitted.extend(items)
        return [Future() for _ in items]


def test_a_late_turn_decides_the_deadline_before_a_due_retry():
    """Shard 0's primary fails and trips its breaker; the retry and the
    deadline both come due before the native loop wakes again, by which
    time the breaker is half-open.  The deadline is decided first: a
    miss, and neither a send nor a probe."""
    board = BreakerBoard(
        BreakerConfig(failure_threshold=1, recovery_time_s=0.01)
    )
    backend = _PendingBackend()
    gather = _Gather()
    gather.attach(backend, [(0, "query"), (1, "query")], None, 0, board)
    gather.start(HedgingPolicy(deadline_s=0.1, max_retries=1), 0.0, 2)
    assert len(backend.submitted) == 2
    board.breaker(0).record_failure(0.02)
    gather.on_failure(0, 0.02)
    assert gather.timers[0, RETRY_TIMER] < gather.timers[0, DEADLINE]

    late = 0.5
    assert board.breaker(0).state(late) is BreakerState.HALF_OPEN
    gather.on_due(RETRY_TIMER, 0, late)
    assert gather.deadline_misses == 1
    assert gather.breaker_skips == 0
    assert gather.decided[0]
    assert len(backend.submitted) == 2  # no retry went out
    assert board.probes == 0
    assert (0, DEADLINE) not in gather.timers  # settled: timers dropped


# -- conservation -----------------------------------------------------------

policies = st.builds(
    HedgingPolicy,
    hedge_delay_s=st.none() | st.floats(0.001, 0.2),
    deadline_s=st.none() | st.floats(0.001, 0.5),
    max_hedges=st.integers(0, 3),
    max_retries=st.integers(0, 3),
    retry_backoff_s=st.floats(0.0, 0.05),
    retry_backoff_multiplier=st.floats(1.0, 3.0),
)


class InterleavedGather(ScriptedGather):
    """Delivers whichever pending event a drawn index picks — any
    in-flight attempt or armed timer, in any order — on a clock that
    only moves forward (a timer delivered after a later one is late)."""

    def __init__(self, picks, answers, statuses):
        super().__init__(None, statuses)
        self.picks, self.answers_drawn = picks, answers
        self.pending = []
        self.now = 0.0

    def send(self, slot, kind, now):
        self.actions.append(("send", slot, kind))
        status = self.statuses[self.sends % len(self.statuses)]
        self.sends += 1
        if status == SENT:
            self.pending.append(("reply", slot, kind, now + FAST_S))
        return status

    def arm(self, timer, slot, at):
        self.actions.append(("arm", timer, slot))
        self.pending.append(("due", timer, slot, at))

    def run(self):
        step = 0
        while self.pending:
            pick = self.picks[step] if step < len(self.picks) else 0
            event = self.pending.pop(pick % len(self.pending))
            self.now = max(self.now, event[3])
            if event[0] == "due":
                self.on_due(event[1], event[2], self.now)
            elif not self.answers_drawn or self.answers_drawn[
                step % len(self.answers_drawn)
            ]:
                self.on_answer(event[1], event[2], self.now)
            else:
                self.on_failure(event[1], self.now)
            step += 1


@settings(max_examples=300, deadline=None)
@given(
    policy=policies,
    slots=st.integers(1, 5),
    picks=st.lists(st.integers(0, 50), max_size=60),
    answers=st.lists(st.booleans(), max_size=20),
    statuses=st.lists(
        st.sampled_from([SENT, SENT, SENT, BLOCKED, EXHAUSTED]),
        min_size=1,
        max_size=10,
    ),
)
def test_every_slot_settles_once_and_the_counts_reconcile(
    policy, slots, picks, answers, statuses
):
    gather = InterleavedGather(picks, answers, statuses)
    gather.start(policy, 0.0, slots)
    gather.run()

    settled = set()
    for action in gather.actions:
        slot = action[2] if action[0] == "arm" else action[1]
        assert 0 <= slot < slots
        assert slot not in settled, f"{action} after the slot settled"
        if action[0] == "settle":
            settled.add(slot)
    assert settled == set(range(slots))  # nothing stranded
    assert gather.undecided == 0 and all(gather.decided)
    assert (
        gather.answers
        + gather.deadline_misses
        + gather.breaker_skips
        + gather.exhausted
        == slots
    )
    assert gather.hedges_won <= gather.hedges_issued
    assert gather.hedges_issued <= policy.max_hedges * slots
    assert gather.retries <= policy.max_retries * slots
    assert gather.actions.count(("send", 0, HEDGE)) <= policy.max_hedges
