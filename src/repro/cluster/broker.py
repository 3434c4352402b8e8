"""The simulated broker — the only one.

Every simulated query, whichever driver plays it, takes one path::

    admission → shard split → replica choice → attempt → gather
              → finish

- **admission** — an optional :class:`AdmissionController` in front of a
  FIFO queue; a refused query ends in a typed shed record;
- **shard split** — the query's demand is divided over the shards by a
  Dirichlet draw from the ``"server-imbalance"`` stream (drawn ahead in
  blocks: the split is its only reader);
- **replica choice** — :attr:`Broker.replicas` is a *mutable* table, one
  list of servers per shard, in launch order; the drivers own its
  contents (the static fan-out fills it once, the autoscaler rewrites
  it as rows warm up, retire, crash and recover, the mixed fleet lists
  its big servers before its little ones) and the broker's one
  pluggable rule, a :class:`ReplicaSelection` or a callable
  ``rule(record, shard, candidates)``, picks from it;
- **attempt** — fault-plan crashes/errors/slowdowns and circuit
  breakers apply per ``(shard, replica)``;
- **gather** — each admitted query drives a
  :class:`~repro.resilience.gather.GatherMachine`, the hedge / retry /
  deadline state machine the native ISN drives too, on ``sim.now`` and
  simulator events; under the inert :data:`DISABLED_POLICY` that *is*
  the plain fan-out, not a separate path;
- **finish** — coverage, broker merge cost and one
  :class:`FanoutQueryRecord` per arrival, whatever its outcome.

The degenerate case is cheap by construction rather than by a second
loop: a hop with zero network delay is a call, not a heap event; a
one-candidate shard skips the routing rule; timers, the latency
tracker and breaker bookkeeping exist only when something reads them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.server import SimulatedServer, _ShareStream
from repro.engine.hedging import (
    DISABLED_POLICY,
    HedgingPolicy,
    ShardLatencyTracker,
)
from repro.resilience.gather import (
    ANSWERED,
    BLOCKED,
    DEADLINE_MISS,
    EXHAUSTED,
    RETRY,
    RETRY_TIMER,
    SENT,
    GatherMachine,
)
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import (
    QUEUE_DEPTH_BUCKETS,
    SHED_CODEL,
    AdmissionController,
    OverloadPolicy,
)
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.faults import FaultPlan
from repro.sim.engine import EventHandle, Simulator
from repro.sim.failures import SHED_REPLICA_CRASH
from repro.sim.network import NetworkModel, NoDelay
from repro.sim.random import RandomStreams

#: ``shed_reason`` of a query that found some shard without a single
#: dispatchable replica (every row warming, retired or crashed).
SHED_NO_ACTIVE_REPLICA = "no_active_replica"

#: Dirichlet concentration of each query's work split across servers.
#: Document sharding never splits a query's postings volume perfectly
#: evenly, and this per-(query, server) jitter is what the broker's
#: wait-for-the-slowest amplifies at scale.  The simulated clusters and
#: the analytic :class:`~repro.capacity.model.CapacityModel` all read
#: this one value, so the model and the simulator it is checked against
#: cannot diverge.
SERVER_IMBALANCE_CONCENTRATION = 60.0

#: Default broker-side merge cost per responding server, in seconds.
BROKER_MERGE_PER_SERVER = 2e-5


class ReplicaSelection(Enum):
    """The broker's routing rule: which replica a shard request goes to."""

    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    #: Fewest requests in service at the replica; ties go to the
    #: earliest-launched one.  Draws no random numbers.
    LEAST_OUTSTANDING = "least_outstanding"


@dataclass(slots=True)
class FanoutQueryRecord:
    """Timeline and typed outcome of one query through the broker.

    Exactly one of three outcomes holds: *served* (possibly with
    ``coverage`` < 1), *shed* (refused before any shard work:
    ``shed_reason`` is an admission reason or
    :data:`SHED_NO_ACTIVE_REPLICA`), or *failed* (dispatched, then lost
    to a replica crash: :data:`~repro.sim.failures.SHED_REPLICA_CRASH`).
    Shed and failed queries carry ``shed`` True, ``coverage`` 0.0 and
    the refusal time in ``client_receive``.
    """

    query_id: int
    client_send: float
    total_demand: float
    isn_completions: List[float] = field(default_factory=list)
    client_receive: float = float("nan")
    coverage: float = 1.0
    hedges_issued: int = 0
    hedges_won: int = 0
    deadline_misses: int = 0
    breaker_skips: int = 0
    failures: int = 0
    shed: bool = False
    shed_reason: str = ""

    @property
    def served(self) -> bool:
        """True when the query received an answer."""
        return not self.shed

    @property
    def failed(self) -> bool:
        """Dispatched but lost to a replica crash (vs. refused entry)."""
        return self.shed_reason == SHED_REPLICA_CRASH

    @property
    def complete(self) -> bool:
        return not np.isnan(self.client_receive)

    @property
    def latency(self) -> float:
        """End-to-end response time."""
        return self.client_receive - self.client_send

    @property
    def latency_s(self) -> float:
        """Alias of :attr:`latency` (common query-outcome accessor)."""
        return self.latency

    def doc_ids(self) -> List[int]:
        """Empty — the simulator models time, not result content
        (protocol accessor shared with the native engine)."""
        return []

    @property
    def fanout_skew(self) -> float:
        """Slowest minus fastest ISN completion."""
        return max(self.isn_completions) - min(self.isn_completions)


class _Query(GatherMachine):
    """One query: its record and, once admitted, the broker's side of
    its gather machine — an attempt goes to a replica, a timer is a
    simulator event calling :meth:`~GatherMachine.on_due` — with the
    per-shard state the machine does not keep."""

    def __init__(self, broker: "Broker", record: FanoutQueryRecord) -> None:
        self.broker = broker
        self.record = record
        self.admitted_at = float("nan")

    def admit(self, now: float, demands: List[float]) -> None:
        """Enter service at ``now`` with the shards' split ``demands``."""
        self.admitted_at = now
        self.demands = demands
        shards = len(demands)
        #: Per shard: the servers asked so far, in order.
        self.tried: List[List[SimulatedServer]] = [[] for _ in demands]
        #: Per shard: the servers that answered or failed (breakers only).
        self.settled: List[Tuple[SimulatedServer, ...]] = [()] * shards
        #: Per shard: hedge and deadline events, cancelled on settling.
        self.timers: List[Tuple[EventHandle, ...]] = [()] * shards

    def send(self, slot: int, kind: str, now: float) -> str:
        """Send one attempt to an untried, breaker-approved replica:
        :data:`EXHAUSTED` when every replica has been tried,
        :data:`BLOCKED` when breakers fence off all the rest."""
        broker = self.broker
        group = broker.replicas[slot]
        tried = self.tried[slot]
        candidates = (
            [server for server in group if server not in tried]
            if tried
            else group
        )
        if not candidates and kind == RETRY:
            # A retry may re-ask a previously tried replica (the native
            # path re-asks the same shard); hedges never do — a backup
            # against the same straggler cannot win.
            candidates = group
        if not candidates:
            return EXHAUSTED
        server = broker._choose(self.record, slot, candidates)
        if server is None:
            return BLOCKED
        tried.append(server)

        sim = broker.sim
        delay, network_rng = broker._delay, broker._network_rng
        demand = self.demands[slot]
        faults = broker.faults
        if faults is not None:
            replica = group.index(server)
            error_rate = faults.error_rate(slot, replica, now)
            if faults.crashed(slot, replica, now) or (
                error_rate > 0.0 and broker._faults_rng.random() < error_rate
            ):
                # Fail fast: the refusal (or error) comes back after a
                # round trip; no work reaches the replica's cores.
                back_at = now + delay(network_rng) + delay(network_rng)
                sim.schedule(back_at, broker._on_error, self, slot, server)
                return SENT
            demand *= faults.slowdown_factor(slot, replica, now)

        attempt = _Attempt(self, slot, server, kind, demand)
        arrival = now + delay(network_rng)
        if arrival > now:
            sim.schedule(arrival, server.handle_arrival, attempt)
        else:
            server.handle_arrival(attempt)
        return SENT

    def arm(self, timer: int, slot: int, at: float) -> None:
        handle = self.broker.sim.schedule(at, self.on_due, timer, slot, at)
        if timer != RETRY_TIMER:
            # Retry events are left to fire on a settled shard.
            self.timers[slot] += (handle,)

    def settle(self, slot: int, why: str, now: float) -> None:
        broker = self.broker
        for timer in self.timers[slot]:
            timer.cancel()
        if why == ANSWERED:
            if broker._tracker is not None:
                broker._tracker.observe(now - self.admitted_at)
            self.record.isn_completions.append(now)
        elif why == DEADLINE_MISS:
            broker.shard_failures[slot] += 1
            if broker.breakers is not None:
                # The replicas that were asked and neither answered nor
                # already failed are the ones that let the deadline lapse.
                for server in dict.fromkeys(self.tried[slot]):
                    if server not in self.settled[slot]:
                        broker._breaker(slot, server).record_failure(now)
        if not self.undecided:
            broker._finish(self)


class _Attempt:
    """One shard request as a server sees it — ``demand`` in, the
    :class:`~repro.cluster.results.QueryRecord` timeline fields out —
    plus the return address the broker needs when the server calls
    back.  Slotted: one is allocated per shard request."""

    __slots__ = (
        "query",
        "slot",
        "server",
        "kind",
        "demand",
        "server_arrival",
        "first_task_start",
        "earliest_task_end",
        "last_task_end",
        "merge_start",
        "merge_end",
    )

    def __init__(
        self,
        query: _Query,
        slot: int,
        server: SimulatedServer,
        kind: str,
        demand: float,
    ) -> None:
        self.query = query
        self.slot = slot
        self.server = server
        self.kind = kind
        self.demand = demand


_outstanding = attrgetter("outstanding")
#: The servers a routing rule chooses among.
_Candidates = List[SimulatedServer]


class Broker:
    """Admission, routing and gathering for one simulation run.

    The driver builds the servers with ``on_complete=broker.
    on_server_done``, places them in :attr:`replicas`, and schedules
    :meth:`on_arrival` once per query; :meth:`finished_records` returns
    one record per arrival after ``sim.run()``.  ``selection`` is a
    :class:`ReplicaSelection` or a callable ``rule(record, shard,
    candidates)`` returning one of ``candidates``; it sees the query's
    record and is not consulted when only one candidate remains.
    """

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        num_shards: int,
        *,
        merge_per_server: float,
        concentration: float,
        network: Optional[NetworkModel] = None,
        hedging: Optional[HedgingPolicy] = None,
        selection: ReplicaSelection | Callable[..., SimulatedServer] = (
            ReplicaSelection.LEAST_OUTSTANDING
        ),
        overload: Optional[OverloadPolicy] = None,
        breakers: Optional[BreakerConfig] = None,
        faults: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        #: ``replicas[shard]`` — the dispatchable servers of each shard.
        self.replicas: List[List[SimulatedServer]] = [
            [] for _ in range(num_shards)
        ]
        self.records: List[FanoutQueryRecord] = []
        #: Failed shard requests per shard (errors, crash rejections,
        #: deadline misses).
        self.shard_failures = [0] * num_shards
        self.policy = (
            hedging
            if hedging is not None and hedging.enabled
            else DISABLED_POLICY
        )
        self._hedges_enabled = self.policy.hedges_enabled
        self.breakers = (
            BreakerBoard(breakers) if breakers is not None else None
        )
        self.controller = (
            AdmissionController(overload)
            if overload is not None and overload.enabled
            else None
        )
        self._queue: Deque[Tuple[_Query, float]] = deque()
        #: Admitted, unfinished queries in admission order (a dict, not
        #: a set: crash handling must iterate deterministically).
        self._in_flight: Dict[_Query, None] = {}
        self._merge_per_server = merge_per_server
        self._shard_shares = _ShareStream(
            streams.stream("server-imbalance"), num_shards, concentration
        )
        self._delay = (network if network is not None else NoDelay()).delay
        self._network_rng = (
            streams.stream("network") if network is not None else None
        )
        #: The fault plan in force (None when absent or empty).
        self.faults = (
            faults if faults is not None and faults.enabled else None
        )
        self._faults_rng = (
            streams.stream("faults") if self.faults is not None else None
        )
        # The tracker is fed only when a quantile delay can read it.
        self._tracker = (
            ShardLatencyTracker()
            if self.policy.hedge_quantile is not None
            else None
        )
        self._metrics = metrics
        self._cursor = [0] * num_shards
        if callable(selection):
            self._rule = selection
        elif selection is ReplicaSelection.LEAST_OUTSTANDING:
            self._rule = self._least_outstanding
        elif selection is ReplicaSelection.ROUND_ROBIN:
            self._rule = self._round_robin
        else:
            self._selection_rng = streams.stream("selection")
            self._rule = self._random

    # ------------------------------------------------------------------
    # Admission.

    def on_arrival(self, query_id: int, demand: float) -> None:
        """A query reaches the broker now (``sim.now``)."""
        now = self.sim.now
        query = _Query(self, FanoutQueryRecord(query_id, now, demand))
        controller = self.controller
        if controller is None:
            self._begin(query)
            return
        if self._metrics is not None:
            self._metrics.histogram(
                "fanout.admission_queue_depth", bin_edges=QUEUE_DEPTH_BUCKETS
            ).observe(float(controller.queue_depth))
        decision = controller.decide(now)
        if decision == "admit":
            controller.admit(now)
            self._begin(query)
        elif decision == "queue":
            controller.enqueue(now)
            self._queue.append((query, now))
        else:
            controller.shed(now)
            self._refuse(query, decision)

    def _drain(self) -> None:
        controller = self.controller
        queue = self._queue
        while queue and controller.can_admit():
            query, enqueued_at = queue.popleft()
            if controller.dequeue(self.sim.now, enqueued_at):
                self._begin(query)
            else:
                self._refuse(query, SHED_CODEL)

    def _refuse(self, query: _Query, reason: str) -> None:
        """End a query without an answer: one typed record, stamped
        with the time the refusal reaches the client."""
        record = query.record
        record.shed = True
        record.shed_reason = reason
        record.coverage = 0.0
        record.client_receive = self.sim.now + self._delay(self._network_rng)
        self.records.append(record)

    # ------------------------------------------------------------------
    # Shard split and dispatch.

    def _begin(self, query: _Query) -> None:
        """An admitted query enters service: split, then start its gather
        (per shard: the primary attempt, its hedge timer when the shard
        has a replica to hedge on, its deadline timer)."""
        now = self.sim.now
        replicas = self.replicas
        if not all(replicas):
            # Admitted, but some shard has nobody to ask.
            if self.controller is not None:
                self.controller.abandon(now)
            self._refuse(query, SHED_NO_ACTIVE_REPLICA)
            return
        self._in_flight[query] = None
        total = query.record.total_demand
        query.admit(now, [total * share for share in self._shard_shares.next()])
        # A hedge needs a second replica to go to.
        hedgeable = (
            [len(group) > 1 for group in replicas]
            if self._hedges_enabled
            else None
        )
        query.start(self.policy, now, len(replicas), hedgeable, self._tracker)

    # ------------------------------------------------------------------
    # Replica choice.

    def _choose(
        self, record: FanoutQueryRecord, shard: int, candidates: _Candidates
    ) -> Optional[SimulatedServer]:
        """The routing rule's pick among ``candidates`` (None when
        breakers refuse every one of them)."""
        if self.breakers is None:
            if len(candidates) == 1:
                return candidates[0]
            return self._rule(record, shard, candidates)
        remaining = list(candidates)
        group = self.replicas[shard]
        now = self.sim.now
        while remaining:
            server = (
                remaining[0]
                if len(remaining) == 1
                else self._rule(record, shard, remaining)
            )
            if self.breakers.allow((shard, group.index(server)), now):
                return server
            remaining.remove(server)
        return None

    def _least_outstanding(
        self, record: FanoutQueryRecord, shard: int, candidates: _Candidates
    ) -> SimulatedServer:
        # ``min`` keeps the first of equals, and the table is in launch
        # order: ties go to the lowest index / the oldest row.
        return min(candidates, key=_outstanding)

    def _round_robin(
        self, record: FanoutQueryRecord, shard: int, candidates: _Candidates
    ) -> SimulatedServer:
        group = self.replicas[shard]
        while True:
            server = group[self._cursor[shard] % len(group)]
            self._cursor[shard] += 1
            if server in candidates:
                return server

    def _random(
        self, record: FanoutQueryRecord, shard: int, candidates: _Candidates
    ) -> SimulatedServer:
        return candidates[int(self._selection_rng.integers(len(candidates)))]

    def _breaker(self, shard: int, server: SimulatedServer):
        return self.breakers.breaker(
            (shard, self.replicas[shard].index(server))
        )

    # ------------------------------------------------------------------
    # Gather: answers, errors, retries, hedges, deadlines.

    def on_server_done(self, attempt: _Attempt) -> None:
        """A server finished an attempt; its answer travels back."""
        sim = self.sim
        arrival = attempt.merge_end + self._delay(self._network_rng)
        if arrival > sim.now:
            sim.schedule(arrival, self._on_answer, attempt)
        else:
            self._on_answer(attempt)

    def _on_answer(self, attempt: _Attempt) -> None:
        query, slot = attempt.query, attempt.slot
        now = self.sim.now
        if self.breakers is not None:
            # Health feedback counts even for losers and late answers —
            # the replica demonstrably served the request.
            query.settled[slot] += (attempt.server,)
            self._breaker(slot, attempt.server).record_success(now)
        query.on_answer(slot, attempt.kind, now)

    def _on_error(
        self, query: _Query, slot: int, server: SimulatedServer
    ) -> None:
        """An attempt came back as a failure (injected error/crash)."""
        now = self.sim.now
        if self.breakers is not None:
            query.settled[slot] += (server,)
            self._breaker(slot, server).record_failure(now)
        self.shard_failures[slot] += 1
        query.record.failures += 1
        query.on_failure(slot, now)

    # ------------------------------------------------------------------
    # Finish.

    def _finish(self, query: _Query) -> None:
        now = self.sim.now
        record = query.record
        del self._in_flight[query]
        _tally(query)
        record.coverage = query.answers / len(query.demands)
        merge_done = now + self._merge_per_server * query.answers
        record.client_receive = merge_done + self._delay(self._network_rng)
        self.records.append(record)
        if self.controller is not None:
            self._release(query)
            self._drain()

    def _release(self, query: _Query) -> None:
        """Free the query's admission slot.  The latency AIMD sees is
        time since *admission* — queue wait and broker merge excluded —
        for served and crash-failed queries alike."""
        now = self.sim.now
        self.controller.complete(now, now - query.admitted_at)

    def fail_replicas(self, servers: Iterable[SimulatedServer]) -> None:
        """``servers`` died: every unfinished query that sent any of
        them a request fails with :data:`SHED_REPLICA_CRASH`.

        A fork-join query missing one shard cannot complete, so the
        whole query is lost, whatever its other shards did.  Answers
        the dead servers' already-scheduled events still deliver are
        ignored.  The caller removes the servers from :attr:`replicas`.
        """
        dead = set(servers)
        lost = [
            query
            for query in self._in_flight
            if any(server in dead for tried in query.tried for server in tried)
        ]
        for query in lost:
            del self._in_flight[query]
            query.abandon()  # late answers and timers are moot
            _tally(query)
            self._refuse(query, SHED_REPLICA_CRASH)
            if self.controller is not None:
                self._release(query)
        if lost and self.controller is not None:
            self._drain()

    def finished_records(self, arrivals: int) -> List[FanoutQueryRecord]:
        """All records in arrival order; raises if any arrival has none."""
        if len(self.records) != arrivals:
            raise RuntimeError(
                f"{arrivals - len(self.records)} queries never completed"
            )
        self.records.sort(key=attrgetter("client_send"))
        return self.records


def _tally(query: _Query) -> None:
    """Copy the gather machine's per-query counts onto the record."""
    record = query.record
    record.hedges_issued = query.hedges_issued
    record.hedges_won = query.hedges_won
    record.deadline_misses = query.deadline_misses
    record.breaker_skips = query.breaker_skips
