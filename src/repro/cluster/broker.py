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
- **gather** — answers, errors with bounded retry, hedge timers and
  deadlines, always driven by a :class:`HedgingPolicy`; the inert
  :data:`DISABLED_POLICY` *is* the plain fan-out, not a separate path;
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
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import (
    QUEUE_DEPTH_BUCKETS,
    SHED_CODEL,
    AdmissionController,
    OverloadPolicy,
)
from repro.resilience.breaker import BreakerBoard, BreakerConfig, BreakerState
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


class _Shard:
    """Broker-side state of one (query, shard) request."""

    __slots__ = (
        "index",
        "demand",
        "decided",
        "hedges",
        "retries",
        "tried",
        "settled",
        "hedge_timer",
        "deadline_timer",
    )

    def __init__(self, index: int, demand: float) -> None:
        self.index = index
        self.demand = demand
        #: Answered, deadline-missed or given up on.
        self.decided = False
        self.hedges = 0
        self.retries = 0
        #: Servers asked so far, in order.
        self.tried: List[SimulatedServer] = []
        #: Servers that answered or failed (kept only for breakers).
        self.settled: Tuple[SimulatedServer, ...] = ()
        self.hedge_timer: Optional[EventHandle] = None
        self.deadline_timer: Optional[EventHandle] = None


class _Query:
    """Broker-side state of one in-flight query."""

    __slots__ = ("record", "admitted_at", "pending", "answered", "shards")

    def __init__(self, record: FanoutQueryRecord) -> None:
        self.record = record
        self.admitted_at = float("nan")
        #: Shards not yet decided.
        self.pending = 0
        self.answered = 0
        self.shards: List[_Shard] = []


class _Attempt:
    """One shard request as a server sees it — ``demand`` in, the
    :class:`~repro.cluster.results.QueryRecord` timeline fields out —
    plus the return address the broker needs when the server calls
    back.  Slotted: one is allocated per shard request."""

    __slots__ = (
        "query",
        "shard",
        "server",
        "hedge",
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
        shard: _Shard,
        server: SimulatedServer,
        hedge: bool,
        demand: float,
    ) -> None:
        self.query = query
        self.shard = shard
        self.server = server
        self.hedge = hedge
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
        #: Half-open probe requests the breakers let through.
        self.breaker_probes = 0
        self.policy = (
            hedging
            if hedging is not None and hedging.enabled
            else DISABLED_POLICY
        )
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
        query = _Query(FanoutQueryRecord(query_id, now, demand))
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
        """An admitted query enters service: split, route, arm timers."""
        sim = self.sim
        replicas = self.replicas
        if not all(replicas):
            # Admitted, but some shard has nobody to ask.
            if self.controller is not None:
                self.controller.abandon(sim.now)
            self._refuse(query, SHED_NO_ACTIVE_REPLICA)
            return
        query.admitted_at = sim.now
        self._in_flight[query] = None
        num_shards = len(replicas)
        query.pending = num_shards
        shares = self._shard_shares.next()
        total = query.record.total_demand
        policy = self.policy
        hedge_delay = policy.resolve_hedge_delay(self._tracker)
        deadline = policy.deadline_s
        shards = query.shards = [
            _Shard(index, total * share) for index, share in enumerate(shares)
        ]
        for shard in shards:
            status = self._attempt(query, shard, "primary")
            if status != "sent":
                # Every replica fenced off: the shard degrades coverage
                # exactly like a deadline miss, without waiting for one.
                self._give_up(query, shard, breaker_skip=status == "blocked")
                continue
            if hedge_delay is not None and len(replicas[shard.index]) > 1:
                shard.hedge_timer = sim.schedule_after(
                    hedge_delay, self._on_hedge_timer, query, shard,
                    hedge_delay,
                )
            if deadline is not None:
                shard.deadline_timer = sim.schedule_after(
                    deadline, self._on_deadline, query, shard
                )

    def _attempt(self, query: _Query, shard: _Shard, kind: str) -> str:
        """Send one attempt to an untried, breaker-approved replica.

        Returns ``"sent"`` when an attempt went out (possibly destined
        to fail by injection), ``"exhausted"`` when every replica has
        been tried, ``"blocked"`` when breakers fence off all the rest.
        """
        sim = self.sim
        group = self.replicas[shard.index]
        tried = shard.tried
        candidates = (
            [server for server in group if server not in tried]
            if tried
            else group
        )
        if not candidates and kind == "retry":
            # A retry may re-ask a previously tried replica (the native
            # path re-asks the same shard); hedges never do — a backup
            # against the same straggler cannot win.
            candidates = group
        if not candidates:
            return "exhausted"
        server = self._choose(query.record, shard.index, candidates)
        if server is None:
            return "blocked"
        tried.append(server)

        demand = shard.demand
        faults = self.faults
        if faults is not None:
            now = sim.now
            replica = group.index(server)
            error_rate = faults.error_rate(shard.index, replica, now)
            if faults.crashed(shard.index, replica, now) or (
                error_rate > 0.0 and self._faults_rng.random() < error_rate
            ):
                # Fail fast: the refusal (or error) comes back after a
                # round trip; no work reaches the replica's cores.
                back_at = (
                    now
                    + self._delay(self._network_rng)
                    + self._delay(self._network_rng)
                )
                sim.schedule(back_at, self._on_error, query, shard, server)
                return "sent"
            demand *= faults.slowdown_factor(shard.index, replica, now)

        attempt = _Attempt(query, shard, server, kind == "hedge", demand)
        arrival = sim.now + self._delay(self._network_rng)
        if arrival > sim.now:
            sim.schedule(arrival, server.handle_arrival, attempt)
        else:
            server.handle_arrival(attempt)
        return "sent"

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
        while remaining:
            server = (
                remaining[0]
                if len(remaining) == 1
                else self._rule(record, shard, remaining)
            )
            if self._breaker_allows(shard, server):
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

    def _breaker_allows(self, shard: int, server: SimulatedServer) -> bool:
        """Consult the replica's breaker (counting half-open probes)."""
        now = self.sim.now
        breaker = self._breaker(shard, server)
        half_open = breaker.state(now) is BreakerState.HALF_OPEN
        if not breaker.allow(now):
            return False
        if half_open:
            self.breaker_probes += 1
        return True

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
        query = attempt.query
        shard = attempt.shard
        if self.breakers is not None:
            # Health feedback counts even for losers and late answers —
            # the replica demonstrably served the request.
            shard.settled += (attempt.server,)
            self._breaker(shard.index, attempt.server).record_success(
                self.sim.now
            )
        if shard.decided:
            return  # a loser, a late answer, or a query already failed
        now = self.sim.now
        query.answered += 1
        if attempt.hedge:
            query.record.hedges_won += 1
        if self._tracker is not None:
            self._tracker.observe(now - query.admitted_at)
        query.record.isn_completions.append(now)
        self._decide(query, shard)

    def _on_error(
        self, query: _Query, shard: _Shard, server: SimulatedServer
    ) -> None:
        """An attempt came back as a failure (injected error/crash)."""
        if self.breakers is not None:
            shard.settled += (server,)
            self._breaker(shard.index, server).record_failure(self.sim.now)
        self.shard_failures[shard.index] += 1
        query.record.failures += 1
        if shard.decided:
            return
        policy = self.policy
        if shard.retries < policy.max_retries:
            backoff = policy.retry_delay(shard.retries)
            shard.retries += 1
            self.sim.schedule_after(backoff, self._on_retry, query, shard)
        else:
            self._give_up(query, shard, breaker_skip=False)

    def _on_retry(self, query: _Query, shard: _Shard) -> None:
        if shard.decided:
            return
        status = self._attempt(query, shard, "retry")
        if status != "sent":
            self._give_up(query, shard, breaker_skip=status == "blocked")

    def _on_hedge_timer(
        self, query: _Query, shard: _Shard, delay: float
    ) -> None:
        shard.hedge_timer = None
        if shard.decided:
            return
        max_hedges = self.policy.max_hedges
        if shard.hedges >= max_hedges:
            return
        if self._attempt(query, shard, "hedge") != "sent":
            return  # every replica already tried or fenced off
        shard.hedges += 1
        query.record.hedges_issued += 1
        if shard.hedges < max_hedges:
            shard.hedge_timer = self.sim.schedule_after(
                delay, self._on_hedge_timer, query, shard, delay
            )

    def _on_deadline(self, query: _Query, shard: _Shard) -> None:
        if shard.decided:
            return
        query.record.deadline_misses += 1
        self.shard_failures[shard.index] += 1
        if self.breakers is not None:
            # The replicas that were asked and neither answered nor
            # already failed are the ones that let the deadline lapse.
            for server in dict.fromkeys(shard.tried):
                if server not in shard.settled:
                    self._breaker(shard.index, server).record_failure(
                        self.sim.now
                    )
        self._decide(query, shard)

    def _give_up(
        self, query: _Query, shard: _Shard, breaker_skip: bool
    ) -> None:
        """Give up on one shard: degrade coverage like a deadline miss."""
        if breaker_skip:
            query.record.breaker_skips += 1
        self._decide(query, shard)

    def _decide(self, query: _Query, shard: _Shard) -> None:
        """One shard is settled for good; the last one finishes the query."""
        shard.decided = True
        if shard.hedge_timer is not None:
            shard.hedge_timer.cancel()
        if shard.deadline_timer is not None:
            shard.deadline_timer.cancel()
        query.pending -= 1
        if not query.pending:
            self._finish(query)

    # ------------------------------------------------------------------
    # Finish.

    def _finish(self, query: _Query) -> None:
        now = self.sim.now
        record = query.record
        del self._in_flight[query]
        record.coverage = query.answered / len(query.shards)
        merge_done = now + self._merge_per_server * query.answered
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
            if any(
                server in dead
                for shard in query.shards
                for server in shard.tried
            )
        ]
        for query in lost:
            del self._in_flight[query]
            for shard in query.shards:
                shard.decided = True  # late answers and timers are moot
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
