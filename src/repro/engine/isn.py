"""The index serving node (ISN).

The ISN owns a partitioned index and answers a query by fanning it out
to every partition, gathering the shard top-k lists, and merging them —
the paper's intra-server partitioning study.  It does so exactly once:

- **one gather** (:meth:`IndexServingNode._gather`).  Under a
  :class:`~repro.engine.hedging.HedgingPolicy`, breakers or faults it
  is *tail-tolerant*: an event loop on ``perf_counter`` and the
  backend's futures drives the query's
  :class:`~repro.resilience.gather.GatherMachine` — the state machine
  the DES broker drives too — which hedges a straggling shard (first
  answer wins, losers are cancelled), retries failed attempts with
  backoff and drops a shard that misses its deadline, so the response
  reports ``coverage < 1.0``.  With none of them the gather takes one
  turn and starts no machine: the primaries go out in one submission,
  come back done and are booked in order, and a failing shard
  re-raises to the caller.
- **one backend** (:mod:`repro.engine.backends`): the gather hands
  ``(shard, query)`` work items to a two-method backend that scores on
  the caller's thread whatever a GIL-free process pool, when the node
  has one, does not take; a hedging policy adds a thread pool so that
  attempts overlap.
- **one pipeline**: :meth:`~IndexServingNode.execute`,
  :meth:`~IndexServingNode.execute_serial` and
  :meth:`~IndexServingNode.execute_batch` share parse → cache lookup →
  gather → merge → cache store and differ only in the backend and in
  how many queries are in flight.

When constructed with a :class:`~repro.obs.tracing.Tracer`, every query
emits a span tree (``isn.execute`` → ``parse``/``fanout``/``shard``/
``merge``) recorded from the same ``perf_counter`` samples the
response's :class:`ComponentTimings` is built from, so the two views
cannot drift.
A :class:`~repro.obs.registry.MetricsRegistry` adds per-run counters
(queries served, postings traversed, hedges issued/won, deadline
misses).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.backends import ShardBackend, WorkItem
from repro.engine.execution import ExecutionConfig
from repro.engine.hedging import DISABLED_POLICY, HedgingPolicy, ShardLatencyTracker
from repro.engine.instrumentation import ComponentTimings
from repro.engine.mp import ProcessShardPool, WorkerCrashError, WorkerOptions
from repro.index.partitioner import PartitionedIndex
from repro.index.shared import SharedIndexArena
from repro.index.store import TieredStorageConfig, tier_partitioned_index
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.predict.features import extract_features
from repro.resilience.admission import (
    QUEUE_DEPTH_BUCKETS,
    BlockingAdmissionGate,
    OverloadPolicy,
    ShedResponse,
)
from repro.resilience.breaker import BreakerBoard, BreakerConfig
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.gather import (
    BLOCKED,
    DEADLINE,
    DEADLINE_MISS,
    HEDGE,
    HEDGE_TIMER,
    PRIMARY,
    RETRY_TIMER,
    SENT,
    GatherMachine,
)
from repro.search.executor import SearchCancelled, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.strategy import TraversalStrategy
from repro.search.merger import merge_shard_results
from repro.search.query import DEFAULT_TOP_K, ParsedQuery, QueryMode, QueryParser
from repro.search.topk import SearchHit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.querycache import CachedPage, QueryResultCache
    from repro.predict.scheduler import DeadlineScheduler

#: Linear bucket edges for the coverage histogram (fractions of shards).
COVERAGE_BUCKETS = tuple(i / 20.0 for i in range(21))

#: Crash re-dispatches per batch-execution chunk: a worker death moves
#: the chunk to a healthy worker instead of failing the whole batch.
_BATCH_CRASH_RETRIES = 2


@dataclass(frozen=True)
class IsnResponse:
    """One query's answer from an ISN.

    ``coverage`` is the fraction of shards whose answer made it into
    the merge: 1.0 policy-free, possibly lower under a
    :class:`~repro.engine.hedging.HedgingPolicy` with deadlines.

    ``cached`` flags responses replayed from the result cache; their
    ``matched_volume`` is the volume recorded when the page was first
    computed (so work accounting stays truthful), not zero.
    """

    hits: Tuple[SearchHit, ...]
    timings: ComponentTimings
    matched_volume: int
    coverage: float = 1.0
    hedges_issued: int = 0
    hedges_won: int = 0
    deadline_misses: int = 0
    breaker_skips: int = 0
    cached: bool = False
    trace: Optional[Span] = field(default=None, compare=False)

    #: Served responses are never shed; ``getattr(outcome, "shed",
    #: False)`` is the idiomatic served/shed split across outcome types.
    shed = False

    @property
    def latency_s(self) -> float:
        """End-to-end service time in seconds (protocol accessor)."""
        return self.timings.total_seconds

    def doc_ids(self) -> List[int]:
        """Global doc ids of the hits, best first."""
        return [hit.doc_id for hit in self.hits]


class _Gather(GatherMachine):
    """One query's gather on the node: ``answered`` holds ``(shard,
    kind, result, start, end)`` for each shard whose winner made the
    merge.  When the query needs the machine, :meth:`attach` binds its
    actions: a slot is a shard, an attempt a backend future, a timer a
    ``perf_counter`` due time, and the breaker is keyed by shard."""

    def __init__(self) -> None:
        self.answered: List[tuple] = []

    def attach(self, backend, items, max_docs, crash_retries, breakers):
        self.backend, self.items, self.breakers = backend, items, breakers
        self.max_docs, self.crash_retries = max_docs, crash_retries
        #: In-flight attempts: future -> (shard, kind, cancellation token).
        self.pending: Dict[Future, tuple] = {}
        #: Armed timers: (shard, timer) -> when it is due.
        self.timers: Dict[Tuple[int, int], float] = {}

    def book(self, future, now, resilient, tracker) -> None:
        """Feed a finished attempt to the machine; file a winner."""
        shard, kind, _ = self.pending.pop(future)
        if self.decided[shard]:
            return  # a loser finishing after the verdict
        try:
            result, start, end = future.result()
        except SearchCancelled:
            return
        except Exception as exc:
            if not (resilient or isinstance(exc, WorkerCrashError)):
                raise
            if self.breakers is not None:
                self.breakers.breaker(shard).record_failure(now)
            self.on_failure(shard, now)
            return
        if self.breakers is not None:
            self.breakers.breaker(shard).record_success(end)
        self.on_answer(shard, kind, now)
        self.answered.append((shard, kind, result, start, end))
        if tracker is not None:
            tracker.observe(end - start)

    def send(self, slot: int, kind: str, now: float) -> str:
        if self.breakers is not None and not self.breakers.allow(slot, now):
            return BLOCKED
        token = threading.Event()
        (future,) = self.backend.submit(
            [self.items[slot]], token, self.max_docs, self.crash_retries
        )
        self.pending[future] = (slot, kind, token)
        return SENT

    def arm(self, timer: int, slot: int, at: float) -> None:
        self.timers[slot, timer] = at

    def settle(self, slot: int, why: str, now: float) -> None:
        for timer in (DEADLINE, RETRY_TIMER, HEDGE_TIMER):
            self.timers.pop((slot, timer), None)
        for future, (other, _, token) in self.pending.items():
            if other == slot:
                token.set()
                future.cancel()
        if why == DEADLINE_MISS and self.breakers is not None:
            self.breakers.breaker(slot).record_failure(now)


@dataclass
class _Admitted:
    """A parsed query on its way into the gather, with its timestamps."""

    text: str
    query: ParsedQuery
    #: Where the query, and with it the parse, starts.
    total_start: float
    parse_end: float
    #: Whether a full-coverage answer is stored in the result cache.
    cacheable: bool


class IndexServingNode:
    """Searches one server's partitioned index with intra-query parallelism.

    One gather over a two-method shard backend serves every entry point
    (module docstring); the arguments below pick the backend and the
    policies that gather interprets.

    Parameters
    ----------
    partitioned:
        The server's index shards.
    execution:
        The :class:`~repro.engine.execution.ExecutionConfig` saying
        whether the shard backend gets a worker pool.  ``"threads"``
        (default) has none: the caller's thread searches the shards in
        order.  ``"processes"`` writes the index hot state once to an
        image file, and the caller scores one lane and a GIL-free
        :class:`~repro.engine.mp.ProcessShardPool` the others,
        bit-identically.  On either, a hedging policy alone adds a
        thread pool for the attempts, one thread per partition and
        twice that when it can issue backups.
    tiered:
        Optional :class:`~repro.index.store.TieredStorageConfig`.  When
        set, ``partitioned`` is the resident index and every searcher
        serves it re-homed onto tiered storage: the node's own (the
        tiered index becomes :attr:`partitioned`) and each process
        worker's, which tiers the resident image it attaches, so
        storage counters keep their semantics per worker.
    algorithm:
        Traversal algorithm for shard searchers — an executor algorithm
        name or a :class:`~repro.search.strategy.TraversalStrategy`
        (``"exhaustive"``/``"wand"``/``"block-max-wand"`` spellings are
        normalized by the searcher).
    use_global_stats:
        Score shards with collection-global statistics (distributed
        idf).  On by default so results are partition-count invariant.
    cache:
        Optional result-page cache consulted by :meth:`execute` before
        the partition fan-out.  :meth:`execute_serial` bypasses it —
        characterization and calibration need raw service times.
    hedging:
        Optional :class:`~repro.engine.hedging.HedgingPolicy`.  None or
        an inert policy leaves the gather policy-free.
    overload:
        Optional :class:`~repro.resilience.admission.OverloadPolicy`.
        When set (and enabled), every :meth:`execute` call passes a
        bounded admission gate first; refused queries return a
        :class:`~repro.resilience.admission.ShedResponse` instead of
        being served.
    breakers:
        Optional :class:`~repro.resilience.breaker.BreakerConfig`.
        When set, each shard gets a circuit breaker fed by gather
        failures and deadline misses; an open shard is skipped,
        degrading coverage like a deadline miss.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` injected
        into shard searches (chaos testing): crashes and errors raise
        through the retry path, slowdowns pad service time.
    tracer:
        Optional span tracer.  None (the default) keeps the serving
        path span-free; a disabled tracer costs one branch per query.
    metrics:
        Optional metrics registry for serving-path counters.
    scheduler:
        Optional :class:`~repro.predict.scheduler.DeadlineScheduler`.
        When set, every admitted query is featurized from the resident
        dictionary (term count + summed posting-list lengths, no
        postings traversal) and its service time predicted;
        :meth:`execute_batch` dispatches longest-predicted-first, and
        with ``depth_from_budget`` a Block-Max WAND traversal gets a
        per-query ``max_docs_scored`` depth derived from the remaining
        deadline budget, on either backend.  ``None`` — the default —
        keeps the seed's serving path bit for bit.

    What these resolved to is readable afterwards: ``execution``,
    ``num_partitions``, ``parser`` and ``scheduler`` always; ``hedging``,
    ``admission_gate``, ``breaker_board``, ``fault_injector`` and
    ``process_pool`` are ``None`` when unconfigured, inert, or (the
    pool) on the thread backend.
    """

    def __init__(
        self,
        partitioned: PartitionedIndex,
        *,
        algorithm: "str | TraversalStrategy" = "daat",
        use_global_stats: bool = True,
        cache: Optional["QueryResultCache"] = None,
        hedging: Optional[HedgingPolicy] = None,
        overload: Optional[OverloadPolicy] = None,
        breakers: Optional[BreakerConfig] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        execution: Optional[ExecutionConfig] = None,
        tiered: Optional[TieredStorageConfig] = None,
        scheduler: Optional["DeadlineScheduler"] = None,
    ):
        self.execution = (
            execution if execution is not None else ExecutionConfig()
        )
        # Tiered shards page blocks on demand and cannot be flattened
        # into the image, so the image is the resident index.
        resident = partitioned
        if tiered is not None:
            partitioned = tier_partitioned_index(
                resident, tiered, metrics=metrics
            )
        self.partitioned = partitioned
        self.num_partitions = partitioned.num_partitions
        self.cache = cache
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics
        self.hedging = (
            hedging if hedging is not None and hedging.enabled else None
        )
        self.admission_gate = (
            BlockingAdmissionGate(overload)
            if overload is not None and overload.enabled
            else None
        )
        self.breaker_board = (
            BreakerBoard(breakers) if breakers is not None else None
        )
        self.fault_injector = (
            FaultInjector(faults)
            if faults is not None and faults.enabled
            else None
        )
        #: True when any resilience feature shapes the gather.
        self._resilient_fanout = (
            self.hedging is not None
            or self.breaker_board is not None
            or self.fault_injector is not None
        )
        self.scheduler = scheduler
        #: Shard latencies, kept only for a policy that hedges at a quantile.
        quantile = self.hedging is not None and self.hedging.hedge_quantile
        self._latency_tracker = ShardLatencyTracker() if quantile else None
        scorer_factory = (
            global_scorer_factory(partitioned) if use_global_stats else None
        )
        self._searchers = [
            ShardSearcher(
                shard,
                algorithm=algorithm,
                scorer_factory=scorer_factory,
                metrics=metrics,
            )
            for shard in partitioned
        ]
        analyzer = partitioned[0].index.analyzer
        self.parser = QueryParser(analyzer)
        # Serial execution: the same attempts, all on the caller's
        # thread, never faulted.
        self._serial = ShardBackend(self._searchers)
        self._arena = None
        self.process_pool = None
        workers = self.execution.workers or partitioned.num_partitions
        if self.execution.backend == "processes":
            self._arena = SharedIndexArena(resident)
            self.process_pool = ProcessShardPool(
                self._arena.spec,
                workers=workers,
                options=WorkerOptions(
                    algorithm=algorithm,
                    use_global_stats=use_global_stats,
                    tiered=tiered,
                    collect_metrics=metrics is not None,
                ),
                metrics=metrics,
                start_method=self.execution.start_method,
                probe_interval_s=self.execution.probe_interval_s,
            )
        # Attempts run on the caller's thread (and its process workers):
        # pooled threads convoy on the GIL and lose at every partition
        # count.  Only hedge and deadline timers need the caller free.
        executor = None
        if self.hedging is not None:
            if self.execution.workers is None and self.hedging.hedges_enabled:
                workers *= 2  # no backup queues behind the primaries
            executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="isn-shard"
            )
        self._backend = ShardBackend(
            self._searchers, self.process_pool, self.execution.batch_size,
            executor, self.fault_injector,
        )
        self._closed = False

    def health(self) -> Dict:
        """Liveness view of the node (JSON-friendly).

        Always reports the backend and partition count; on the process
        backend it folds in the worker pool's probe snapshot (live
        workers, deaths detected, respawns), and with circuit breakers
        configured, each shard breaker's current state.  This is the
        surface :meth:`SearchService.health <repro.engine.service.
        SearchService.health>` and the ``repro health`` CLI read.
        """
        snapshot: Dict = {
            "backend": self.execution.backend,
            "partitions": self.num_partitions,
            "closed": self._closed,
            "healthy": not self._closed,
        }
        if self.process_pool is not None:
            pool = self.process_pool.health_snapshot()
            snapshot["pool"] = pool
            snapshot["healthy"] = (
                snapshot["healthy"]
                and pool["live_workers"] == len(pool["workers"])
            )
        if self.breaker_board is not None:
            now = time.perf_counter()
            snapshot["breakers"] = {
                str(shard): self.breaker_board.breaker(shard).state(now).name
                for shard in range(self.num_partitions)
            }
        return snapshot

    def execute(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
        budget_s: Optional[float] = None,
    ):
        """Answer ``text`` from every partition through the one gather.

        Returns an :class:`IsnResponse` — or, when an overload policy
        is attached and refuses the query, a
        :class:`~repro.resilience.admission.ShedResponse`.

        ``budget_s`` is an optional per-call deadline budget (seconds)
        overriding the scheduler's ``deadline_s`` — the frontend passes
        each ISN its *remaining* budget so the whole dispatch shares
        one client deadline.  Ignored without a scheduler.
        """
        self._ensure_open()
        gate = self.admission_gate
        if gate is not None:
            arrival = time.perf_counter()
            if self._metrics is not None:
                self._metrics.histogram(
                    "isn.admission_queue_depth", bin_edges=QUEUE_DEPTH_BUCKETS
                ).observe(float(gate.controller.queue_depth))
            reason = gate.acquire()
            if reason is not None:
                return self._shed(text, reason, arrival)
            start = time.perf_counter()
        try:
            admitted = self._admit(text, k, mode)
            if isinstance(admitted, IsnResponse):
                response = admitted  # answered from the cache
            else:
                response = self._serve(
                    self._backend,
                    [admitted],
                    resilient=self._resilient_fanout,
                    max_docs=self._depth_budget(admitted, budget_s),
                )[0]
        finally:
            if gate is not None:
                gate.release(time.perf_counter() - start)
        if gate is not None and self._metrics is not None:
            self._metrics.counter("isn.served").add()
        return response

    def _shed(self, text: str, reason: str, arrival: float) -> ShedResponse:
        """Build the typed refusal for a query the gate turned away."""
        now = time.perf_counter()
        if self._metrics is not None:
            self._metrics.counter("isn.shed").add()
            self._metrics.counter(f"isn.shed.{reason}").add()
        if self._tracer.enabled:
            self._tracer.record_span(
                "isn.execute", start=arrival, end=now,
                query=text, shed=True, shed_reason=reason,
            )
        return ShedResponse(
            reason=reason, latency_s=now - arrival, query=text
        )

    def execute_serial(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> IsnResponse:
        """Answer ``text`` searching partitions one after another.

        Serial execution has no scheduling noise, which is what the
        service-time characterization and simulator calibration need:
        the sum of shard times *is* the query's CPU demand.  The gather
        runs on a backend with no worker pool, hedging pool or faults,
        so every shard is scored on the caller's thread; cache,
        admission gate and policies are bypassed.
        """
        self._ensure_open()
        return self._serve(
            self._serial, [self._admit(text, k, mode, use_cache=False)]
        )[0]

    def execute_batch(
        self,
        texts: List[str],
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> List:
        """Answer many queries in one fan-out wave.

        Every pending ``(query, partition)`` work item goes to the
        backend in one submission.  On the process backend that packs
        them into dispatches of at most ``execution.batch_size`` so the
        IPC round-trip is amortized over many scoring calls — this is
        the path that exposes cross-query scaling; on the thread
        backend the items run in order on the caller's thread.  Either way
        each response is identical (ids *and* float scores) to what
        :meth:`execute` would return for that text, and the result
        cache is consulted and fed exactly as on the single-query path.

        Resilience features (hedging, breakers, faults, admission
        control) are per-query machinery, so when any is configured
        this method degrades to sequential :meth:`execute` calls.
        """
        self._ensure_open()
        if self._resilient_fanout or self.admission_gate is not None:
            return [self.execute(text, k=k, mode=mode) for text in texts]

        responses: List = [self._admit(text, k, mode) for text in texts]
        pending = [
            position
            for position, admitted in enumerate(responses)
            if isinstance(admitted, _Admitted)
        ]
        if self.scheduler is not None and len(pending) > 1:
            # Longest-predicted-first dispatch: the predicted-expensive
            # queries start scoring first, so the batch straggler is a
            # query that started early rather than one that queued
            # behind cheap work (the native mirror of the DES router
            # shielding long queries).  Stable sort keeps determinism.
            if self._metrics is not None:
                self._metrics.counter("predict.queries").add(len(pending))
            pending.sort(
                key=lambda position: -self.scheduler.predicted_seconds(
                    extract_features(
                        self.partitioned, responses[position].query
                    )
                )
            )
        if pending:
            served = self._serve(
                self._backend,
                [responses[position] for position in pending],
                crash_retries=_BATCH_CRASH_RETRIES,
            )
            for position, response in zip(pending, served):
                responses[position] = response
        return responses

    def close(self) -> None:
        """Shut down executors, worker processes, and the index image.

        Deterministic teardown: the backend drains (a hedging thread
        pool joins, the process pool joins its workers) and the index
        image file is unlinked.  Idempotent; the node rejects queries
        afterwards.
        """
        if not self._closed:
            self._closed = True
            self._backend.close()
            if self._arena is not None:
                self._arena.close()

    def __enter__(self) -> "IndexServingNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("IndexServingNode is closed")

    # ------------------------------------------------------------------
    # the shared pipeline: parse -> cache lookup -> gather -> merge ->
    # cache store

    def _admit(
        self, text: str, k: int, mode: QueryMode, use_cache: bool = True
    ):
        """Parse ``text``; answer it from the cache or admit it.

        Returns the cached :class:`IsnResponse` on a hit, else the
        :class:`_Admitted` record :meth:`_serve` takes.
        """
        total_start = time.perf_counter()
        query = self.parser.parse(text, mode=mode, k=k)
        parse_end = time.perf_counter()
        cacheable = use_cache and self.cache is not None
        admitted = _Admitted(text, query, total_start, parse_end, cacheable)
        if cacheable:
            entry = self.cache.lookup_entry(query)
            if entry is not None:
                return self._respond_from_cache(admitted, entry)
        return admitted

    def _serve(
        self,
        backend,
        admitted: Sequence[_Admitted],
        *,
        resilient: bool = False,
        max_docs: Optional[int] = None,
        crash_retries: int = 0,
    ) -> List[IsnResponse]:
        """Gather every admitted query's shards on ``backend`` and merge."""
        items = [
            (shard, one.query)
            for one in admitted
            for shard in range(self.num_partitions)
        ]
        fanout_start = time.perf_counter()
        gathers = self._gather(
            backend, items, fanout_start, resilient, max_docs, crash_retries
        )
        fanout_end = time.perf_counter()
        responses = []
        for one, gather in zip(admitted, gathers):
            response = self._assemble(one, gather, fanout_start, fanout_end)
            if one.cacheable and response.coverage >= 1.0:
                # Partial answers must not poison the cache with degraded
                # pages — only full-coverage responses are stored.
                self.cache.store(
                    one.query,
                    response.hits,
                    matched_volume=response.matched_volume,
                )
            responses.append(response)
        return responses

    def _depth_budget(
        self, admitted: _Admitted, budget_s: Optional[float]
    ) -> Optional[int]:
        """Featurize at admission; map the deadline to a BMW depth.

        Returns the per-shard ``max_docs_scored`` cap, or ``None`` when
        no cap applies.  Depth capping is policy-free: under a
        resilience policy the gather has its own deadline machinery
        (drop-the-shard, not truncate-the-shard), so it still gets
        admission-time prediction metrics, just no truncation.  The cap
        reaches process workers as it reaches the caller's searchers.
        """
        scheduler, query = self.scheduler, admitted.query
        if scheduler is None:
            return None
        features = extract_features(self.partitioned, query)
        if self._metrics is not None:
            self._metrics.counter("predict.queries").add()
            if scheduler.is_long(features):
                self._metrics.counter("predict.long_queries").add()
        deadline = budget_s if budget_s is not None else scheduler.deadline_s
        if (
            deadline is None
            or not scheduler.depth_from_budget
            or self._searchers[0].algorithm != "block_max_wand"
            or self._resilient_fanout
        ):
            return None
        remaining = deadline - (time.perf_counter() - admitted.total_start)
        max_docs = scheduler.max_docs_for(
            features,
            remaining,
            num_shards=self.num_partitions,
            floor=query.k,
        )
        if max_docs is not None and self._metrics is not None:
            self._metrics.counter("predict.depth_capped").add()
        return max_docs

    # ------------------------------------------------------------------
    # the gather

    def _gather(
        self,
        backend,
        items: Sequence[WorkItem],
        fanout_start: float,
        resilient: bool,
        max_docs: Optional[int] = None,
        crash_retries: int = 0,
    ) -> List[_Gather]:
        """The node's one fan-out: run ``items`` on ``backend``, gather.

        ``items`` is query-major (each query's shards ``0..n-1``); each
        query gets a :class:`_Gather`.  Unless ``resilient`` (the node's
        policy, breakers and failure tolerance apply) the gather takes
        one turn and starts no machine: the items go out in one
        submission, are booked as they come back, and a failure
        re-raises — except a worker crash that outlived its
        ``crash_retries``, which the query's machine retries once (the
        inert policy) before it costs the query that shard.  Otherwise
        (one query) the machine sends the primaries; each turn fires the
        timers that are due and books the attempts that have finished,
        waiting on those in flight until the next timer only when none
        has.
        """
        n = self.num_partitions
        gathers = [_Gather() for _ in range(0, len(items), n)]
        if resilient:
            gathers[0].attach(
                backend, items, max_docs, crash_retries, self.breaker_board
            )
            gathers[0].start(
                self.hedging or DISABLED_POLICY, fanout_start, n,
                tracker=self._latency_tracker,
            )
        else:
            # The policy-free turn: one submission whose attempts come
            # back done, booked in item order.
            crashed = set()
            futures = backend.submit(items, None, max_docs, crash_retries)
            for slot, future in enumerate(futures):
                try:
                    gathers[slot // n].answered.append(
                        (items[slot][0], PRIMARY, *future.result())
                    )
                except WorkerCrashError:
                    if not crash_retries:
                        raise
                    crashed.add(slot)
            if not crashed:
                return gathers
            # Replay each affected query's turn into its machine.
            now = time.perf_counter()
            for query in {slot // n for slot in crashed}:
                gather, first = gathers[query], query * n
                gather.attach(
                    backend, items[first:first + n], max_docs, crash_retries,
                    None,
                )
                gather.start(DISABLED_POLICY, now, n, sent=True)
                for shard in range(n):
                    if first + shard in crashed:
                        gather.on_failure(shard, now)
                    else:
                        gather.on_answer(shard, PRIMARY, now)
        tracker = self._latency_tracker if resilient else None

        for gather in gathers:
            while gather.undecided:
                now = time.perf_counter()
                timers, pending = gather.timers, gather.pending
                for shard, timer in sorted(
                    key for key, at in timers.items() if at <= now
                ):
                    if timers.pop((shard, timer), None) is not None:
                        gather.on_due(timer, shard, now)
                if not gather.undecided:
                    break  # the timers just decided the last shard
                # Book what has already finished before considering a
                # wait: over completed futures there is no waiter or lock.
                done = [future for future in pending if future.done()]
                if not done:
                    timeout = min(timers.values(), default=None)
                    if timeout is not None:
                        timeout = max(0.0, timeout - now)
                    if pending:
                        # A late loser wakes the wait once; dropped below.
                        done, _ = futures_wait(
                            pending, timeout, FIRST_COMPLETED
                        )
                    elif timers:
                        time.sleep(timeout)
                    else:
                        break  # defensive: nothing in flight or armed
                    now = time.perf_counter()
                for future in done:
                    gather.book(future, now, resilient, tracker)
            gather.answered.sort()  # by shard: one entry each
        return gathers

    def _respond_from_cache(
        self, admitted: _Admitted, entry: "CachedPage"
    ) -> IsnResponse:
        if self._metrics is not None:
            self._metrics.counter("isn.queries").add()
        total_end = time.perf_counter()
        trace = None
        if self._tracer.enabled:
            trace = self._tracer.record_span(
                "isn.execute", start=admitted.total_start, end=total_end,
                query=admitted.text, cached=True,
            )
            self._tracer.record_span(
                "parse", start=admitted.total_start, end=admitted.parse_end,
                parent=trace,
            )
        return IsnResponse(
            hits=entry.hits,
            timings=ComponentTimings(
                parse_seconds=admitted.parse_end - admitted.total_start,
                total_seconds=total_end - admitted.total_start,
            ),
            matched_volume=entry.matched_volume,
            cached=True,
            trace=trace,
        )

    def _assemble(
        self,
        admitted: _Admitted,
        gather: _Gather,
        fanout_start: float,
        fanout_end: float,
    ) -> IsnResponse:
        answered = gather.answered
        results = [result for _, _, result, _, _ in answered]
        coverage = len(answered) / self.num_partitions
        merge_start = time.perf_counter()
        if len(results) == 1:
            hits = results[0].hits  # a lone shard's top k is the answer
        else:
            hits = tuple(merge_shard_results(
                [result.hits for result in results], k=admitted.query.k
            ))
        total_end = time.perf_counter()

        matched_volume = sum([result.matched_volume for result in results])
        if self._metrics is not None:
            self._metrics.counter("isn.queries").add()
            self._metrics.histogram("isn.service_seconds").observe(
                total_end - admitted.total_start
            )
            if self._resilient_fanout:
                for name in (
                    "hedges_issued", "hedges_won", "deadline_misses", "retries"
                ):
                    self._metrics.counter(f"isn.{name}").add(
                        getattr(gather, name)
                    )
                self._metrics.histogram(
                    "isn.coverage", bin_edges=COVERAGE_BUCKETS
                ).observe(coverage)
            if self.breaker_board is not None:
                self._metrics.counter("isn.breaker_skips").add(
                    gather.breaker_skips
                )
                self.breaker_board.export_gauges(
                    self._metrics, "isn.breaker", time.perf_counter()
                )

        trace = None
        if self._tracer.enabled:
            trace = self._record_trace(
                admitted, gather, fanout_start, fanout_end, merge_start,
                total_end,
            )
        return IsnResponse(
            hits=hits,
            timings=ComponentTimings(
                parse_seconds=admitted.parse_end - admitted.total_start,
                shard_seconds=[end - start for _, _, _, start, end in answered],
                fanout_seconds=fanout_end - fanout_start,
                merge_seconds=total_end - merge_start,
                total_seconds=total_end - admitted.total_start,
            ),
            matched_volume=matched_volume,
            coverage=coverage,
            hedges_issued=gather.hedges_issued,
            hedges_won=gather.hedges_won,
            deadline_misses=gather.deadline_misses,
            breaker_skips=gather.breaker_skips,
            trace=trace,
        )

    def _record_trace(
        self,
        admitted: _Admitted,
        gather: _Gather,
        fanout_start: float,
        fanout_end: float,
        merge_start: float,
        total_end: float,
    ) -> Span:
        tracer = self._tracer
        answered = gather.answered
        query = admitted.query
        root_attributes = {
            "query": admitted.text,
            "k": query.k,
            "mode": query.mode.value,
            "num_partitions": self.num_partitions,
        }
        if self._resilient_fanout:
            root_attributes.update(
                coverage=len(answered) / self.num_partitions,
                hedges_issued=gather.hedges_issued,
                hedges_won=gather.hedges_won,
                deadline_misses=gather.deadline_misses,
            )
        if self.breaker_board is not None:
            root_attributes["breaker_skips"] = gather.breaker_skips
        root = tracer.record_span(
            "isn.execute", start=admitted.total_start, end=total_end,
            **root_attributes,
        )
        tracer.record_span(
            "parse", start=admitted.total_start, end=admitted.parse_end,
            parent=root, num_terms=len(query.terms),
        )
        fanout = tracer.record_span(
            "fanout", start=fanout_start, end=fanout_end, parent=root
        )
        for shard_index, kind, result, start, end in answered:
            attributes = {
                "shard": shard_index,
                "postings_scanned": result.matched_volume,
                "num_hits": len(result.hits),
            }
            for name in (
                "docs_scored", "blocks_skipped", "blocks_fetched", "bytes_read"
            ):
                if getattr(result, name) is not None:
                    attributes[name] = getattr(result, name)
            if self._resilient_fanout:
                attributes["attempt"] = kind
                attributes["hedged"] = kind == HEDGE
            tracer.record_span(
                "shard", start=start, end=end, parent=fanout, **attributes
            )
        shards = {shard for shard, *_ in answered}
        for shard_index in sorted(set(range(self.num_partitions)) - shards):
            tracer.record_span(
                "shard", start=fanout_start, end=fanout_end, parent=fanout,
                shard=shard_index, deadline_missed=True,
            )
        tracer.record_span(
            "merge", start=merge_start, end=total_end, parent=root,
            num_shards=len(answered),
        )
        return root
