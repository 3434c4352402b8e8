"""The index serving node (ISN).

The ISN owns a partitioned index and answers a query by fanning it out
to every partition, gathering the shard top-k lists, and merging them —
the paper's intra-server partitioning study.  It does so exactly once:

- **one gather** (:meth:`IndexServingNode._gather`): an event-driven
  loop over in-flight shard attempts, driven by a
  :class:`~repro.engine.hedging.HedgingPolicy`.  With a policy the
  gather is *tail-tolerant*: a straggling shard is hedged (a backup
  attempt races the original, first answer wins, losers are
  cancelled), failed attempts are retried with backoff, and a shard
  that misses its deadline is dropped from the merge, so the response
  reports ``coverage < 1.0``.  With no resilience feature configured
  the inert :data:`~repro.engine.hedging.DISABLED_POLICY` drives the
  same loop: no timer is armed, it waits for the primaries, and a
  failing shard re-raises to the caller.  "No policy" is the
  degenerate setting, not a second path.
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
from repro.resilience.breaker import BreakerBoard, BreakerConfig, BreakerState
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.search.executor import (
    SearchCancelled,
    ShardSearcher,
    _normalize_algorithm,
)
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


@dataclass
class _FanoutOutcome:
    """What the gather produced for one query.

    ``answered`` holds ``(shard_index, kind, result, start, end)``
    tuples for shards whose winner made the merge; ``kind`` is the
    winning attempt's flavour (``"primary"``/``"hedge"``/``"retry"``).
    """

    answered: List[tuple]
    num_shards: int
    hedges_issued: int = 0
    hedges_won: int = 0
    deadline_misses: int = 0
    retries: int = 0
    breaker_skips: int = 0
    missed_shards: Tuple[int, ...] = ()

    @property
    def coverage(self) -> float:
        if self.num_shards == 0:
            return 1.0
        return len(self.answered) / self.num_shards


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
        self._algorithm_name = _normalize_algorithm(algorithm)
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
        outcomes = self._gather(
            backend, items, fanout_start, resilient, max_docs, crash_retries
        )
        fanout_end = time.perf_counter()
        responses = []
        for one, outcome in zip(admitted, outcomes):
            response = self._assemble(one, outcome, fanout_start, fanout_end)
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
            or self._algorithm_name != "block_max_wand"
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
    ) -> List[_FanoutOutcome]:
        """The node's one fan-out: run ``items`` on ``backend``, gather.

        ``items`` is query-major (each query's shards ``0..n-1``), and
        each item is one *slot* the loop must decide: answered,
        deadline-missed, failed beyond the retry budget, or fenced off
        by an open breaker.  Each turn fires the timers that are due
        (retry backoff, deadline, hedge) and books the attempts that
        have finished, waiting on those in flight until the next timer
        only when none has.  Returns one :class:`_FanoutOutcome` per query.

        ``resilient`` says whether the node's policy, breakers and
        failure tolerance apply.  When False the inert policy arms no
        timer and a failed attempt re-raises to the caller — except a
        worker crash that outlived its ``crash_retries``, which costs a
        batch's affected queries that shard, not every query its answer.
        With only breakers or faults configured the inert policy still
        supplies the bounded retry those features feed on.
        """
        n = self.num_partitions
        policy = (self.hedging if resilient else None) or DISABLED_POLICY
        breakers = self.breaker_board if resilient else None
        tracker = self._latency_tracker
        delay = policy.resolve_hedge_delay(tracker)
        deadline_at = (
            None
            if policy.deadline_s is None
            else fanout_start + policy.deadline_s
        )
        outcomes = [
            _FanoutOutcome(answered=[], num_shards=n)
            for _ in range(0, len(items), n)
        ]
        answered: Dict[int, tuple] = {}
        undecided = set(range(len(items)))
        hedges_left = [policy.max_hedges] * len(items)
        retries = [0] * len(items)
        #: Armed timers, by slot; a settled slot has none.
        hedge_at: Dict[int, float] = (
            {}
            if delay is None
            else dict.fromkeys(undecided, fanout_start + delay)
        )
        retry_at: Dict[int, float] = {}
        #: In-flight attempts: future -> (slot, kind, cancellation token);
        #: policy-free none outlives its slot's verdict, so none has a token.
        pending: Dict[Future, tuple] = {}

        def submit(slots: List[int], kind: str) -> None:
            token = threading.Event() if resilient else None
            futures = backend.submit(
                [items[slot] for slot in slots], token, max_docs, crash_retries
            )
            for slot, future in zip(slots, futures):
                pending[future] = (slot, kind, token)

        def settle(slot: int) -> None:
            """Mark ``slot`` decided; cancel what is still in flight for it."""
            undecided.discard(slot)
            hedge_at.pop(slot, None)
            retry_at.pop(slot, None)
            if resilient:
                for future, (other, _, token) in pending.items():
                    if other == slot:
                        token.set()
                        future.cancel()

        def breaker_allow(slot: int, now: float) -> bool:
            """Consult the shard's breaker (counting half-open probes)."""
            if breakers is None:
                return True
            breaker = breakers.breaker(items[slot][0])
            half_open = breaker.state(now) is BreakerState.HALF_OPEN
            if not breaker.allow(now):
                return False
            if half_open and self._metrics is not None:
                self._metrics.counter("isn.breaker_probes").add()
            return True

        def breaker_failure(slot: int, now: float) -> None:
            if breakers is not None:
                breakers.breaker(items[slot][0]).record_failure(now)

        primaries = []
        for slot in range(len(items)):
            if breaker_allow(slot, fanout_start):
                primaries.append(slot)
            else:
                # Open breaker: skip the shard outright, degrading
                # coverage exactly like a deadline miss.
                settle(slot)
                outcomes[slot // n].breaker_skips += 1
        # A submission is the backend's unit of packing — and so of
        # failure: attempts a policy may hedge, retry or fence off one
        # by one go out one by one; policy-free primaries go together.
        for group in [[s] for s in primaries] if resilient else [primaries]:
            if group:
                submit(group, "primary")

        while undecided:
            now = time.perf_counter()
            expired = deadline_at is not None and now >= deadline_at
            for slot in sorted(
                undecided if expired else retry_at.keys() | hedge_at.keys()
            ):
                outcome = outcomes[slot // n]
                if slot in retry_at and now >= retry_at[slot]:
                    del retry_at[slot]
                    if breaker_allow(slot, now):
                        submit([slot], "retry")
                    else:
                        # The failures that queued this retry tripped
                        # the breaker: give up on the shard instead of
                        # hammering it.
                        settle(slot)
                        outcome.breaker_skips += 1
                        continue
                if expired:
                    settle(slot)
                    outcome.deadline_misses += 1
                    breaker_failure(slot, now)
                    continue
                if slot in hedge_at and now >= hedge_at[slot]:
                    # A tripped breaker retires this shard's hedge
                    # timer — backup requests against a fenced-off
                    # shard would only feed the failure count.
                    del hedge_at[slot]
                    if breaker_allow(slot, now):
                        hedges_left[slot] -= 1
                        outcome.hedges_issued += 1
                        submit([slot], "hedge")
                        if hedges_left[slot] > 0:
                            hedge_at[slot] = now + delay
            if not undecided:
                break  # the timers just decided the last slot
            # Book what has already finished before considering a wait:
            # over completed futures (attempts run on the caller's
            # thread) the gather builds no waiter and takes no lock.
            done = [future for future in pending if future.done()]
            if not done:
                timers = [*retry_at.values(), *hedge_at.values()]
                if deadline_at is not None:
                    timers.append(deadline_at)
                timeout = max(0.0, min(timers) - now) if timers else None
                if pending:
                    # A late loser wakes the wait once; it is dropped below.
                    done, _ = futures_wait(
                        pending, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                elif timers:
                    time.sleep(timeout)
                else:
                    # Defensive: no attempt in flight and no timer left
                    # — give up on whatever is undecided, do not spin.
                    break
            for future in done:
                slot, kind, _ = pending.pop(future)
                if slot not in undecided:
                    continue  # a loser finishing after the verdict
                outcome = outcomes[slot // n]
                try:
                    result, start, end = future.result()
                except SearchCancelled:
                    continue
                except Exception as exc:
                    if not resilient and not (
                        crash_retries and isinstance(exc, WorkerCrashError)
                    ):
                        raise
                    breaker_failure(slot, time.perf_counter())
                    if retries[slot] < policy.max_retries:
                        backoff = policy.retry_delay(retries[slot])
                        retries[slot] += 1
                        outcome.retries += 1
                        retry_at[slot] = time.perf_counter() + backoff
                    else:
                        settle(slot)
                    continue
                if breakers is not None:
                    breakers.breaker(items[slot][0]).record_success(end)
                settle(slot)
                answered[slot] = (items[slot][0], kind, result, start, end)
                if tracker is not None:
                    tracker.observe(end - start)
                if kind == "hedge":
                    outcome.hedges_won += 1

        for position, outcome in enumerate(outcomes):
            slots = range(position * n, (position + 1) * n)
            outcome.answered = [
                answered[slot] for slot in slots if slot in answered
            ]
            outcome.missed_shards = tuple(
                items[slot][0] for slot in slots if slot not in answered
            )
        return outcomes

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
        outcome: _FanoutOutcome,
        fanout_start: float,
        fanout_end: float,
    ) -> IsnResponse:
        query = admitted.query
        total_start = admitted.total_start
        merge_start = time.perf_counter()
        hits = merge_shard_results(
            [result.hits for _, _, result, _, _ in outcome.answered],
            k=query.k,
        )
        total_end = time.perf_counter()

        matched_volume = sum(
            result.matched_volume for _, _, result, _, _ in outcome.answered
        )
        if self._metrics is not None:
            self._metrics.counter("isn.queries").add()
            self._metrics.histogram("isn.service_seconds").observe(
                total_end - total_start
            )
            if self._resilient_fanout:
                self._metrics.counter("isn.hedges_issued").add(
                    outcome.hedges_issued
                )
                self._metrics.counter("isn.hedges_won").add(
                    outcome.hedges_won
                )
                self._metrics.counter("isn.deadline_misses").add(
                    outcome.deadline_misses
                )
                self._metrics.counter("isn.retries").add(outcome.retries)
                self._metrics.histogram(
                    "isn.coverage", bin_edges=COVERAGE_BUCKETS
                ).observe(outcome.coverage)
            if self.breaker_board is not None:
                self._metrics.counter("isn.breaker_skips").add(
                    outcome.breaker_skips
                )
                self.breaker_board.export_gauges(
                    self._metrics, "isn.breaker", time.perf_counter()
                )

        trace = None
        if self._tracer.enabled:
            trace = self._record_trace(
                admitted, outcome, fanout_start, fanout_end,
                merge_start, total_end,
            )
        return IsnResponse(
            hits=tuple(hits),
            timings=ComponentTimings(
                parse_seconds=admitted.parse_end - admitted.total_start,
                shard_seconds=[
                    end - start for _, _, _, start, end in outcome.answered
                ],
                fanout_seconds=fanout_end - fanout_start,
                merge_seconds=total_end - merge_start,
                total_seconds=total_end - total_start,
            ),
            matched_volume=matched_volume,
            coverage=outcome.coverage,
            hedges_issued=outcome.hedges_issued,
            hedges_won=outcome.hedges_won,
            deadline_misses=outcome.deadline_misses,
            breaker_skips=outcome.breaker_skips,
            trace=trace,
        )

    def _record_trace(
        self,
        admitted: _Admitted,
        outcome: _FanoutOutcome,
        fanout_start: float,
        fanout_end: float,
        merge_start: float,
        total_end: float,
    ) -> Span:
        tracer = self._tracer
        query = admitted.query
        root_attributes = {
            "query": admitted.text,
            "k": query.k,
            "mode": query.mode.value,
            "num_partitions": self.num_partitions,
        }
        if self._resilient_fanout:
            root_attributes.update(
                coverage=outcome.coverage,
                hedges_issued=outcome.hedges_issued,
                hedges_won=outcome.hedges_won,
                deadline_misses=outcome.deadline_misses,
            )
        if self.breaker_board is not None:
            root_attributes["breaker_skips"] = outcome.breaker_skips
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
        for shard_index, kind, result, start, end in outcome.answered:
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
                attributes["hedged"] = kind == "hedge"
            tracer.record_span(
                "shard", start=start, end=end, parent=fanout, **attributes
            )
        for shard_index in outcome.missed_shards:
            tracer.record_span(
                "shard", start=fanout_start, end=fanout_end, parent=fanout,
                shard=shard_index, deadline_missed=True,
            )
        tracer.record_span(
            "merge", start=merge_start, end=total_end, parent=root,
            num_shards=len(outcome.answered),
        )
        return root
