"""Multi-process execution backend: GIL-free shard scoring workers.

The thread backend's per-partition scoring serializes on the GIL, so
the native engine only showed real intra-node scaling in the DES.  This
module escapes that: a :class:`ProcessShardPool` of worker processes
attach **read-only** to the index exported by
:class:`~repro.index.shared.SharedIndexArena` and score
``(query, partition)`` work items with the *identical* kernel the
thread backend runs (:class:`~repro.search.executor.ShardSearcher`),
so top-k ids and float scores are bit-for-bit equal.

Protocol, parent side — no dispatcher thread: the thread with the work
drives the pipes itself.

- it checks an idle worker out, ships a **batch** of work items down
  its pipe in one message — batching amortizes IPC, the paper's
  per-dispatch cost — and, once it has scored a lane of its own (the
  caller is lane 0, so a query at P partitions keeps ``min(P - 1, W)``
  workers busy), receives the compact reply (top-k score/doc-id lists
  plus counter deltas; :func:`_recv`: a short poll, then ``recv``);
- a worker that dies mid-dispatch (OOM-kill, segfault, chaos ``kill``)
  is **respawned** and the batch re-sent while its crash retries last;
  then exactly the shards it carried fail with a typed
  :class:`WorkerCrashError` — which the ISN's gather treats like any
  shard failure: with a resilience feature configured the breaker
  records it, retries re-dispatch, and coverage degrades if the shard
  stays undecided; with none it reaches the caller — so the pool
  self-heals without restarting the service;
- per-worker observability merges on gather: each reply carries the
  worker's counter increments since its previous reply, and the parent
  folds them into its own
  :class:`~repro.obs.registry.MetricsRegistry`, so ``search.*`` /
  ``wand.*`` / ``store.*`` counters read the same totals under either
  backend.

Workers re-derive everything that is not an array from the picklable
spec: the dictionary, the global-statistics scorer (same integer
document frequencies ⇒ same idf floats), and — when tiered storage is
configured — a per-worker re-tiering of the attached shards (block
caches cannot span processes; budgets apply per worker).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.index.shared import SharedIndexSpec, attach_shared_index
from repro.obs.registry import MetricsRegistry
from repro.search.executor import SearchResult, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.query import ParsedQuery
from repro.search.strategy import TraversalStrategy
from repro.search.topk import SearchHit

__all__ = [
    "DEFAULT_PROBE_INTERVAL_S",
    "ProcessShardPool",
    "WorkerCrashError",
    "WorkerOptions",
]

#: One dispatchable unit: (shard index, parsed query).
WorkItem = Tuple[int, ParsedQuery]

#: The ``SearchResult`` fields a reply carries besides the hits, in order.
_COUNTERS = (
    "matched_volume", "docs_scored", "blocks_skipped", "blocks_fetched",
    "bytes_read", "truncated",
)

#: How long ``close()`` waits for a worker to exit politely before
#: terminating it.
_SHUTDOWN_GRACE_S = 2.0

#: How long a draining ``close()`` waits for checked-out workers to come
#: back before falling back to the hard path.
_DRAIN_GRACE_S = 30.0

#: Consecutive startup failures after which the pool stops respawning a
#: slot and surfaces the startup error instead of spinning.
_MAX_STARTUP_FAILURES = 3

#: Default liveness-probe period: a SIGKILLed worker is detected and
#: respawned within one interval even if no dispatch touches it.
DEFAULT_PROBE_INTERVAL_S = 0.25

#: How long either end of a worker pipe polls for the next message before
#: it sleeps on it.  A sleeping peer is woken through an idle CPU, which
#: on a virtual machine costs 50 us to over 1 ms a time, not the same
#: from one minute to the next — as much as a query's scoring.  A pool
#: that is kept busy never pays it; an idle one sleeps after this long.
_POLL_BEFORE_SLEEP_S = 1e-3


def _recv(conn):
    """``conn.recv()``, polling for ``_POLL_BEFORE_SLEEP_S`` first."""
    give_up = time.perf_counter() + _POLL_BEFORE_SLEEP_S
    while not conn.poll() and time.perf_counter() < give_up:
        pass
    return conn.recv()


class WorkerCrashError(RuntimeError):
    """A pool worker died while serving a dispatch.

    Carries the shard indexes the lost dispatch covered; the gather
    records one failure per affected shard (breaker food) when a
    resilience feature is configured, and otherwise propagates the
    error to the caller.
    """

    def __init__(self, message: str, shards: Sequence[int] = ()):
        super().__init__(message)
        self.shards: Tuple[int, ...] = tuple(shards)


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable worker construction parameters (crosses the fork once).

    ``tiered`` re-homes the attached shards onto per-worker tiered
    block storage; ``collect_metrics`` enables the worker-side registry
    whose counter deltas ride back on every reply.
    """

    algorithm: Union[str, TraversalStrategy] = "daat"
    use_global_stats: bool = True
    tiered: Optional[object] = None
    collect_metrics: bool = False


def _counter_deltas(
    registry: Optional[MetricsRegistry], last: Dict[str, int]
) -> Dict[str, int]:
    """Counter increments since the previous reply (mutates ``last``)."""
    if registry is None:
        return {}
    deltas: Dict[str, int] = {}
    for name, entry in registry.snapshot().items():
        if entry["type"] != "counter":
            continue
        value = int(entry["value"])  # type: ignore[arg-type]
        delta = value - last.get(name, 0)
        if delta:
            deltas[name] = delta
            last[name] = value
    return deltas


def _picklable(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(
            f"worker raised unpicklable {type(exc).__name__}: {exc!r}"
        )


def _worker_main(conn, spec: SharedIndexSpec, options: WorkerOptions) -> None:
    """Worker loop: attach once, then score batches until shutdown.

    A batch is ``(work items, max_docs_scored)``: the depth cap, when
    not None, bounds every item's traversal as it does on the caller's
    thread.  The reply is a list of per-item payloads — ``("ok",
    compact-lists)`` or ``("err", exception)`` — plus the counter
    deltas accumulated while serving it.
    """
    registry = MetricsRegistry() if options.collect_metrics else None
    partitioned, segment = attach_shared_index(spec)
    if options.tiered is not None:
        from repro.index.store import tier_partitioned_index

        partitioned = tier_partitioned_index(
            partitioned, options.tiered, metrics=registry
        )
    scorer_factory = (
        global_scorer_factory(partitioned)
        if options.use_global_stats
        else None
    )
    searchers = [
        ShardSearcher(
            shard,
            algorithm=options.algorithm,
            scorer_factory=scorer_factory,
            metrics=registry,
        )
        for shard in partitioned
    ]
    last_counters: Dict[str, int] = {}
    try:
        conn.send(("ready", os.getpid()))
        while True:
            message = _recv(conn)
            if message is None:
                break
            items, max_docs_scored = message
            payloads: List[Tuple[str, Any]] = []
            for shard_id, query in items:
                try:
                    start = time.perf_counter()
                    result = searchers[shard_id].search(
                        query, max_docs_scored=max_docs_scored
                    )
                    end = time.perf_counter()
                except Exception as exc:  # typed errors cross the pipe
                    payloads.append(("err", _picklable(exc)))
                    continue
                # Two flat lists pickle and unpickle in a fraction of
                # the time two small arrays or the hit tuples take.
                hits = result.hits
                payloads.append(("ok", (
                    [hit.score for hit in hits],
                    [hit.doc_id for hit in hits],
                    tuple(getattr(result, name) for name in _COUNTERS),
                    start,
                    end,
                )))
            conn.send((payloads, _counter_deltas(registry, last_counters)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; exit quietly
    finally:
        try:
            conn.close()
        finally:
            segment.close()


def _unpack_result(payload: tuple, query: ParsedQuery):
    """Rebuild a (SearchResult, start, end) triple from compact lists."""
    scores, doc_ids, counters, start, end = payload
    hits = tuple(map(SearchHit, scores, doc_ids))
    result = SearchResult(
        hits=hits, query=query, **dict(zip(_COUNTERS, counters))
    )
    return result, start, end


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    conn: object
    ready: bool = False
    startup_failures: int = 0


@dataclass(eq=False)
class _Flight:
    """One batch sent to a checked-out worker, awaiting its reply."""

    slot: int
    items: List[WorkItem]
    retries: int  #: crash re-sends left
    max_docs_scored: Optional[int] = None  #: the batch's depth cap
    handle: Optional[_WorkerHandle] = None
    error: Optional[BaseException] = None  #: why the last send failed


class ProcessShardPool:
    """A self-healing pool of shard-scoring worker processes.

    Parameters
    ----------
    spec:
        The shared-index attach descriptor
        (:attr:`~repro.index.shared.SharedIndexArena.spec`).
    workers:
        Number of worker processes (each attaches the whole index, so
        any worker can serve any shard).
    options:
        Worker-side searcher construction parameters.
    metrics:
        Optional parent registry that worker counter deltas merge into.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    probe_interval_s:
        Liveness-probe period for the background health monitor.  A
        worker that dies *between* dispatches (SIGKILL, OOM, segfault)
        is detected and respawned within one interval instead of on the
        next dispatch.  ``None`` (or ``0``) disables the monitor; the
        cheap pre-dispatch ``is_alive`` check still runs.
    """

    def __init__(
        self,
        spec: SharedIndexSpec,
        *,
        workers: int,
        options: WorkerOptions,
        metrics: Optional[MetricsRegistry] = None,
        start_method: Optional[str] = None,
        probe_interval_s: Optional[float] = DEFAULT_PROBE_INTERVAL_S,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if probe_interval_s is not None and probe_interval_s < 0:
            raise ValueError("probe_interval_s must be non-negative")
        self._spec = spec
        self._options = options
        self._metrics = metrics
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        #: Notified whenever a worker is checked back in.
        self._checked_in = threading.Condition(self._lock)
        self._idle = list(range(workers))
        self._closed = False
        self._probe_interval_s = (
            probe_interval_s if probe_interval_s else None
        )
        self._health_stats = dict.fromkeys(
            ("probes", "deaths_detected", "respawns"), 0
        )
        self._health_stop = threading.Event()
        # Start every process before blocking on any handshake so the
        # (possibly slow, under spawn) attaches overlap.
        self._workers: List[_WorkerHandle] = [
            self._spawn(slot) for slot in range(workers)
        ]
        self._health_thread: Optional[threading.Thread] = None
        if self._probe_interval_s is not None:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="isn-mp-health",
                daemon=True,
            )
            self._health_thread.start()

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def worker_pids(self) -> List[int]:
        """Live worker process ids (chaos tests kill these)."""
        with self._lock:
            return [
                handle.process.pid
                for handle in self._workers
                if handle.process.pid is not None
            ]

    def submit_batch(
        self, items: List[WorkItem], *, crash_retries: int = 0
    ) -> Future:
        """Run a batch of work items through one worker, one round trip.

        Waits for an idle worker, sends, receives, and returns a done
        future holding what :meth:`receive` returned (or raised).
        """
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        future: Future = Future()
        slot = self.checkout(wait=True)
        try:
            flight = self.send(slot, items, crash_retries)
            future.set_result(self.receive(flight))
        except Exception as exc:
            future.set_exception(exc)
        finally:
            self.checkin(slot)
        return future

    # ------------------------------------------------------------------
    # worker lifecycle

    def _spawn(self, slot: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._spec, self._options),
            name=f"isn-shard-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process=process, conn=parent_conn)

    def _respawn(self, slot: int, failed_handle: _WorkerHandle) -> None:
        """Replace a dead worker (the self-healing half of the pool).

        Idempotent per handle: a dispatch (on a mid-dispatch EOF)
        and the health monitor (on a failed liveness probe) may both
        notice the same death; whichever serializes second sees the
        replacement already installed and backs off.
        """
        with self._lock:
            if self._closed or self._workers[slot] is not failed_handle:
                return
        try:
            failed_handle.conn.close()
        except OSError:
            pass
        if failed_handle.process.is_alive():
            failed_handle.process.terminate()
        failed_handle.process.join(timeout=_SHUTDOWN_GRACE_S)
        with self._lock:
            if self._closed or self._workers[slot] is not failed_handle:
                return
            replacement = self._spawn(slot)
            replacement.startup_failures = (
                failed_handle.startup_failures
                + (0 if failed_handle.ready else 1)
            )
            self._workers[slot] = replacement
            self._health_stats["respawns"] += 1
        if self._metrics is not None:
            self._metrics.counter("health.respawns").add(1)

    # ------------------------------------------------------------------
    # health checking

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self._probe_interval_s):
            self.probe()

    def probe(self) -> Dict[str, Any]:
        """One liveness sweep: respawn dead workers, return a snapshot.

        The background monitor calls this every ``probe_interval_s``;
        it is public so health endpoints and tests can force a sweep.
        """
        with self._lock:
            closed = self._closed
            handles = list(self._workers)
        if closed:
            return self.health_snapshot()
        deaths = 0
        for slot, handle in enumerate(handles):
            if handle.process.is_alive():
                continue
            deaths += 1
            # A crash-looping worker is left down once the startup
            # budget is spent — the dispatch path surfaces the typed
            # giving-up error; endlessly respawning would just spin.
            if handle.startup_failures < _MAX_STARTUP_FAILURES:
                self._respawn(slot, handle)
        with self._lock:
            self._health_stats["probes"] += 1
            self._health_stats["deaths_detected"] += deaths
        if self._metrics is not None:
            self._metrics.counter("health.probes").add(1)
            if deaths:
                self._metrics.counter("health.worker_deaths").add(deaths)
            self._metrics.gauge("health.live_workers").set(
                self.live_workers()
            )
        return self.health_snapshot()

    def live_workers(self) -> int:
        """Workers currently alive (after any respawns)."""
        with self._lock:
            return sum(
                1 for handle in self._workers if handle.process.is_alive()
            )

    def health_snapshot(self) -> Dict[str, Any]:
        """Point-in-time liveness view of the pool (JSON-friendly)."""
        with self._lock:
            workers = [
                {
                    "slot": slot,
                    "pid": handle.process.pid,
                    "alive": handle.process.is_alive(),
                    "ready": handle.ready,
                    "startup_failures": handle.startup_failures,
                }
                for slot, handle in enumerate(self._workers)
            ]
            stats = dict(self._health_stats)
            closed = self._closed
        return {
            "workers": workers,
            "live_workers": sum(1 for w in workers if w["alive"]),
            "probe_interval_s": self._probe_interval_s,
            "closed": closed,
            **stats,
        }

    # ------------------------------------------------------------------
    # dispatch

    def checkout(self, wait: bool = False) -> Optional[int]:
        """Reserve an idle worker's slot for one dispatch.

        Returns None when every worker is checked out, unless ``wait``,
        which blocks until one is checked back in.
        """
        with self._lock:
            if wait:
                self._checked_in.wait_for(lambda: self._idle or self._closed)
            if self._closed:
                raise RuntimeError("ProcessShardPool is closed")
            return self._idle.pop() if self._idle else None

    def checkin(self, slot: int) -> None:
        """Return a slot :meth:`checkout` reserved."""
        with self._lock:
            self._idle.append(slot)
            self._checked_in.notify_all()

    def send(
        self,
        slot: int,
        items: Sequence[WorkItem],
        crash_retries: int = 0,
        max_docs_scored: Optional[int] = None,
    ) -> _Flight:
        """Ship ``items`` to the checked-out worker in one message (a
        dead worker does not raise here: :meth:`receive` reports it),
        each to be scored at most ``max_docs_scored`` documents deep."""
        flight = _Flight(slot, list(items), crash_retries, max_docs_scored)
        self._post(flight)
        return flight

    def _post(self, flight: _Flight) -> None:
        with self._lock:
            handle = self._workers[flight.slot]
        if handle.ready and not handle.process.is_alive():
            # Cheap pre-dispatch liveness check: respawn instead of
            # burning this batch discovering an already-dead worker.
            self._respawn(flight.slot, handle)
            with self._lock:
                handle = self._workers[flight.slot]
        flight.handle, flight.error = handle, None
        if handle.startup_failures >= _MAX_STARTUP_FAILURES:
            return  # receive() gives up on it
        try:
            if not handle.ready:  # first use: wait until it has attached
                message = handle.conn.recv()
                if not (isinstance(message, tuple) and message[0] == "ready"):
                    raise WorkerCrashError(
                        f"worker sent unexpected handshake {message!r}"
                    )
                handle.ready, handle.startup_failures = True, 0
            handle.conn.send((flight.items, flight.max_docs_scored))
        except (EOFError, OSError, WorkerCrashError) as exc:
            flight.error = exc

    def ready(self, flight: _Flight) -> bool:
        """Whether :meth:`receive` can return without waiting on a worker."""
        try:
            return flight.error is not None or flight.handle.conn.poll()
        except OSError:  # the health monitor closed the pipe
            return True

    def receive(self, flight: _Flight) -> List[tuple]:
        """``(shard_id, SearchResult, start, end)`` per item of ``flight``.

        A worker that died is respawned and the batch (an idempotent
        read) re-sent while the flight's crash retries last; then
        :class:`WorkerCrashError` names exactly this batch's shards.  An
        error an item raised in the worker is re-raised here.
        """
        shards = [shard for shard, _ in flight.items]
        while True:
            handle = flight.handle
            if handle.startup_failures >= _MAX_STARTUP_FAILURES:
                raise WorkerCrashError(
                    f"worker slot {flight.slot} failed to start "
                    f"{handle.startup_failures} times; giving up",
                    shards=shards,
                )
            if flight.error is None:
                try:
                    payloads, deltas = _recv(handle.conn)
                    break
                except (EOFError, OSError) as exc:
                    flight.error = exc
            self._respawn(flight.slot, handle)
            if flight.retries <= 0 or self._closed:
                raise WorkerCrashError(
                    f"worker serving shards {shards} died: {flight.error!r}",
                    shards=shards,
                )
            flight.retries -= 1
            self._post(flight)
        if deltas and self._metrics is not None:
            self._metrics.merge_counter_deltas(deltas)
        results = []
        for (shard_id, query), (status, payload) in zip(
            flight.items, payloads
        ):
            if status == "err":
                raise payload
            results.append((shard_id, *_unpack_result(payload, query)))
        return results

    # ------------------------------------------------------------------
    # shutdown

    def close(self, drain: bool = True) -> None:
        """Shut workers down and release pipes (idempotent).

        No worker can be checked out once this starts; it first waits
        for the checked-out ones to come back, up to a generous grace
        with ``drain`` (the default) and a short one without.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._checked_in.notify_all()
            self._checked_in.wait_for(
                lambda: len(self._idle) == len(self._workers),
                timeout=_DRAIN_GRACE_S if drain else _SHUTDOWN_GRACE_S,
            )
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=_SHUTDOWN_GRACE_S)
        for handle in self._workers:
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
            handle.process.join(timeout=_SHUTDOWN_GRACE_S)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=_SHUTDOWN_GRACE_S)
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
