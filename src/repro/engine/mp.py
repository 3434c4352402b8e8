"""Multi-process execution backend: GIL-free shard scoring workers.

The thread backend's per-partition scoring serializes on the GIL, so
the native engine only showed real intra-node scaling in the DES.  This
module escapes that: a :class:`ProcessShardPool` of worker processes
attach **read-only** to the index exported by
:class:`~repro.index.shared.SharedIndexArena` and score
``(query, partition)`` work items with the *identical* kernel the
thread backend runs (:class:`~repro.search.executor.ShardSearcher`),
so top-k ids and float scores are bit-for-bit equal.

Protocol, parent side:

- one dispatcher thread per worker pulls tasks from a shared queue
  (natural load balancing), ships a **batch** of work items down the
  worker's pipe in one message — batching amortizes IPC, the paper's
  per-dispatch cost — and waits (:func:`_recv`: a short poll, then a
  blocking ``recv``) until the compact reply (top-k score/doc-id
  arrays plus counter deltas) comes back;
- a worker that dies mid-dispatch (OOM-kill, segfault, chaos ``kill``)
  fails exactly the shards it was serving with a typed
  :class:`WorkerCrashError` — which the ISN's gather treats like any
  shard failure: with a resilience feature configured the breaker
  records it, retries re-dispatch, and coverage degrades if the shard
  stays undecided; with none it reaches the caller — and the dispatcher
  **respawns** the worker, so the pool self-heals without restarting
  the service;
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
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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

#: How long ``close()`` waits for a worker to exit politely before
#: terminating it.
_SHUTDOWN_GRACE_S = 2.0

#: How long a draining ``close()`` waits for dispatchers to finish the
#: queued work before falling back to the hard path.
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

_SHUTDOWN = object()


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

    The reply for a batch is a list of per-item payloads — ``("ok",
    compact-arrays)`` or ``("err", exception)`` — plus the counter
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
            payloads: List[Tuple[str, Any]] = []
            for shard_id, query in message:
                try:
                    start = time.perf_counter()
                    result = searchers[shard_id].search(query)
                    end = time.perf_counter()
                except Exception as exc:  # typed errors cross the pipe
                    payloads.append(("err", _picklable(exc)))
                else:
                    payloads.append(
                        (
                            "ok",
                            (
                                np.asarray(
                                    [hit.score for hit in result.hits],
                                    dtype=np.float64,
                                ),
                                np.asarray(
                                    [hit.doc_id for hit in result.hits],
                                    dtype=np.int64,
                                ),
                                result.matched_volume,
                                result.docs_scored,
                                result.blocks_skipped,
                                result.blocks_fetched,
                                result.bytes_read,
                                start,
                                end,
                            ),
                        )
                    )
            conn.send((payloads, _counter_deltas(registry, last_counters)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; exit quietly
    finally:
        try:
            conn.close()
        finally:
            segment.close()


def _unpack_result(payload: tuple, query: ParsedQuery):
    """Rebuild a (SearchResult, start, end) triple from compact arrays."""
    (
        scores,
        doc_ids,
        matched_volume,
        docs_scored,
        blocks_skipped,
        blocks_fetched,
        bytes_read,
        start,
        end,
    ) = payload
    hits = tuple(
        SearchHit(score=float(score), doc_id=int(doc_id))
        for score, doc_id in zip(scores, doc_ids)
    )
    result = SearchResult(
        hits=hits,
        query=query,
        matched_volume=matched_volume,
        docs_scored=docs_scored,
        blocks_skipped=blocks_skipped,
        blocks_fetched=blocks_fetched,
        bytes_read=bytes_read,
    )
    return result, start, end


@dataclass
class _Task:
    items: List[WorkItem]
    future: Future
    #: Remaining crash re-dispatches: a batch whose worker dies is put
    #: back on the shared queue (a healthy worker picks it up) this
    #: many times before the failure is surfaced.
    retries: int = 0
    #: Whether ``set_running_or_notify_cancel`` already ran — a retried
    #: task's future is already RUNNING and must not be re-armed.
    started: bool = False


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    conn: object
    ready: bool = False
    startup_failures: int = 0


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
        self._tasks: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._closed = False
        self._probe_interval_s = (
            probe_interval_s if probe_interval_s else None
        )
        self._health_stats = {
            "probes": 0,
            "deaths_detected": 0,
            "respawns": 0,
        }
        self._health_stop = threading.Event()
        # Start every process before blocking on any handshake so the
        # (possibly slow, under spawn) attaches overlap.
        self._workers: List[_WorkerHandle] = [
            self._spawn(slot) for slot in range(workers)
        ]
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"isn-mp-dispatch-{slot}",
                daemon=True,
            )
            for slot in range(workers)
        ]
        for thread in self._dispatchers:
            thread.start()
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
        """Dispatch a batch of work items in one IPC round-trip.

        The future resolves to a list of
        ``(shard_id, SearchResult, start, end)`` tuples in item order.
        ``crash_retries`` re-dispatches the whole batch to a healthy
        worker that many times should the serving worker die mid-batch
        (the work is an idempotent read); only after the budget is
        exhausted does the future fail with
        :class:`WorkerCrashError` naming exactly this batch's shards.
        """
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        future: Future = Future()
        if not items:
            future.set_result([])
            return future
        with self._lock:
            if self._closed:
                raise RuntimeError("ProcessShardPool is closed")
        self._tasks.put(
            _Task(items=list(items), future=future, retries=crash_retries)
        )
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

    def _ensure_ready(self, handle: _WorkerHandle) -> None:
        """Block until the worker finished attaching (first use only)."""
        if handle.ready:
            return
        message = handle.conn.recv()
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise WorkerCrashError(
                f"worker sent unexpected handshake {message!r}"
            )
        handle.ready = True
        handle.startup_failures = 0

    def _respawn(self, slot: int, failed_handle: _WorkerHandle) -> None:
        """Replace a dead worker (the self-healing half of the pool).

        Idempotent per handle: the dispatcher (on a mid-dispatch EOF)
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

    def _dispatch_loop(self, slot: int) -> None:
        while True:
            task = self._tasks.get()
            if task is _SHUTDOWN:
                return
            assert isinstance(task, _Task)
            if not task.started:
                if not task.future.set_running_or_notify_cancel():
                    continue
                task.started = True
            with self._lock:
                handle = self._workers[slot]
            if handle.ready and not handle.process.is_alive():
                # Cheap pre-dispatch liveness check: respawn instead of
                # burning this task discovering an already-dead worker.
                self._respawn(slot, handle)
                with self._lock:
                    handle = self._workers[slot]
            if handle.startup_failures >= _MAX_STARTUP_FAILURES:
                task.future.set_exception(
                    WorkerCrashError(
                        f"worker slot {slot} failed to start "
                        f"{handle.startup_failures} times; giving up",
                        shards=[shard for shard, _ in task.items],
                    )
                )
                continue
            try:
                self._ensure_ready(handle)
                handle.conn.send(task.items)
                payloads, deltas = _recv(handle.conn)
            except (EOFError, OSError) as exc:
                shards = [shard for shard, _ in task.items]
                self._crash_task(
                    task,
                    WorkerCrashError(
                        f"worker serving shards {shards} died: {exc!r}",
                        shards=shards,
                    ),
                )
                self._respawn(slot, handle)
                continue
            except WorkerCrashError as exc:
                self._crash_task(task, exc)
                self._respawn(slot, handle)
                continue
            if deltas and self._metrics is not None:
                self._metrics.merge_counter_deltas(deltas)
            self._finish(task, payloads)

    def _crash_task(self, task: _Task, error: WorkerCrashError) -> None:
        """Fail or re-dispatch a task whose serving worker died.

        A task with retry budget goes back on the shared queue, where
        any dispatcher — typically one with a healthy worker, or this
        slot once its replacement is up — picks it up; the items are
        idempotent reads, so a re-dispatch cannot double-count results.
        Only when the budget is spent (or the pool is closing) is the
        failure surfaced, attributed to exactly this dispatch's shards.
        """
        if task.retries > 0:
            with self._lock:
                closing = self._closed
            if not closing:
                task.retries -= 1
                self._tasks.put(task)
                return
        task.future.set_exception(error)

    def _finish(self, task: _Task, payloads: List[Tuple[str, Any]]) -> None:
        results = []
        for (shard_id, query), (status, payload) in zip(
            task.items, payloads
        ):
            if status == "err":
                task.future.set_exception(payload)
                return
            result, start, end = _unpack_result(payload, query)
            results.append((shard_id, result, start, end))
        task.future.set_result(results)

    # ------------------------------------------------------------------
    # shutdown

    def close(self, drain: bool = True) -> None:
        """Stop dispatchers, shut workers down, release pipes (idempotent).

        With ``drain=True`` (the default) the pool finishes everything
        already queued before shutting down: the shutdown sentinels
        queue *behind* the pending tasks, so every accepted future
        resolves — a graceful drain, bounded by a generous grace.  With
        ``drain=False`` queued-but-undispatched tasks fail fast with a
        typed :class:`WorkerCrashError` instead of being served.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._health_stop.set()
        if not drain:
            while True:
                try:
                    task = self._tasks.get_nowait()
                except queue.Empty:
                    break
                if not isinstance(task, _Task):
                    continue
                if task.started or task.future.set_running_or_notify_cancel():
                    task.future.set_exception(
                        WorkerCrashError(
                            "ProcessShardPool closed before dispatch",
                            shards=[shard for shard, _ in task.items],
                        )
                    )
        for _ in self._dispatchers:
            self._tasks.put(_SHUTDOWN)
        for thread in self._dispatchers:
            thread.join(
                timeout=_DRAIN_GRACE_S if drain else _SHUTDOWN_GRACE_S
            )
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
