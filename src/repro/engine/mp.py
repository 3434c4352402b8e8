"""Multi-process execution backend: GIL-free shard scoring workers.

The thread backend's per-partition scoring serializes on the GIL, so
the native engine only showed real intra-node scaling in the DES.  This
module escapes that: a :class:`ProcessShardPool` of worker processes
map **read-only** the index image written by
:class:`~repro.index.shared.SharedIndexArena` and score
``(query, partition)`` work items with the *identical* kernel the
thread backend runs (:class:`~repro.search.executor.ShardSearcher`),
so top-k ids and float scores are bit-for-bit equal.

Protocol, parent side — no dispatcher thread: the thread with the work
drives the pipes itself.

- it checks an idle worker out, sends a **batch** of work items down
  its pipe as one binary frame — batching amortizes the round trip, the
  paper's per-dispatch cost — and, once it has scored a lane of its own
  (the caller is lane 0, so a query at P partitions keeps
  ``min(P - 1, W)`` workers busy), reads the reply frame: packed
  counters and top-k scores/doc ids per item (:class:`_Pipe`: a short
  poll on one poller, then a blocking read).  Only an item's exception
  and the counter deltas are pickled;
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

import contextlib
import functools
import multiprocessing
import pickle
import select
import struct
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.index.shared import SharedIndexSpec, attach_shared_index
from repro.obs.registry import MetricsRegistry
from repro.search.executor import SearchResult, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.query import ParsedQuery, QueryMode
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

#: Frame layouts.  A request: the depth cap (-1: none), the query and
#: item counts; per distinct query its k, mode code (its index in
#: ``_MODES``), term count, the terms' byte lengths, then the terms; per
#: item its shard id and query number.  A reply: the size of the pickled
#: counter deltas, then them; per item a status, then the hit count,
#: the six ``SearchResult`` counters (-1: None), start, end, the scores
#: and the doc ids — or the pickled exception's size and it.
_REQUEST, _QUERY = struct.Struct("<qII"), struct.Struct("<IBI")
_SIZE, _STATUS = struct.Struct("<I"), struct.Struct("<BI")
_OK, _ERROR = 0, 1
_MODES = tuple(QueryMode)
#: Compiled layouts of the variable-length parts, by format.
_layout = functools.lru_cache(maxsize=1024)(struct.Struct)

#: Bytes a pipe end allocates for the frames it reads; a longer frame
#: arrives through ``BufferTooShort`` instead.
_FRAME_BYTES = 1 << 16

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


class _Pipe:
    """One end of a worker pipe, read frame by frame through one poller
    (``Connection.poll`` builds a selector per call) into one buffer."""

    def __init__(self, conn):
        self.conn, self._poller = conn, select.poll()
        self._poller.register(conn, select.POLLIN)
        self._buffer = bytearray(_FRAME_BYTES)

    def ready(self) -> bool:
        """Whether :meth:`read` returns or raises without waiting."""
        return self.conn.closed or bool(self._poller.poll(0))

    def read(self):
        """The next frame, polled for up to ``_POLL_BEFORE_SLEEP_S`` (each
        poll releases the GIL) before a blocking read; a dead peer raises
        ``EOFError``, a closed end ``OSError``."""
        give_up = time.perf_counter() + _POLL_BEFORE_SLEEP_S
        while not self._poller.poll(0) and time.perf_counter() < give_up:
            pass
        try:
            size = self.conn.recv_bytes_into(self._buffer)
        except multiprocessing.BufferTooShort as exc:
            return exc.args[0]
        return memoryview(self._buffer)[:size]

    def close(self) -> None:
        """Close this end, unregistered first: the poller must never poll
        a descriptor number that a new pipe may have reused."""
        with contextlib.suppress(KeyError, OSError):  # already closed
            self._poller.unregister(self.conn)
        self.conn.close()


def _encode_request(
    items: Sequence[WorkItem], max_docs_scored: Optional[int]
) -> bytes:
    # The gather lays a batch out query by query, one item per shard:
    # a run of items that share a query sends it once.
    queries: List[ParsedQuery] = []
    refs: List[int] = []
    for shard_id, query in items:
        if not queries or query is not queries[-1]:
            queries.append(query)
        refs += (shard_id, len(queries) - 1)
    depth = -1 if max_docs_scored is None else max_docs_scored
    parts = [_REQUEST.pack(depth, len(queries), len(items))]
    for query in queries:
        terms = [term.encode() for term in query.terms]
        parts.append(_layout(f"<IBI{len(terms)}I").pack(
            query.k, _MODES.index(query.mode), len(terms), *map(len, terms)
        ))
        parts += terms
    parts.append(_layout(f"<{len(refs)}I").pack(*refs))
    return b"".join(parts)


def _decode_request(frame) -> Tuple[List[WorkItem], Optional[int]]:
    depth, count, items = _REQUEST.unpack_from(frame)
    offset, queries = _REQUEST.size, []
    for _ in range(count):
        layout = _layout(f"<IBI{_QUERY.unpack_from(frame, offset)[2]}I")
        k, mode, _, *lengths = layout.unpack_from(frame, offset)
        offset += layout.size
        terms = []
        for length in lengths:
            terms.append(str(frame[offset : offset + length], "utf-8"))
            offset += length
        queries.append(ParsedQuery(tuple(terms), _MODES[mode], k))
    refs = _layout(f"<{2 * items}I").unpack_from(frame, offset)
    pairs = zip(refs[::2], refs[1::2])
    return (
        [(shard_id, queries[number]) for shard_id, number in pairs],
        None if depth < 0 else depth,
    )


def _encode_result(result: SearchResult, start: float, end: float) -> bytes:
    hits = result.hits
    return _layout(f"<BI6q2d{len(hits)}d{len(hits)}q").pack(
        _OK, len(hits), result.matched_volume,
        *[-1 if value is None else value for value in (
            result.docs_scored, result.blocks_skipped,
            result.blocks_fetched, result.bytes_read,
        )],
        result.truncated, start, end,
        *[hit[0] for hit in hits], *[hit[1] for hit in hits],
    )


def _decode_reply(
    frame, items: Sequence[WorkItem], metrics: Optional[MetricsRegistry]
) -> List[tuple]:
    """``(shard_id, SearchResult, start, end)`` per item, once the
    frame's counter deltas are merged; an item's error is raised."""
    (size,) = _SIZE.unpack_from(frame)
    offset = _SIZE.size + size
    if size and metrics is not None:
        deltas = pickle.loads(frame[_SIZE.size : offset])
        for name, delta in deltas.items():
            metrics.counter(name).add(delta)
    results = []
    for shard_id, query in items:
        status, count = _STATUS.unpack_from(frame, offset)
        offset += _STATUS.size
        if status == _ERROR:
            raise pickle.loads(frame[offset : offset + count])
        layout = _layout(f"<6q2d{count}d{count}q")
        values = layout.unpack_from(frame, offset)
        offset += layout.size
        # ``tuple.__new__`` builds each hit without the Python frame a
        # ``SearchHit(score, doc_id)`` call costs: half the time.
        hits = tuple(map(
            tuple.__new__, repeat(SearchHit, count),
            zip(values[8 : 8 + count], values[8 + count :]),
        ))
        counters = [None if value < 0 else value for value in values[1:5]]
        result = SearchResult(
            hits, query, values[0], *counters, bool(values[5])
        )
        results.append((shard_id, result, values[6], values[7]))
    return results


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


def _worker_main(
    conn, spec: SharedIndexSpec, options: WorkerOptions, inherited: list
) -> None:
    """Worker loop: attach once, say so in an empty frame, then score
    batches until shutdown.

    ``inherited`` are the parent's pipe ends a forked worker holds
    copies of, its own among them (none under spawn); it closes them
    first, so that it reads EOF once the parent is gone, however the
    parent died.

    A request frame carries work items and a depth cap that, when not
    None, bounds every item's traversal as it does on the caller's
    thread; an empty frame asks the worker to exit.  The reply frame
    carries the counter deltas accumulated while serving the batch, then
    per item its result or its (pickled) exception.
    """
    for parent_end in inherited:
        parent_end.close()
    registry = MetricsRegistry() if options.collect_metrics else None
    partitioned = attach_shared_index(spec)
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
    pipe = _Pipe(conn)
    try:
        conn.send_bytes(b"")  # attached: the start-up handshake
        while frame := pipe.read():
            items, max_docs_scored = _decode_request(frame)
            parts = []
            for shard_id, query in items:
                try:
                    start = time.perf_counter()
                    result = searchers[shard_id].search(
                        query, max_docs_scored=max_docs_scored
                    )
                    end = time.perf_counter()
                except Exception as exc:  # typed errors cross the pipe
                    error = pickle.dumps(_picklable(exc))
                    parts += (_STATUS.pack(_ERROR, len(error)), error)
                    continue
                parts.append(_encode_result(result, start, end))
            deltas = _counter_deltas(registry, last_counters)
            blob = pickle.dumps(deltas) if deltas else b""
            conn.send_bytes(b"".join((_SIZE.pack(len(blob)), blob, *parts)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away; exit quietly
    finally:
        pipe.close()


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    pipe: _Pipe
    ready: bool = False
    startup_failures: int = 0


@dataclass(eq=False)
class _Flight:
    """One batch sent to a checked-out worker, awaiting its reply."""

    slot: int
    items: List[WorkItem]
    retries: int  #: crash re-sends left
    frame: bytes  #: the request, re-sent as is after a crash
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
        self._workers: List[_WorkerHandle] = []
        for slot in range(workers):
            self._workers.append(self._spawn(slot))
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
        inherited = []
        if self._ctx.get_start_method() == "fork":
            inherited = [parent_conn]
            inherited += (handle.pipe.conn for handle in self._workers)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._spec, self._options, inherited),
            name=f"isn-shard-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process=process, pipe=_Pipe(parent_conn))

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
        failed_handle.pipe.close()
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
        """Ship ``items`` to the checked-out worker in one frame (a
        dead worker does not raise here: :meth:`receive` reports it),
        each to be scored at most ``max_docs_scored`` documents deep."""
        flight = _Flight(
            slot, list(items), crash_retries,
            _encode_request(items, max_docs_scored),
        )
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
                handle.pipe.read()
                handle.ready, handle.startup_failures = True, 0
            handle.pipe.conn.send_bytes(flight.frame)
        except (EOFError, OSError) as exc:
            flight.error = exc

    def ready(self, flight: _Flight) -> bool:
        """Whether :meth:`receive` can return without waiting on a worker."""
        return flight.error is not None or flight.handle.pipe.ready()

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
                    frame = handle.pipe.read()
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
        return _decode_reply(frame, flight.items, self._metrics)

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
            with contextlib.suppress(OSError, ValueError):
                handle.pipe.conn.send_bytes(b"")  # asks it to exit
            handle.process.join(timeout=_SHUTDOWN_GRACE_S)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=_SHUTDOWN_GRACE_S)
            handle.pipe.close()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
