"""Shard-execution backends behind the ISN's one gather.

The gather in :mod:`repro.engine.isn` never searches a shard itself; it
hands ``(shard, query)`` work items to a backend and waits on futures.
A backend is two methods:

``submit(items, cancel, max_docs_scored=None, crash_retries=0)``
    Start one attempt per work item and return one future per item,
    each resolving to ``(SearchResult, start, end)`` or raising the
    attempt's error.  One call is one unit of cancellation (``cancel``
    is its token, None when nothing will ever cancel it) and of packing
    (whatever a backend batches, it batches within a call), so a caller
    that needs attempts to be cancelled or to fail independently submits
    them separately.
``close()``
    Release the execution resources.

:class:`LocalBackend` searches the node's own searchers — inline, as
completed futures on the caller's thread, or on a thread pool when a
hedging policy needs attempts to overlap.
:class:`ProcessBackend` scores GIL-free on a
:class:`~repro.engine.mp.ProcessShardPool`, one IPC message per worker
lane.  Both apply a :class:`~repro.resilience.faults.FaultInjector`
parent-side, so a fault plan means the same thing on either.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, Future
from functools import partial
from typing import List, Optional, Sequence

from repro.engine.mp import ProcessShardPool, WorkItem
from repro.resilience.faults import FaultInjector, InjectedFault


def _run_inline(function, *args) -> Future:
    """Call ``function`` now; hand back its outcome as a done future."""
    future: Future = Future()
    try:
        future.set_result(function(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


class LocalBackend:
    """Attempts on the node's own searchers, pooled or inline.

    ``searchers`` is the node's live list, indexed at attempt time so a
    searcher swapped in after construction (tests script stragglers
    that way) is the one that runs.  ``crash_retries`` means nothing
    here: there is no worker to lose.
    """

    def __init__(
        self,
        searchers: list,
        executor: Optional[Executor] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self._searchers = searchers
        self._executor = executor
        self._faults = faults

    def submit(
        self,
        items: Sequence[WorkItem],
        cancel: Optional[threading.Event],
        max_docs_scored: Optional[int] = None,
        crash_retries: int = 0,
    ) -> List[Future]:
        run = _run_inline if self._executor is None else self._executor.submit
        return [
            run(self._attempt, shard, query, cancel, max_docs_scored)
            for shard, query in items
        ]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def _attempt(self, shard, query, cancel, max_docs_scored):
        """One cancellable search of one shard.

        Injected crashes/errors raise here and slowdowns pad the
        measured service time, so they reach the gather exactly like a
        real failing or straggling shard.
        """
        if self._faults is not None:
            self._faults.before_search(shard)
        # The depth cap is passed only when one is set: searchers that
        # do not budget their traversal need not accept the keyword.
        depth = (
            {} if max_docs_scored is None
            else {"max_docs_scored": max_docs_scored}
        )
        start = time.perf_counter()
        result = self._searchers[shard].search(query, cancel=cancel, **depth)
        end = time.perf_counter()
        if self._faults is not None:
            self._faults.slowdown_sleep(shard, end - start)
            end = time.perf_counter()
        return result, start, end


class ProcessBackend:
    """Attempts on a :class:`~repro.engine.mp.ProcessShardPool`.

    One ``submit`` call is dealt into contiguous chunks, one IPC message
    each: enough chunks that every worker gets one, none larger than
    ``batch_size`` items — a query's shards spread across the workers,
    a batch amortizes the round-trip over ``batch_size`` scoring calls.
    The dispatch protocol carries neither a cancellation token nor a
    depth cap: a worker already scoring cannot be interrupted (the
    gather discards its late answer).  ``crash_retries`` re-dispatches a
    chunk whose worker died that many times before the typed
    :class:`~repro.engine.mp.WorkerCrashError` reaches its futures.
    """

    def __init__(
        self,
        pool: ProcessShardPool,
        batch_size: int,
        faults: Optional[FaultInjector] = None,
    ):
        self._pool = pool
        self._batch_size = batch_size
        self._faults = faults

    def submit(
        self,
        items: Sequence[WorkItem],
        cancel: Optional[threading.Event],
        max_docs_scored: Optional[int] = None,
        crash_retries: int = 0,
    ) -> List[Future]:
        futures: List[Future] = [Future() for _ in items]
        for future in futures:
            # Dispatch is immediate, so an attempt is never cancellable.
            future.set_running_or_notify_cancel()
        try:
            if self._faults is not None:
                for shard, _ in items:
                    self._faults.before_search(shard)
        except InjectedFault as exc:
            for future in futures:  # a submission fails as one
                future.set_exception(exc)
            return futures
        lanes = min(self._pool.num_workers, len(items))
        size = min(self._batch_size, -(-len(items) // lanes))
        for lo in range(0, len(items), size):
            self._pool.submit_batch(
                items[lo : lo + size], crash_retries=crash_retries
            ).add_done_callback(
                partial(self._deliver, futures[lo : lo + size])
            )
        return futures

    def close(self) -> None:
        self._pool.close()

    def _deliver(self, futures: List[Future], batch: Future) -> None:
        """Scatter one chunk's reply (or its error) onto the item futures.

        Runs on the chunk's dispatcher thread, so an injected slowdown
        holds that worker lane for the padded time, as a slow shard
        would.
        """
        try:
            replies = batch.result()
        except Exception as exc:
            for future in futures:
                future.set_exception(exc)
            return
        for future, (shard, result, start, end) in zip(futures, replies):
            if self._faults is not None:
                self._faults.slowdown_sleep(shard, end - start)
                end = time.perf_counter()
            future.set_result((result, start, end))
