"""The shard-execution backend behind the ISN's one gather.

The gather in :mod:`repro.engine.isn` never searches a shard itself; it
hands ``(shard, query)`` work items to a backend and waits on futures.
A backend is two methods:

``submit(items, cancel, max_docs_scored=None, crash_retries=0)``
    Start one attempt per work item and return one future per item,
    each resolving to ``(SearchResult, start, end)`` or raising the
    attempt's error; an attempt that ran on the caller's thread comes
    back done, as a :class:`_Done`.  One call is one unit of
    cancellation (``cancel`` is its token, None when nothing will ever
    cancel it) and of packing (whatever a backend batches, it batches
    within a call), so a caller that needs attempts to be cancelled or
    to fail independently submits them separately.
``close()``
    Release the execution resources.

:class:`ShardBackend` is the one implementation.  The calling thread
scores on the node's own searchers every chunk of work that no worker
takes; a :class:`~repro.engine.mp.ProcessShardPool`, when the node has
one, scores the other chunks GIL-free, one IPC message per worker lane.
With no pool the caller takes every chunk, in item order.  A hedging
policy adds a thread pool on which each attempt is a dispatch of its
own.  A :class:`~repro.resilience.faults.FaultInjector` applies
parent-side, so a fault plan means the same thing whoever scores.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Executor
from typing import Dict, List, Optional, Sequence

from repro.engine.execution import DEFAULT_BATCH_SIZE
from repro.engine.mp import ProcessShardPool, WorkItem
from repro.resilience.faults import FaultInjector, InjectedFault


class _Done:
    """A finished attempt: what the gather reads of a ``Future``.

    Everything :meth:`ShardBackend._dispatch` returns has already run,
    so it needs no lock and no waiters; building a ``Future`` for it
    cost more than the bookkeeping of a one-shard dispatch.
    """

    __slots__ = ("_result", "_error")

    def __init__(self, result=None, error: Optional[Exception] = None):
        self._result = result
        self._error = error

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False

    def result(self):
        if self._error is not None:
            raise self._error
        return self._result


class ShardBackend:
    """Attempts on the caller's thread and, if there is one, a process pool.

    One ``submit`` call is dealt into contiguous chunks, one lane per
    worker plus one for the caller, none larger than ``batch_size``
    items.  The calling thread sends a chunk to each worker it can check
    out, scores the first chunk on the node's own searchers, receives
    the replies, and gives leftover chunks to whichever side frees
    first; a chunk no worker is idle for, it scores itself.  With no
    ``pool`` that is every chunk, in item order.  A single item — the
    resilient gather's unit — goes to a worker when one is idle; under
    a hedging ``executor`` each is dispatched from its own pool thread.

    ``searchers`` is the node's live list, indexed at attempt time so a
    searcher swapped in after construction (tests script stragglers
    that way) is the one that runs.  A worker cannot be cancelled (the
    gather discards a late answer) but honours ``max_docs_scored``; a
    chunk whose worker died is re-sent ``crash_retries`` times before
    its items fail.
    """

    def __init__(
        self,
        searchers: list,
        pool: Optional[ProcessShardPool] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        executor: Optional[Executor] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self._searchers = searchers
        self._pool = pool
        self._batch_size = batch_size
        self._executor = executor
        self._faults = faults

    def submit(
        self,
        items: Sequence[WorkItem],
        cancel: Optional[threading.Event],
        max_docs_scored: Optional[int] = None,
        crash_retries: int = 0,
    ) -> list:
        args = (cancel, max_docs_scored, crash_retries)
        if self._executor is None:
            return self._dispatch(items, *args)
        return [
            self._executor.submit(self._dispatch_one, item, *args)
            for item in items
        ]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()

    def _attempt(self, shard, query, cancel, max_docs_scored) -> _Done:
        """One cancellable search of one shard on the calling thread, done.

        Injected crashes/errors fail it and slowdowns pad its measured
        service time, as a real failing or straggling shard would.
        """
        try:
            if self._faults is not None:
                self._faults.before_search(shard)
            # The depth cap is passed only when one is set: searchers
            # that do not budget their traversal need not accept it.
            depth = (
                {} if max_docs_scored is None
                else {"max_docs_scored": max_docs_scored}
            )
            start = time.perf_counter()
            result = self._searchers[shard].search(
                query, cancel=cancel, **depth
            )
            end = self._padded(shard, start, time.perf_counter())
            return _Done((result, start, end))
        except Exception as exc:
            return _Done(error=exc)

    def _padded(self, shard, start, end) -> float:
        """``end``, moved out by the slowdown injected into ``shard``."""
        if self._faults is None:
            return end
        self._faults.slowdown_sleep(shard, end - start)
        return time.perf_counter()

    def _dispatch_one(self, item: WorkItem, *args):
        return self._dispatch([item], *args)[0].result()

    def _dispatch(
        self, items, cancel, max_docs_scored, crash_retries
    ) -> List[_Done]:
        """Run ``items`` to completion; returns their outcomes."""
        pool = self._pool
        if pool is None:  # every item on the caller's thread, in order
            return [
                self._attempt(shard, query, cancel, max_docs_scored)
                for shard, query in items
            ]
        futures: List[_Done] = [None] * len(items)  # type: ignore
        lanes = min(len(items), pool.num_workers + 1)
        size = min(self._batch_size, -(-len(items) // lanes))
        chunks = deque(range(0, len(items), size))
        own = chunks.popleft() if len(chunks) > 1 else None
        flights: Dict = {}  # flight -> its chunk's first item

        def score(lo: int) -> None:
            for position in range(lo, min(lo + size, len(items))):
                futures[position] = self._attempt(
                    *items[position], cancel, max_docs_scored
                )
                # A worker whose reply is in gets the next chunk now,
                # not when this one is done.
                if chunks and flights:
                    for flight in [f for f in flights if pool.ready(f)]:
                        book(flight)

        def deal(slot: int) -> None:
            """Send the worker in ``slot`` the next chunk, or check it in."""
            while chunks:
                lo = chunks.popleft()
                chunk = items[lo : lo + size]
                try:
                    if self._faults is not None:
                        for shard, _ in chunk:
                            self._faults.before_search(shard)
                except InjectedFault as exc:  # a chunk fails as one
                    futures[lo : lo + size] = [_Done(error=exc) for _ in chunk]
                    continue
                flight = pool.send(slot, chunk, crash_retries, max_docs_scored)
                flights[flight] = lo
                return
            pool.checkin(slot)

        def book(flight) -> None:
            lo = flights.pop(flight)
            try:
                replies = pool.receive(flight)
            except Exception as exc:
                futures[lo : lo + size] = [
                    _Done(error=exc) for _ in flight.items
                ]
            else:
                for position, (shard, result, start, end) in enumerate(
                    replies, start=lo
                ):
                    # Padded before the worker is checked back in: a
                    # slowdown holds that lane, as a slow shard would.
                    end = self._padded(shard, start, end)
                    futures[position] = _Done((result, start, end))
            deal(flight.slot)

        while chunks and (slot := pool.checkout()) is not None:
            deal(slot)
        if own is not None:
            score(own)
        while chunks:  # the caller is free: it takes the next chunk
            score(chunks.popleft())
        while flights:
            book(next(iter(flights)))
        return futures
