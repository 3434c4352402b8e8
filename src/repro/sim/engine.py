"""The discrete-event simulator kernel.

A classic event-heap design: callbacks are scheduled at absolute
simulation times and executed in time order.  Ties are broken by
scheduling order (a monotone sequence number), which makes runs
bit-reproducible.

:meth:`Simulator.schedule` returns an :class:`EventHandle` so a
scheduled event can be cancelled before it fires — the mechanism the
tail-tolerance layer uses to retire a pending hedge/deadline check the
moment the answer it was guarding arrives.  Cancelled events are
skipped (never executed, never counted) when they reach the head of
the heap.  Events nothing cancels are :meth:`Simulator.post`-ed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from executing (idempotent).

        Cancelling an event that already ran is a harmless no-op.
        """
        self._cancelled = True


#: The handle of every posted event: never cancelled.
_POSTED = EventHandle()


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        handle = sim.schedule(1.5, handle_arrival, query)
        handle.cancel()  # optional: retire the event before it fires
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: List[
            Tuple[float, int, EventHandle, Callable[..., None], tuple]
        ] = []
        self._sequence = 0
        self.now = 0.0
        self._discarded = 0  # cancelled events dropped unrun

    @property
    def events_processed(self) -> int:
        """Events executed so far: queued, not pending, not discarded."""
        return self._sequence - len(self._heap) - self._discarded

    @property
    def pending_events(self) -> int:
        """Number of events still queued (may include cancelled ones)."""
        return len(self._heap)

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute ``time``.

        Returns a handle whose :meth:`EventHandle.cancel` retires the
        event.  Scheduling into the past — or at a NaN or infinite
        time, which would corrupt the heap order — is a logic error and
        raises.
        """
        if not self.now <= time < _INF:
            raise self._bad_time(time)
        handle = EventHandle()
        heapq.heappush(
            self._heap, (time, self._sequence, handle, callback, args)
        )
        self._sequence += 1
        return handle

    def post(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """:meth:`schedule` an event nothing cancels, allocating no handle."""
        if not self.now <= time < _INF:
            raise self._bad_time(time)
        heapq.heappush(
            self._heap, (time, self._sequence, _POSTED, callback, args)
        )
        self._sequence += 1

    def _bad_time(self, time: float) -> ValueError:
        return ValueError(
            f"cannot schedule at {time}: need a finite time at or "
            f"after the clock ({self.now})"
        )

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the heap is empty (or past ``until``).

        With ``until`` set, events at times strictly greater than it are
        left queued and the clock advances to exactly ``until``.
        Cancelled events are discarded without advancing the clock.
        """
        heap = self._heap
        pop = heapq.heappop
        limit = _INF if until is None else until
        while heap:
            item = pop(heap)
            time, _, handle, callback, args = item
            if handle._cancelled:
                self._discarded += 1
                continue
            if time > limit:
                # Its own sequence number puts it back exactly in place.
                heapq.heappush(heap, item)
                break
            self.now = time
            callback(*args)
        if until is not None and until > self.now:
            self.now = until

    def step(self) -> bool:
        """Process exactly one live event; returns False when none remain."""
        while self._heap:
            time, _, handle, callback, args = heapq.heappop(self._heap)
            if handle.cancelled:
                self._discarded += 1
                continue
            self.now = time
            callback(*args)
            return True
        return False
