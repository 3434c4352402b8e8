"""Low-overhead per-query span tracing.

A *span* is one timed operation (parse, shard search, merge, ...) with
a name, monotonic start/end timestamps, attributes, and children.  A
*trace* is the span tree of one query; the root span has no parent.

Two ways to produce spans:

- ``with tracer.span("parse"):`` — a live context manager that reads
  the tracer's clock on enter/exit and nests under the thread's
  currently-active span.
- ``tracer.record_span("shard", start=s, end=e, parent=p)`` — post-hoc
  registration of an operation whose timestamps were measured
  elsewhere (worker threads, worker processes).
  This keeps span timestamps *identical* to the direct measurements
  the engine already takes, so :class:`ComponentTimings` derived from
  a trace matches the legacy timing values exactly.

The tracer's clock is injectable; the native engine uses
``time.perf_counter``.

Tracing is **off by default**.  A disabled tracer's :meth:`Tracer.span`
returns a shared no-op context manager and :meth:`Tracer.record_span`
returns ``None`` after a single branch, so instrumented code can stay
unconditional without measurable per-query overhead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
]


@dataclass
class Span:
    """One timed operation within a query's trace tree."""

    name: str
    span_id: int
    trace_id: int
    parent_id: Optional[int]
    start: float
    end: float = float("nan")
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds from start to end (monotonic or simulated clock)."""
        return self.end - self.start

    def set(self, key: str, value: object) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def iter_tree(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def find(self, name: str) -> Optional["Span"]:
        """First direct child with ``name`` (None if absent)."""
        for child in self.children:
            if child.name == name:
                return child
        return None


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Sentinel for "inherit the thread's currently-active span".
_INHERIT = object()


class _LiveSpan:
    """Context manager backing :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end = self._tracer._clock()
        self._tracer._pop(self._span)


class Tracer:
    """Produces and collects per-query span trees.

    Parameters
    ----------
    enabled:
        When False every tracing entry point is a cheap no-op.
    clock:
        Timestamp source.  Defaults to ``time.perf_counter``; the
        simulator substitutes its simulated clock so both runtimes emit
        comparable traces.
    max_traces:
        Completed traces retained (oldest dropped first) so long
        replays cannot grow memory without bound.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        max_traces: int = 100_000,
    ):
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        self.enabled = enabled
        self._clock = clock
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._next_span_id = 0
        self._next_trace_id = 0
        self._traces: List[Span] = []
        self._active = threading.local()

    # ------------------------------------------------------------------
    # span production

    def span(self, name: str, **attributes: object):
        """Open a live span: times itself, nests under the active span."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self.current_span
        span = self._make_span(name, self._clock(), parent, attributes)
        return _LiveSpan(self, span)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: object = _INHERIT,
        **attributes: object,
    ) -> Optional[Span]:
        """Register an already-measured operation as a span.

        ``parent`` defaults to the thread's currently-active span (so a
        recorded subtree nests under an enclosing live span); pass
        ``parent=None`` to force a new root trace, or an explicit
        :class:`Span` to attach elsewhere.  Roots are appended to
        :attr:`traces` immediately — record parents before children.
        """
        if not self.enabled:
            return None
        if parent is _INHERIT:
            parent = self.current_span
        span = self._make_span(name, start, parent, attributes)
        span.end = end
        return span

    def _make_span(
        self,
        name: str,
        start: float,
        parent: Optional[Span],
        attributes: Dict[str, object],
    ) -> Span:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            if parent is None:
                trace_id = self._next_trace_id
                self._next_trace_id += 1
            else:
                trace_id = parent.trace_id
            span = Span(
                name=name,
                span_id=span_id,
                trace_id=trace_id,
                parent_id=None if parent is None else parent.span_id,
                start=start,
                attributes=dict(attributes),
            )
            if parent is None:
                self._traces.append(span)
                if len(self._traces) > self._max_traces:
                    del self._traces[0]
            else:
                parent.children.append(span)
        return span

    # ------------------------------------------------------------------
    # active-span bookkeeping (per thread)

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost live span on this thread (None outside any)."""
        stack = getattr(self._active, "stack", None)
        if not stack:
            return None
        return stack[-1]

    def _push(self, span: Span) -> None:
        stack = getattr(self._active, "stack", None)
        if stack is None:
            stack = []
            self._active.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._active, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    # ------------------------------------------------------------------
    # collection

    @property
    def traces(self) -> List[Span]:
        """Completed root spans, oldest first (the shared list, not a copy)."""
        return self._traces


#: A permanently-disabled tracer for components whose caller passed none.
NULL_TRACER = Tracer(enabled=False)
