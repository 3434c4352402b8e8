"""The native benchmark engine: a runnable web-search service.

This package wires the real Python search stack into the benchmark's
architecture: an **index serving node** (ISN) that fans a query out to
its intra-server partitions and merges the shard
results, a **frontend** that broadcasts to ISNs, and a **client driver**
with the benchmark's replay semantics.  Native-mode wall-clock
measurements ground the characterization figures and calibrate the
discrete-event simulator's service-demand model.
"""

from repro.engine.execution import EXECUTION_BACKENDS, ExecutionConfig
from repro.engine.driver import (
    QueryMeasurement,
    replay_serial,
)
from repro.engine.frontend import Frontend, FrontendResponse
from repro.engine.hedging import (
    DISABLED_POLICY,
    HedgingPolicy,
    ShardLatencyTracker,
)
from repro.engine.instrumentation import ComponentTimings, Timer
from repro.engine.isn import IndexServingNode, IsnResponse
from repro.engine.service import (
    ResultPageEntry,
    SearchPage,
    SearchService,
    SearchServiceConfig,
)
from repro.engine.snippets import Snippet, SnippetGenerator

__all__ = [
    "IndexServingNode",
    "IsnResponse",
    "ExecutionConfig",
    "EXECUTION_BACKENDS",
    "HedgingPolicy",
    "ShardLatencyTracker",
    "DISABLED_POLICY",
    "Frontend",
    "FrontendResponse",
    "QueryMeasurement",
    "replay_serial",
    "ComponentTimings",
    "Timer",
    "ResultPageEntry",
    "SearchPage",
    "SearchService",
    "SearchServiceConfig",
    "Snippet",
    "SnippetGenerator",
]
