"""Execution-backend configuration for the native engine.

The paper's central finding is that index-serving nodes are
compute-bound: query throughput scales with intra-node parallelism.
The native engine's partition fan-out runs on one shard backend
(:class:`~repro.engine.backends.ShardBackend`), and one declarative
:class:`ExecutionConfig` says whether that backend gets a worker pool:

- ``"threads"`` — no pool: the node's own searchers, one shard after
  another on the caller's thread.  Per-partition scoring serializes on
  the GIL, so a pooled fan-out only adds hand-offs (it measured slower
  at every partition count); a thread pool is started only for a
  hedging policy.
- ``"processes"`` — the caller's thread plus a pool of worker processes
  attached *read-only* to the index's hot state (postings arrays,
  block-max metadata, document lengths) written once to one image
  file that every worker maps.  The caller is lane 0: it sends
  batches of ``(query, partition)`` work items down the worker pipes,
  scores its own lane, then receives the compact top-k replies, so a
  query at P partitions keeps ``min(P - 1, W)`` workers busy.  Results
  are bit-identical — doc ids *and* float scores, and a depth-capped
  traversal's truncation too — to ``"threads"`` under every traversal
  strategy.

Hedging, deadlines, circuit breakers, and overload control keep their
semantics either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ExecutionConfig", "EXECUTION_BACKENDS"]

#: The supported execution backends.
EXECUTION_BACKENDS = ("threads", "processes")

#: Default number of (query, partition) work items per process-pool
#: dispatch in batch execution; large enough that a pipe round trip is
#: a small fraction of scoring time, small enough to load-balance.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True, kw_only=True)
class ExecutionConfig:
    """How the native ISN executes its partition fan-out.

    Attributes
    ----------
    backend:
        ``"threads"`` (default; no worker pool, the caller's thread
        scores every shard) or ``"processes"`` (the caller's thread
        plus a GIL-free worker pool over a mapped index image).
    workers:
        Worker count; ``None`` means one per partition.  It also sizes
        the thread pool a hedging policy uses (by default doubled when
        backups can be issued).
    batch_size:
        Maximum ``(query, partition)`` work items per process-pool
        dispatch in batch execution (ignored by the thread backend,
        which has no IPC to amortize).
    start_method:
        :mod:`multiprocessing` start method for the process backend.
        ``None`` picks ``"fork"`` when the platform offers it (cheapest
        attach) and ``"spawn"`` otherwise.
    probe_interval_s:
        Liveness-probe period of the process pool's health monitor: a
        worker killed between dispatches is detected and respawned
        within one interval.  ``None`` disables background probing
        (the pre-dispatch liveness check still runs).  Ignored by the
        thread backend.
    """

    backend: str = "threads"
    workers: Optional[int] = None
    batch_size: int = DEFAULT_BATCH_SIZE
    start_method: Optional[str] = None
    probe_interval_s: Optional[float] = 0.25

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {EXECUTION_BACKENDS}"
            )
        if self.workers is not None and self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                f"unknown start_method {self.start_method!r}"
            )
        if self.probe_interval_s is not None and self.probe_interval_s < 0:
            raise ValueError("probe_interval_s must be non-negative")
