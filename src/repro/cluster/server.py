"""The simulated index serving node: fork-join over partition tasks.

A query arriving with total service demand ``W`` (reference-core
seconds) is split into ``P`` partition tasks.  Task ``i`` receives
``W · s_i + α`` where the shares ``s_i`` are Dirichlet-distributed with
mean ``1/P`` (shards never split work perfectly evenly) and ``α`` is the
fixed per-partition overhead (dispatch, per-shard query setup, its slice
of the result copy).  Tasks queue FCFS on the server's cores; when the
last task finishes, a merge task of ``m₀ + m₁·P`` runs, and the response
leaves the server.

This fork-join structure is exactly the mechanism behind the paper's
two findings: splitting ``W`` across cores shortens the *intrinsic* long
queries (tail shrinks), while the ``α``/merge terms inflate total work
(throughput eventually suffers) — and a slow-cored server can buy back
single-query latency by increasing ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.results import QueryRecord
from repro.search.strategy import TraversalStrategy
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.hiccups import HiccupSchedule
from repro.sim.random import RandomStreams
from repro.sim.resources import CoreBank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: Dirichlet rows one numpy call draws from a share stream.
_SHARE_BLOCK = 64


class _ShareStream:
    """Dirichlet splits of a unit of work into ``parts`` shares, each of
    concentration ``alpha``.

    The sole reader of stream ``name``: it draws ``_SHARE_BLOCK`` rows
    per numpy call and hands them out one at a time.  A block equals,
    bit for bit, as many one-row draws, so drawing ahead moves no
    simulated number while nothing else reads the stream.  One part is
    the whole: it draws nothing, and never opens the stream.
    """

    __slots__ = ("_share_rng", "_alpha", "_rows")

    def __init__(
        self, streams: RandomStreams, name: str, parts: int, alpha: float
    ):
        self._share_rng = streams.stream(name) if parts > 1 else None
        self._alpha = np.full(parts, alpha) if parts > 1 else None
        #: The rest of the current block, last row first.
        self._rows: List[List[float]] = []

    def next(self) -> Sequence[float]:
        """The next split: ``parts`` shares summing to one."""
        if self._alpha is None:
            return (1.0,)
        rows = self._rows
        if not rows:
            block = self._share_rng.dirichlet(self._alpha, _SHARE_BLOCK)
            rows.extend(reversed(block.tolist()))
        return rows.pop()


@dataclass(frozen=True)
class PartitionModelConfig:
    """Cost model of intra-server partitioning.

    Attributes
    ----------
    num_partitions:
        ``P`` — the quantity the paper's central study sweeps.
    partition_overhead:
        ``α`` — fixed reference-core seconds added to every partition
        task (per-shard dispatch + setup).  Calibrated from the native
        engine; default 0.3 ms.
    imbalance_concentration:
        Dirichlet concentration of the work split across shards.  Higher
        is more even; ~60 reproduces the few-percent imbalance measured
        for round-robin document sharding.
    merge_base:
        ``m₀`` — fixed merge cost in reference-core seconds.
    merge_per_partition:
        ``m₁`` — additional merge cost per partition (k more hits to
        merge for every extra shard).
    traversal:
        Postings traversal strategy the modeled ISN runs.  Exhaustive
        (the default and the paper's setting) consumes the full demand;
        the WAND family scales it by ``pruning_factor``.  Accepts a
        :class:`~repro.search.strategy.TraversalStrategy` or any
        spelling its ``coerce`` understands.
    pruning_factor:
        Fraction of the exhaustive scoring demand a pruning traversal
        still pays, in ``(0, 1]``.  Calibrated from the native engine's
        ``wand.docs_scored`` / ``daat.candidates_scored`` ratio (the
        fig25 ablation); ignored for exhaustive traversal.
    """

    num_partitions: int = 1
    partition_overhead: float = 0.0003
    imbalance_concentration: float = 60.0
    merge_base: float = 0.0002
    merge_per_partition: float = 0.0001
    traversal: Union[str, TraversalStrategy] = TraversalStrategy.EXHAUSTIVE
    pruning_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if self.partition_overhead < 0:
            raise ValueError("partition_overhead must be non-negative")
        if self.imbalance_concentration <= 0:
            raise ValueError("imbalance_concentration must be positive")
        if self.merge_base < 0 or self.merge_per_partition < 0:
            raise ValueError("merge costs must be non-negative")
        object.__setattr__(
            self, "traversal", TraversalStrategy.coerce(self.traversal)
        )
        if not 0.0 < self.pruning_factor <= 1.0:
            raise ValueError(
                f"pruning_factor must be in (0, 1], got {self.pruning_factor}"
            )

    def merge_demand(self) -> float:
        """Reference-core seconds the merge step costs at this ``P``."""
        return self.merge_base + self.merge_per_partition * self.num_partitions

    def effective_demand(self, demand: float) -> float:
        """Scoring demand after traversal pruning.

        Exhaustive traversal pays the full ``demand``; WAND-family
        traversal pays ``demand * pruning_factor`` (the per-partition
        overheads and the merge are posting-volume independent and are
        not scaled).
        """
        if self.traversal.prunes:
            return demand * self.pruning_factor
        return demand

    def total_work(self, demand: float) -> float:
        """Total reference-core seconds a query of ``demand`` costs."""
        return (
            self.effective_demand(demand)
            + self.num_partitions * self.partition_overhead
            + self.merge_demand()
        )


class SimulatedServer:
    """One simulated ISN bound to a simulator, spec, and cost model."""

    def __init__(
        self,
        sim: Simulator,
        spec: ServerSpec,
        partitioning: PartitionModelConfig,
        streams: RandomStreams,
        imbalance_stream: str,
        on_complete: Optional[Callable[[QueryRecord], None]] = None,
        hiccups: Optional[HiccupSchedule] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.partitioning = partitioning
        self.cores = CoreBank(
            spec.num_cores, speed=spec.core_speed, hiccups=hiccups
        )
        self._shares = _ShareStream(
            streams,
            imbalance_stream,
            partitioning.num_partitions,
            partitioning.imbalance_concentration,
        )
        self._overhead = partitioning.partition_overhead
        self._demand_factor = partitioning.effective_demand(1.0)
        self._prunes = partitioning.traversal.prunes
        self._merge_demand = partitioning.merge_demand()
        # A zero-cost merge completes inline with the last task; it must
        # not re-queue behind other queries' tasks for a core.
        self._after_tasks = (
            self._start_merge
            if self._merge_demand > 0
            else self._complete_without_merge
        )
        self._on_complete = on_complete
        self._metrics = metrics
        #: Queries accepted but not yet completed — the load signal a
        #: tail-tolerant broker uses to pick the least-loaded replica.
        self.outstanding = 0

    def handle_arrival(self, record: QueryRecord) -> None:
        """Process a query arriving now (``sim.now``); fork its tasks."""
        now = self.sim.now
        self.outstanding += 1
        record.server_arrival = now
        demand = record.demand * self._demand_factor
        if self._prunes and self._metrics is not None:
            self._metrics.counter("sim.wand.queries_pruned").add()
            self._metrics.counter("sim.wand.demand_saved_s").add(
                record.demand - demand
            )

        first_start, earliest_end, last_end = self.cores.fork(
            now, demand, self._shares.next(), self._overhead
        )
        record.first_task_start = first_start
        record.earliest_task_end = earliest_end
        record.last_task_end = last_end
        self.sim.post(last_end, self._after_tasks, record)

    def _start_merge(self, record: QueryRecord) -> None:
        start, _, end = self.cores.fork(
            self.sim.now, self._merge_demand, (1.0,), 0.0
        )
        record.merge_start = start
        self.sim.post(end, self._finish_merge, record)

    def _finish_merge(self, record: QueryRecord) -> None:
        record.merge_end = self.sim.now
        self.outstanding -= 1
        if self._on_complete is not None:
            self._on_complete(record)

    def _complete_without_merge(self, record: QueryRecord) -> None:
        record.merge_start = self.sim.now
        record.merge_end = self.sim.now
        self.outstanding -= 1
        if self._on_complete is not None:
            self._on_complete(record)
