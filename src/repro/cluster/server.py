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
from repro.sim.resources import CoreBank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: Dirichlet rows one numpy call draws from a share stream.
_SHARE_BLOCK = 64


class _ShareStream:
    """Dirichlet splits of a unit of work into ``parts`` shares.

    The sole reader of ``rng``: it draws ``_SHARE_BLOCK`` rows per numpy
    call and hands them out one at a time.  A block equals, bit for bit,
    as many one-row draws, so drawing ahead moves no simulated number
    while nothing else reads ``rng``.  One part is the whole and draws
    nothing.
    """

    __slots__ = ("_share_rng", "_alpha", "_rows")

    def __init__(
        self, rng: np.random.Generator, parts: int, concentration: float
    ):
        self._share_rng = rng
        self._alpha = np.full(parts, concentration) if parts > 1 else None
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
class StorageModelConfig:
    """Cost model of tiered (larger-than-RAM) index storage.

    Mirrors the native engine's block-store path: a query whose
    traversal pages postings blocks in from the storage tier pays a
    fetch latency on top of its scoring demand.  The model keeps the
    same shape the native counters expose — fetch work proportional to
    the (pruned) scoring demand, discounted by the block cache's hit
    rate.

    Attributes
    ----------
    block_fetch_latency_s:
        Reference-core seconds one block fetch adds (per-fetch latency
        of the storage tier, amortized over the core that waits on it).
    blocks_per_demand_s:
        How many block fetches one reference-core second of scoring
        demand induces when every block misses.  Calibrated from the
        native engine's ``store.blocks_fetched`` against measured
        service time (the fig26 bench prints both).
    cache_hit_rate:
        Fraction of block touches served by the admission-controlled
        cache, in ``[0, 1)``.  Calibrated from ``cache.block_hits`` /
        (hits + misses) at the chosen budget.
    """

    block_fetch_latency_s: float = 1e-4
    blocks_per_demand_s: float = 2000.0
    cache_hit_rate: float = 0.8

    def __post_init__(self) -> None:
        if self.block_fetch_latency_s < 0:
            raise ValueError("block_fetch_latency_s must be non-negative")
        if self.blocks_per_demand_s < 0:
            raise ValueError("blocks_per_demand_s must be non-negative")
        if not 0.0 <= self.cache_hit_rate < 1.0:
            raise ValueError(
                f"cache_hit_rate must be in [0, 1), got {self.cache_hit_rate}"
            )

    def blocks_fetched(self, demand: float) -> float:
        """Expected block fetches (cache misses) for ``demand`` seconds."""
        return demand * self.blocks_per_demand_s * (1.0 - self.cache_hit_rate)

    def fetch_seconds(self, demand: float) -> float:
        """Fetch latency added to a query of (pruned) ``demand``."""
        return self.blocks_fetched(demand) * self.block_fetch_latency_s


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
    storage:
        Optional tiered-storage cost model.  None (the default) models
        a fully RAM-resident index; a :class:`StorageModelConfig` adds
        block-fetch latency to the effective demand, mirroring the
        native engine's paged serving path.
    """

    num_partitions: int = 1
    partition_overhead: float = 0.0003
    imbalance_concentration: float = 60.0
    merge_base: float = 0.0002
    merge_per_partition: float = 0.0001
    traversal: Union[str, TraversalStrategy] = TraversalStrategy.EXHAUSTIVE
    pruning_factor: float = 1.0
    storage: Optional[StorageModelConfig] = None

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
        """Scoring demand after traversal pruning, plus storage fetches.

        Exhaustive traversal pays the full ``demand``; WAND-family
        traversal pays ``demand * pruning_factor`` (the per-partition
        overheads and the merge are posting-volume independent and are
        not scaled).  With a tiered :attr:`storage` model, block-fetch
        latency is added on the *pruned* demand — a traversal that
        scores fewer blocks also fetches fewer.
        """
        scoring = (
            demand * self.pruning_factor if self.traversal.prunes else demand
        )
        if self.storage is not None:
            scoring += self.storage.fetch_seconds(scoring)
        return scoring

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
        imbalance_rng: np.random.Generator,
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
            imbalance_rng,
            partitioning.num_partitions,
            partitioning.imbalance_concentration,
        )
        self._merge_demand = partitioning.merge_demand()
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
        config = self.partitioning
        shares = self._shares.next()

        demand = config.effective_demand(record.demand)
        if self._metrics is not None and config.traversal.prunes:
            pruned = record.demand * config.pruning_factor
            self._metrics.counter("sim.wand.queries_pruned").add()
            self._metrics.counter("sim.wand.demand_saved_s").add(
                record.demand - pruned
            )
        if self._metrics is not None and config.storage is not None:
            scoring = (
                record.demand * config.pruning_factor
                if config.traversal.prunes
                else record.demand
            )
            self._metrics.counter("sim.store.blocks_fetched").add(
                int(round(config.storage.blocks_fetched(scoring)))
            )
            self._metrics.gauge("sim.store.fetch_demand_s").add(
                config.storage.fetch_seconds(scoring)
            )

        submit = self.cores.submit
        overhead = config.partition_overhead
        first_start = earliest_end = float("inf")
        last_end = 0.0
        for share in shares:
            start, end = submit(now, demand * share + overhead)
            if start < first_start:
                first_start = start
            if end < earliest_end:
                earliest_end = end
            if end > last_end:
                last_end = end

        record.first_task_start = first_start
        record.earliest_task_end = earliest_end
        record.last_task_end = last_end
        if self._merge_demand > 0:
            self.sim.schedule(last_end, self._start_merge, record)
        else:
            # A zero-cost merge completes inline with the last task; it
            # must not re-queue behind other queries' tasks for a core.
            self.sim.schedule(last_end, self._complete_without_merge, record)

    def _start_merge(self, record: QueryRecord) -> None:
        start, end = self.cores.submit(self.sim.now, self._merge_demand)
        record.merge_start = start
        self.sim.schedule(end, self._finish_merge, record)

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
