"""The blessed public surface of the reproduction.

Everything a user script needs lives here, under three entry points:

- :class:`SearchEngine` — the *native* benchmark: a real Python search
  stack (synthetic corpus, partitioned index, partition fan-out)
  measured on the wall clock — the public name of
  :class:`~repro.engine.service.SearchService`, so ``engine.isn``,
  ``engine.partitioned`` and ``engine.collection`` are its internals;
- :class:`ClusterModel` — the *simulated* benchmark: the same fork-join
  architecture in a discrete-event simulator, for sweeps the native
  engine is too slow or too noisy for;
- :class:`HedgingPolicy` — the tail-tolerance policy (deadlines,
  hedged requests, bounded retry) interpreted identically by both.

The resilience layer follows the same pattern: declarative
:class:`OverloadPolicy` (admission control / load shedding),
:class:`BreakerConfig` (per-shard circuit breakers), and
:class:`FaultPlan` (the chaos harness) objects are interpreted by both
the native engine and the simulated cluster.  A query refused by
admission control is a :class:`ShedResponse` — still a
:class:`QueryOutcome`, with ``coverage == 0.0`` and ``shed`` True.

Both entry points produce *query outcomes* satisfying the
:class:`QueryOutcome` protocol — ``latency_s``, ``coverage``, and
``doc_ids()`` — so analysis code is agnostic to which path produced a
result.  Supporting configuration types (corpus/query-log shapes,
workload models, straggler sources, server specs) are re-exported so
examples and notebooks need exactly one import::

    from repro.api import SearchEngine, ClusterModel, HedgingPolicy

The deeper modules (``repro.engine``, ``repro.cluster``, ...) remain
importable for research code that needs the internals, but this module
is the supported, stability-guaranteed surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from repro.capacity import (
    CapacityModel,
    CapacityPrediction,
    ServiceTimeProfile,
    peak_replicas,
    static_replica_hours,
)
from repro.cluster.broker import BROKER_MERGE_PER_SERVER
from repro.cluster.fanout import (
    FanoutConfig,
    FanoutQueryRecord,
    FanoutResult,
    run_fanout_open_loop,
)
from repro.cluster.server import PartitionModelConfig, StorageModelConfig
from repro.core.reporting import format_series, format_table
from repro.core.scheduling import (
    ScheduledComparisonPoint,
    compare_servers_vs_partitions_scheduled,
    crossover_partitions,
)
from repro.corpus.generator import CorpusConfig
from repro.corpus.querylog import QueryLog, QueryLogConfig
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.execution import EXECUTION_BACKENDS, ExecutionConfig
from repro.engine.hedging import (
    DISABLED_POLICY,
    HedgingPolicy,
    ShardLatencyTracker,
)
from repro.engine.isn import IsnResponse
from repro.engine.service import (
    ResultPageEntry,
    SearchPage,
    SearchService,
    SearchServiceConfig,
)
from repro.index.partitioner import PartitionStrategy
from repro.index.store import TieredStorageConfig
from repro.predict.calibrate import PredictorCalibration, calibrate_predictor
from repro.predict.features import QueryFeatures, extract_features
from repro.predict.predictor import ServiceTimePredictor
from repro.predict.scheduler import DeadlineCappedDemand, DeadlineScheduler
from repro.resilience.admission import (
    AimdConfig,
    OverloadPolicy,
    ShedResponse,
)
from repro.resilience.breaker import BreakerConfig, BreakerState
from repro.resilience.faults import (
    ErrorBurst,
    FaultPlan,
    ShardCrash,
    ShardSlowdown,
)
from repro.metrics.summary import EMPTY_SUMMARY, LatencySummary, summarize
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.search.strategy import TraversalStrategy
from repro.servers.catalog import BIG_SERVER, MID_SERVER, SMALL_SERVER
from repro.servers.spec import ServerSpec
from repro.sim.autoscale import (
    AutoscaleConfig,
    AutoscaleResult,
    ModelPolicy,
    ReactivePolicy,
    StaticPolicy,
    run_autoscaled_cluster,
)
from repro.sim.failures import (
    SHED_REPLICA_CRASH,
    MttfMttrFailures,
    ReplicaFailureModel,
    TraceFailures,
    steady_state_availability,
)
from repro.sim.hiccups import HiccupConfig
from repro.sim.network import NetworkModel, NoDelay
from repro.sim.outages import OutageSpec
from repro.workload.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.diurnal import DiurnalArrivals, FlashCrowd
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

__all__ = [
    # the three blessed entry points
    "SearchEngine",
    "ClusterModel",
    "HedgingPolicy",
    # their configs
    "EngineConfig",
    "ClusterConfig",
    "ExecutionConfig",
    "EXECUTION_BACKENDS",
    "DISABLED_POLICY",
    # the common outcome protocol and concrete outcome types
    "QueryOutcome",
    "IsnResponse",
    "SearchPage",
    "ResultPageEntry",
    "FanoutQueryRecord",
    "FanoutResult",
    "LatencySummary",
    "EMPTY_SUMMARY",
    "summarize",
    # resilience: overload control, circuit breaking, chaos
    "OverloadPolicy",
    "AimdConfig",
    "ShedResponse",
    "BreakerConfig",
    "BreakerState",
    "FaultPlan",
    "ShardCrash",
    "ShardSlowdown",
    "ErrorBurst",
    # corpus / workload / infrastructure building blocks
    "CorpusConfig",
    "VocabularyConfig",
    "QueryLogConfig",
    "QueryLog",
    "PartitionStrategy",
    "PartitionModelConfig",
    "StorageModelConfig",
    "TieredStorageConfig",
    "TraversalStrategy",
    "WorkloadScenario",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "MMPPArrivals",
    "LognormalDemand",
    "ServerSpec",
    "BIG_SERVER",
    "MID_SERVER",
    "SMALL_SERVER",
    "NetworkModel",
    "NoDelay",
    "HiccupConfig",
    "OutageSpec",
    "ShardLatencyTracker",
    # capacity planning & autoscaling
    "CapacityModel",
    "CapacityPrediction",
    "ServiceTimeProfile",
    "peak_replicas",
    "static_replica_hours",
    "DiurnalArrivals",
    "FlashCrowd",
    "AutoscaleConfig",
    "AutoscaleResult",
    "StaticPolicy",
    "ReactivePolicy",
    "ModelPolicy",
    "run_autoscaled_cluster",
    # service-time prediction & deadline-aware scheduling
    "ServiceTimePredictor",
    "DeadlineScheduler",
    "DeadlineCappedDemand",
    "QueryFeatures",
    "extract_features",
    "PredictorCalibration",
    "calibrate_predictor",
    "ScheduledComparisonPoint",
    "compare_servers_vs_partitions_scheduled",
    "crossover_partitions",
    # replica failure & recovery
    "ReplicaFailureModel",
    "MttfMttrFailures",
    "TraceFailures",
    "steady_state_availability",
    "SHED_REPLICA_CRASH",
    # observability + reporting
    "Tracer",
    "MetricsRegistry",
    "format_table",
    "format_series",
]


@runtime_checkable
class QueryOutcome(Protocol):
    """What every query answer looks like, regardless of the path.

    :class:`IsnResponse` (native ISN), :class:`SearchPage` (rendered
    page), ``FrontendResponse`` (multi-ISN broker), and the simulator's
    per-query records all satisfy this protocol structurally — analysis
    code can mix outcomes from any of them.
    """

    @property
    def latency_s(self) -> float:
        """End-to-end latency in seconds."""
        ...

    @property
    def coverage(self) -> float:
        """Fraction of index shards reflected in the answer (≤ 1.0)."""
        ...

    def doc_ids(self) -> List[int]:
        """Result doc ids, best first (empty for time-only models)."""
        ...


#: The native benchmark's public names: ``SearchEngine(num_partitions=4)``
#: and ``SearchEngine(EngineConfig(num_partitions=4))`` build the same thing.
SearchEngine = SearchService
EngineConfig = SearchServiceConfig


@dataclass(frozen=True, kw_only=True)
class ClusterConfig:
    """Keyword-only configuration of a simulated :class:`ClusterModel`.

    ``num_servers`` shard groups × ``replicas_per_shard`` replicas,
    each an independent fork-join server with ``num_partitions``
    intra-server partitions.  ``hiccups``/``outages`` inject
    stragglers; ``hedging`` mitigates them.
    """

    num_servers: int = 1
    spec: ServerSpec = BIG_SERVER
    num_partitions: int = 1
    partitioning: Optional[PartitionModelConfig] = None
    network: NetworkModel = field(default_factory=NoDelay)
    broker_merge_per_server: float = BROKER_MERGE_PER_SERVER
    hedging: Optional[HedgingPolicy] = None
    replicas_per_shard: int = 1
    hiccups: Optional[HiccupConfig] = None
    outages: Tuple[OutageSpec, ...] = ()
    overload: Optional[OverloadPolicy] = None
    breakers: Optional[BreakerConfig] = None
    faults: Optional[FaultPlan] = None

    def to_fanout_config(self) -> FanoutConfig:
        """The internal config this maps onto."""
        partitioning = self.partitioning
        if partitioning is None:
            partitioning = PartitionModelConfig(
                num_partitions=self.num_partitions
            )
        elif partitioning.num_partitions != self.num_partitions and (
            self.num_partitions != 1
        ):
            raise ValueError(
                "set num_partitions either directly or via partitioning, "
                "not inconsistently in both"
            )
        return FanoutConfig(
            num_servers=self.num_servers,
            spec=self.spec,
            partitioning=partitioning,
            network=self.network,
            broker_merge_per_server=self.broker_merge_per_server,
            hedging=self.hedging,
            replicas_per_shard=self.replicas_per_shard,
            hiccups=self.hiccups,
            outages=self.outages,
            overload=self.overload,
            breakers=self.breakers,
            faults=self.faults,
        )


#: Default per-query demand model: mean ~14 ms, heavy lognormal tail —
#: the shape measured for the benchmark's query service times.
DEFAULT_DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)


class ClusterModel:
    """The simulated benchmark cluster behind one object.

    Wraps the DES fan-out tier: the same fork-join architecture as the
    native engine, driven by a demand model instead of a real index, so
    load/partitioning/tail-tolerance sweeps run in milliseconds::

        model = ClusterModel(num_servers=4, hedging=HedgingPolicy(
            hedge_delay_s=0.01, deadline_s=0.2), replicas_per_shard=2,
            hiccups=HiccupConfig(mean_interval=1.0, pause_duration=0.03))
        result = model.run(rate_qps=100, num_queries=5_000)
        result.summary().p999, result.mean_coverage()
    """

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides):
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            raise TypeError(
                "pass either a config object or keyword overrides, not both"
            )
        self.config = config
        #: The internal config this model runs.
        self.fanout_config = config.to_fanout_config()

    def run(
        self,
        *,
        rate_qps: float,
        num_queries: int,
        demand: Optional[LognormalDemand] = None,
        arrivals: Optional[ArrivalProcess] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> FanoutResult:
        """Simulate ``num_queries`` at ``rate_qps`` offered load.

        ``arrivals`` overrides the default Poisson process (pass
        :class:`DeterministicArrivals` for clocked arrivals); when set,
        ``rate_qps`` seeds that process only if it was built from it.
        """
        if arrivals is None:
            arrivals = PoissonArrivals(rate=rate_qps)
        scenario = WorkloadScenario(
            arrivals=arrivals,
            demands=demand if demand is not None else DEFAULT_DEMAND,
            num_queries=num_queries,
        )
        return self.run_scenario(scenario, seed=seed, metrics=metrics)

    def run_scenario(
        self,
        scenario: WorkloadScenario,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> FanoutResult:
        """Simulate a fully specified workload scenario."""
        return run_fanout_open_loop(
            self.fanout_config, scenario, seed=seed, metrics=metrics
        )
