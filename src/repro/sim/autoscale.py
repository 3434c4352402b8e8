"""DES replica autoscaler: a control loop over the simulated cluster.

The cluster is provisioned in *rows* — one row is a full replica of
every shard — and a periodic control loop adds or retires rows against
the broker while a (typically diurnal + flash-crowd) trace plays.  The
mechanics mirror real fleets:

- a launched row pays for itself immediately but only becomes
  dispatchable after ``warmup_s`` (index load, cache warm-up);
- scale-down is damped by a cooldown after any scale-up and by a
  stability requirement (the policy must ask for fewer rows several
  intervals in a row) — classic hysteresis against flapping;
- retired rows stop receiving new queries but drain their in-flight
  work; they stop costing replica-hours at the retire decision.

Two families of :class:`ScalingPolicy` are provided.
:class:`ReactivePolicy` is utilization target-tracking — the classic
"scale when busy" rule, which inevitably *lags* a flash crowd by the
warm-up time.  :class:`ModelPolicy` is model-driven: it extrapolates
the observed arrival rate one warm-up ahead and asks a
:class:`~repro.capacity.model.CapacityModel` for the replica count
whose *predicted p99* meets the SLO at that future rate — capacity
arrives before the traffic does.  :class:`StaticPolicy` pins the count
(the peak-provisioning baseline the fig. 27 headline compares against).

Dispatch, admission and completion belong to the shared
:class:`~repro.cluster.broker.Broker`; this module owns the rows — it
rewrites the broker's replica table as rows warm up, retire, crash and
recover.  An optional :class:`~repro.resilience.admission.
OverloadPolicy` puts the PR 3 admission controller in front of the
broker so transients that outrun even the model policy degrade by
shedding, not by collapse.

Everything observable is emitted through :mod:`repro.obs`:
``autoscale.scale_up_events`` / ``autoscale.scale_down_events`` /
``autoscale.replicas_launched`` / ``autoscale.replicas_retired`` /
``autoscale.sheds`` counters and ``autoscale.provisioned_replicas`` /
``autoscale.active_replicas`` / ``autoscale.target_replicas`` gauges.

This module deliberately lives outside :mod:`repro.sim`'s ``__init__``
re-exports: it sits *above* :mod:`repro.cluster` in the layering (the
rest of :mod:`repro.sim` sits below), so eager re-export would cycle.
Import it as :mod:`repro.sim.autoscale`, or via :mod:`repro.api`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.capacity.model import CapacityModel
from repro.cluster.broker import (
    BROKER_MERGE_PER_SERVER,
    SERVER_IMBALANCE_CONCENTRATION,
    Broker,
    FanoutQueryRecord,
)
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.metrics.summary import LatencySummary, summarize
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import OverloadPolicy
from repro.servers.spec import ServerSpec
from repro.sim.engine import Simulator
from repro.sim.failures import ReplicaFailureModel
from repro.sim.random import RandomStreams


@dataclass(frozen=True)
class AutoscaleObservation:
    """What the control loop sees at one tick — the policy's only input."""

    now: float
    interval_s: float
    #: Mean arrival rate over the last control interval (queries/s).
    arrival_rate_qps: float
    #: Mean arrival rate over the interval before that (for slopes).
    previous_rate_qps: float
    #: Rows currently dispatchable.
    active_replicas: int
    #: Rows currently paid for (active + still warming).
    provisioned_replicas: int
    #: Busy-core fraction of the active rows over the last interval.
    utilization: float


class ScalingPolicy(Protocol):
    """A scaling policy maps an observation to a desired row count.

    Structural: anything with a ``name`` and ``desired_replicas`` is a
    policy.  The returned count is a *request*; the control loop clamps
    it to ``[min_replicas, max_replicas]`` and applies hysteresis.
    """

    name: str

    def desired_replicas(self, obs: AutoscaleObservation) -> int: ...


@dataclass(frozen=True)
class StaticPolicy:
    """Pin the fleet at a fixed size (the peak-provisioning baseline)."""

    replicas: int
    name: str = "static"

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        return self.replicas


@dataclass(frozen=True)
class ReactivePolicy:
    """Utilization target-tracking: ``desired = active · util / target``.

    The classic reactive rule.  It only sees utilization *after* load
    has risen, so a flash crowd faster than ``warmup_s`` always catches
    it late — the gap :class:`ModelPolicy` exists to close.
    """

    target_utilization: float = 0.6
    name: str = "reactive"

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError("target_utilization must be in (0, 1)")

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        if obs.utilization <= 0.0:
            return 1
        raw = obs.active_replicas * obs.utilization / self.target_utilization
        return max(1, math.ceil(raw - 1e-9))


@dataclass(frozen=True)
class ModelPolicy:
    """Model-driven predict-ahead provisioning.

    Extrapolates the observed arrival rate ``lookahead_s`` into the
    future (rate + positive slope; capacity launched *now* is only
    dispatchable after the warm-up, so the policy must provision for
    the rate *then*) and asks the capacity model for the smallest
    replica count whose predicted p99 meets the SLO at that rate,
    padded by ``headroom`` for the stochastic excursion around the
    envelope.
    """

    model: CapacityModel
    p99_slo_s: float
    shards: int = 1
    #: How far ahead to extrapolate; pick warm-up + one interval.
    lookahead_s: float = 180.0
    headroom: float = 1.15
    max_replicas: int = 256
    name: str = "model"

    def __post_init__(self) -> None:
        if self.p99_slo_s <= 0:
            raise ValueError("p99_slo_s must be positive")
        if self.lookahead_s < 0:
            raise ValueError("lookahead_s must be non-negative")
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1")

    def desired_replicas(self, obs: AutoscaleObservation) -> int:
        slope = (
            (obs.arrival_rate_qps - obs.previous_rate_qps) / obs.interval_s
            if obs.interval_s > 0
            else 0.0
        )
        predicted = obs.arrival_rate_qps + max(0.0, slope) * self.lookahead_s
        predicted *= self.headroom
        if predicted <= 0.0:
            return 1
        return self.model.replicas_for_slo(
            predicted,
            self.p99_slo_s,
            shards=self.shards,
            max_replicas=self.max_replicas,
        )


@dataclass(frozen=True)
class AutoscaleConfig:
    """Everything fixed about the autoscaled cluster (not the policy)."""

    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    shards: int = 1
    initial_replicas: int = 1
    min_replicas: int = 1
    max_replicas: int = 64
    #: Seconds between launch and dispatchability of a new row.
    warmup_s: float = 120.0
    #: Control-loop period.
    control_interval_s: float = 60.0
    #: No scale-down within this long after any scale-up.
    scale_down_cooldown_s: float = 300.0
    #: Consecutive intervals the policy must ask for fewer rows.
    scale_down_stability: int = 3
    broker_merge_per_server: float = BROKER_MERGE_PER_SERVER
    #: Optional PR 3 admission control in front of the broker.
    overload: Optional[OverloadPolicy] = None
    #: Optional replica crash/recovery process (:mod:`repro.sim.failures`).
    #: A crashed row fails its in-flight queries (typed
    #: :data:`~repro.sim.failures.SHED_REPLICA_CRASH`, counted as SLO
    #: misses), leaves the dispatchable set, and rejoins through the
    #: ordinary ``warmup_s`` path once repaired.  ``None`` keeps the run
    #: bit-identical to the pre-failure-model behaviour.
    failures: Optional[ReplicaFailureModel] = None

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if not self.min_replicas <= self.initial_replicas <= self.max_replicas:
            raise ValueError(
                "initial_replicas must lie in [min_replicas, max_replicas]"
            )
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        if self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be positive")
        if self.scale_down_cooldown_s < 0:
            raise ValueError("scale_down_cooldown_s must be non-negative")
        if self.scale_down_stability < 1:
            raise ValueError("scale_down_stability must be >= 1")


@dataclass(frozen=True)
class AutoscaleSample:
    """One control-loop tick of the provisioning timeline."""

    now: float
    desired: int
    provisioned: int
    active: int
    arrival_rate_qps: float
    utilization: float


@dataclass(frozen=True)
class AutoscaleResult:
    """Everything the autoscaled run produced."""

    records: List[FanoutQueryRecord]
    timeline: List[AutoscaleSample]
    horizon_s: float
    policy_name: str
    #: (launched_at, retired_at) per row ever provisioned; rows still
    #: provisioned at the end retire at ``horizon_s``.
    row_spans: Tuple[Tuple[float, float], ...]
    scale_up_events: int
    scale_down_events: int
    #: Replica crash / recovery event counts (0 without a fault model).
    replica_crashes: int = 0
    replica_recoveries: int = 0

    @property
    def served_records(self) -> List[FanoutQueryRecord]:
        return [r for r in self.records if r.served]

    @property
    def shed_count(self) -> int:
        """Queries not served — admission sheds *and* crash failures."""
        return sum(1 for r in self.records if not r.served)

    @property
    def failed_count(self) -> int:
        """Queries lost in flight to a replica crash (typed subset of
        :attr:`shed_count`)."""
        return sum(1 for r in self.records if r.failed)

    def latencies(self) -> np.ndarray:
        return np.asarray(
            [r.latency for r in self.served_records], dtype=np.float64
        )

    def summary(self) -> LatencySummary:
        """Latency order statistics over served queries; the NaN
        :data:`~repro.metrics.summary.EMPTY_SUMMARY` when none was."""
        return summarize(self.latencies(), empty="nan")

    def slo_attainment(self, slo_s: float) -> float:
        """Fraction of *offered* queries answered within ``slo_s``.

        Shed queries count as misses — an autoscaler cannot meet its
        SLO by refusing the traffic it was too small for.
        """
        if not self.records:
            return 1.0
        latencies = self.latencies()
        within = int(np.count_nonzero(latencies <= slo_s))
        return within / len(self.records)

    def replica_hours(self) -> float:
        """Integral of provisioned rows over the run (the cost metric)."""
        return (
            sum(retired - launched for launched, retired in self.row_spans)
            / 3600.0
        )

    def max_provisioned(self) -> int:
        return max(sample.provisioned for sample in self.timeline)


class _Row:
    """One provisioned replica row: a server per shard, plus lifecycle."""

    __slots__ = (
        "row_id",
        "servers",
        "launched_at",
        "ready_at",
        "retired_at",
        "crashed",
        "generation",
    )

    def __init__(
        self,
        row_id: int,
        servers: List[SimulatedServer],
        launched_at: float,
        ready_at: float,
    ) -> None:
        self.row_id = row_id
        self.servers = servers
        self.launched_at = launched_at
        self.ready_at = ready_at
        self.retired_at: Optional[float] = None
        self.crashed = False
        #: Bumped on every recovery; names the fresh servers' streams.
        self.generation = 0

    def dispatchable(self, now: float) -> bool:
        return (
            self.retired_at is None
            and not self.crashed
            and now >= self.ready_at
        )


def run_autoscaled_cluster(
    config: AutoscaleConfig,
    policy: ScalingPolicy,
    arrival_times: np.ndarray,
    demands: np.ndarray,
    horizon_s: Optional[float] = None,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
) -> AutoscaleResult:
    """Play a realized trace against the cluster under ``policy``.

    ``arrival_times`` / ``demands`` are pre-realized (e.g. from
    :meth:`~repro.workload.diurnal.DiurnalArrivals.realize_trace` and a
    demand model) so every policy compared in a study faces the
    *identical* workload — common random numbers across policies, the
    same contract :mod:`repro.sim.random` gives parameter sweeps.

    Replica-hours accrue from row launch to row retirement (or
    ``horizon_s`` for rows still up at the end); a retired row drains
    its in-flight queries but accepts no new ones.
    """
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    if arrival_times.size != demands.size:
        raise ValueError("arrival_times and demands must align")
    if arrival_times.size == 0:
        raise ValueError("empty trace")
    if not (
        np.isfinite(arrival_times).all() and np.isfinite(demands).all()
    ):
        raise ValueError("arrival_times and demands must be finite")
    if (np.diff(arrival_times) < 0).any():
        # The control loop counts arrivals with a binary search.
        raise ValueError("arrival_times must be non-decreasing")
    horizon = (
        float(horizon_s)
        if horizon_s is not None
        else float(arrival_times[-1])
    )
    if horizon <= 0:
        raise ValueError("horizon_s must be positive")

    streams = RandomStreams(seed)
    sim = Simulator()
    broker = Broker(
        sim,
        streams,
        config.shards,
        merge_per_server=config.broker_merge_per_server,
        concentration=SERVER_IMBALANCE_CONCENTRATION,
        overload=config.overload,
    )
    rows: List[_Row] = []
    rows_created = 0

    # ``is not None``: an empty MetricsRegistry is falsy (it has __len__).
    counters = {
        name: (
            metrics.counter(f"autoscale.{name}")
            if metrics is not None
            else None
        )
        for name in (
            "scale_up_events",
            "scale_down_events",
            "replicas_launched",
            "replicas_retired",
            "sheds",
        )
    }

    failure_counters = {
        name: (
            metrics.counter(f"failures.{name}")
            if metrics is not None and config.failures is not None
            else None
        )
        for name in (
            "replica_crashes",
            "replica_recoveries",
            "queries_failed",
        )
    }
    failure_state = {"crashes": 0, "recoveries": 0}

    def bump(name: str, value: float = 1) -> None:
        if counters[name] is not None:
            counters[name].add(value)

    def bump_failure(name: str, value: float = 1) -> None:
        if failure_counters[name] is not None:
            failure_counters[name].add(value)

    def make_servers(row_id: int, generation: int) -> List[SimulatedServer]:
        # Generation 0 keeps the original stream names so a run without
        # failures stays bit-identical to the pre-failure-model code.
        suffix = f"-g{generation}" if generation else ""
        return [
            SimulatedServer(
                sim,
                config.spec,
                config.partitioning,
                imbalance_rng=streams.stream(
                    f"imbalance-{shard}-{row_id}{suffix}"
                ),
                on_complete=broker.on_server_done,
                metrics=metrics,
            )
            for shard in range(config.shards)
        ]

    def publish_rows() -> None:
        """Rewrite the broker's replica table: the dispatchable rows,
        oldest first (least-outstanding ties go to the oldest row)."""
        live = active_rows(sim.now)
        for shard, group in enumerate(broker.replicas):
            group[:] = [row.servers[shard] for row in live]

    def publish_when_ready(row: _Row) -> None:
        if row.ready_at > sim.now:
            sim.schedule(row.ready_at, publish_rows)
        else:
            publish_rows()

    def launch_row(now: float) -> None:
        nonlocal rows_created
        row_id = rows_created
        rows_created += 1
        ready_at = now + (config.warmup_s if now > 0.0 else 0.0)
        row = _Row(
            row_id,
            make_servers(row_id, 0),
            launched_at=now,
            ready_at=ready_at,
        )
        rows.append(row)
        bump("replicas_launched")
        publish_when_ready(row)
        if config.failures is not None:
            schedule_next_crash(
                row, config.failures.windows(row_id, now, streams)
            )

    def provisioned_rows() -> List[_Row]:
        return [row for row in rows if row.retired_at is None]

    def active_rows(now: float) -> List[_Row]:
        return [row for row in rows if row.dispatchable(now)]

    # ------------------------------------------------------------------
    # Replica failure & recovery (repro.sim.failures).

    def schedule_next_crash(row: _Row, windows) -> None:
        for crash_at, repair_s in windows:
            if crash_at >= horizon:
                return
            if crash_at <= sim.now:
                continue  # defensive against ill-ordered trace windows
            sim.schedule(crash_at, crash_row, row, repair_s, windows)
            return

    def crash_row(row: _Row, repair_s: float, windows) -> None:
        if row.retired_at is not None:
            return
        row.crashed = True
        failure_state["crashes"] += 1
        bump_failure("replica_crashes")
        publish_rows()
        # Fail exactly the queries with a shard in flight on this row.
        broker.fail_replicas(row.servers)
        sim.schedule_after(repair_s, recover_row, row, windows)

    def recover_row(row: _Row, windows) -> None:
        if row.retired_at is not None:
            return
        # Fresh servers: the crash lost all in-flight and queued work,
        # and the replacement rejoins through the ordinary warm-up.
        row.generation += 1
        row.servers = make_servers(row.row_id, row.generation)
        row.crashed = False
        row.ready_at = sim.now + config.warmup_s
        failure_state["recoveries"] += 1
        bump_failure("replica_recoveries")
        publish_when_ready(row)
        schedule_next_crash(row, windows)

    for _ in range(config.initial_replicas):
        launch_row(0.0)

    for query_id, (send_time, demand) in enumerate(
        zip(arrival_times.tolist(), demands.tolist())
    ):
        sim.schedule(send_time, broker.on_arrival, query_id, demand)

    # ------------------------------------------------------------------
    # The control loop.

    timeline: List[AutoscaleSample] = []
    state = {
        "arrivals_seen": 0,
        "previous_rate": 0.0,
        "busy_baseline": {},  # id(server) -> busy_time at last tick
        "last_scale_up": float("-inf"),
        "wants_fewer_streak": 0,
        "scale_ups": 0,
        "scale_downs": 0,
    }

    def measure_utilization(now: float, ticked: List[_Row]) -> float:
        """Busy-core fraction of the given rows since the last tick."""
        baseline = state["busy_baseline"]
        busy_delta = 0.0
        cores = 0
        for row in ticked:
            for server in row.servers:
                busy = server.cores.busy_time
                busy_delta += busy - baseline.get(id(server), 0.0)
                cores += config.spec.num_cores
        # Refresh the baseline for *every* live server so draining or
        # warming rows do not inject stale deltas when they activate.
        baseline.clear()
        for row in rows:
            for server in row.servers:
                baseline[id(server)] = server.cores.busy_time
        if cores == 0:
            return 0.0
        window = min(config.control_interval_s, now) or 1.0
        return busy_delta / (cores * window)

    def control_tick() -> None:
        now = sim.now
        arrived = int(np.searchsorted(arrival_times, now, side="right"))
        rate = (
            (arrived - state["arrivals_seen"]) / config.control_interval_s
        )
        state["arrivals_seen"] = arrived
        active = active_rows(now)
        provisioned = provisioned_rows()
        obs = AutoscaleObservation(
            now=now,
            interval_s=config.control_interval_s,
            arrival_rate_qps=rate,
            previous_rate_qps=state["previous_rate"],
            active_replicas=len(active),
            provisioned_replicas=len(provisioned),
            utilization=measure_utilization(now, active),
        )
        state["previous_rate"] = rate
        desired = policy.desired_replicas(obs)
        desired = min(max(desired, config.min_replicas), config.max_replicas)

        if desired > len(provisioned):
            for _ in range(desired - len(provisioned)):
                launch_row(now)
            state["last_scale_up"] = now
            state["wants_fewer_streak"] = 0
            state["scale_ups"] += 1
            bump("scale_up_events")
        elif desired < len(provisioned):
            state["wants_fewer_streak"] += 1
            cooled = (
                now - state["last_scale_up"] >= config.scale_down_cooldown_s
            )
            if cooled and (
                state["wants_fewer_streak"] >= config.scale_down_stability
            ):
                # Retire the newest rows first: the oldest are the
                # warmest, and a fresh row is the cheapest to abandon.
                to_retire = sorted(
                    provisioned, key=lambda r: -r.launched_at
                )[: len(provisioned) - desired]
                for row in to_retire:
                    row.retired_at = now
                    bump("replicas_retired")
                publish_rows()
                state["wants_fewer_streak"] = 0
                state["scale_downs"] += 1
                bump("scale_down_events")
        else:
            state["wants_fewer_streak"] = 0

        if metrics is not None:
            metrics.gauge("autoscale.target_replicas").set(desired)
            metrics.gauge("autoscale.provisioned_replicas").set(
                len(provisioned_rows())
            )
            metrics.gauge("autoscale.active_replicas").set(
                len(active_rows(now))
            )
        timeline.append(
            AutoscaleSample(
                now=now,
                desired=desired,
                provisioned=len(provisioned_rows()),
                active=len(active_rows(now)),
                arrival_rate_qps=rate,
                utilization=obs.utilization,
            )
        )
        if now + config.control_interval_s <= horizon:
            sim.schedule_after(config.control_interval_s, control_tick)

    sim.schedule(config.control_interval_s, control_tick)
    sim.run()

    spans = tuple(
        (
            row.launched_at,
            row.retired_at if row.retired_at is not None else horizon,
        )
        for row in rows
    )
    result = AutoscaleResult(
        records=broker.finished_records(arrival_times.size),
        timeline=timeline,
        horizon_s=horizon,
        policy_name=policy.name,
        row_spans=spans,
        scale_up_events=state["scale_ups"],
        scale_down_events=state["scale_downs"],
        replica_crashes=failure_state["crashes"],
        replica_recoveries=failure_state["recoveries"],
    )
    bump("sheds", result.shed_count - result.failed_count)
    bump_failure("queries_failed", result.failed_count)
    return result
