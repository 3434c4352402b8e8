"""The analytical M/G/k capacity model.

Badue et al.'s capacity-planning result (PAPERS.md) is that per-shard
service-time *distributions* are sufficient to predict cluster-level
latency as a function of load — no full simulation needed.  This
module implements that idea for the benchmark's fork-join cluster:

1. **Per-replica queueing.**  Each replica of a shard group is a bank
   of ``num_cores`` cores serving whole-query jobs FCFS.  Mean waiting
   time uses the Allen–Cunneen M/G/k approximation — the M/M/k Erlang-C
   wait scaled by ``(Ca² + Cs²)/2`` — which is exact for M/M/k and
   within a few percent for the lognormal-ish service times measured on
   the native engine.  The *conditional* wait (given any wait) is
   approximated exponential, exactly as in M/M/k; replica groups pool
   into one ``k·replicas``-server queue, the standard approximation for
   least-outstanding routing (which behaves like join-shortest-queue,
   which approaches the pooled queue).  When the cost model has a
   nonzero merge step, the simulated server *re-queues* the merge task
   at its core bank, so a query pays the FCFS wait twice; the model
   mirrors that by stretching the conditional wait by the fitted
   revisit ratio (the two visits are strongly correlated — the
   dominant latency correction at small core counts).

2. **Fork-join across shards.**  A query completes when every shard
   answers, so cluster latency is the max of per-shard response times.
   Per-shard services of one query are *correlated* — the broker splits
   the query's demand across shards by a Dirichlet share vector — so
   the naive independence approximation ``F(t)^shards`` fails badly.
   Instead the model conditions on the split: per profile sample it
   draws the per-shard service vector, multiplies the independent
   per-shard *wait* completion probabilities along the row, and
   averages rows to get the cluster CDF, plus the broker's merge cost.

3. **Service-time distribution.**  The per-shard response is wait +
   unloaded service, where unloaded service is computed per profile
   sample through the same :class:`~repro.cluster.server.
   PartitionModelConfig` cost model the DES uses (pruning, storage
   fetches, per-partition overhead, merge), with cross-shard Dirichlet
   imbalance folded into the sample set.  Everything downstream is
   empirical over these samples, so heavy tails survive — the reason
   the model validates against the *p99*, not just the mean.

The model is deterministic: sample realization uses a fixed internal
seed, so two models built from the same inputs predict identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.queueing import erlang_c
from repro.cluster.broker import (
    BROKER_MERGE_PER_SERVER,
    SERVER_IMBALANCE_CONCENTRATION,
)
from repro.cluster.server import PartitionModelConfig
from repro.servers.spec import ServerSpec
from repro.workload.servicetime import ServiceDemandModel

#: Samples drawn when fitting a profile from a parametric demand model.
DEFAULT_PROFILE_SAMPLES = 20_000

#: Internal seed for deterministic sample realization (imbalance draws).
_PROFILE_SEED = 0x5EED

#: Extra stationary-wait fraction the merge's core-bank revisit costs
#: (fully correlated with the arrival wait); fitted against
#: seed-pooled DES runs across 1-8 cores and 30-80% load.
_MERGE_REVISIT_RATIO = 0.8


@dataclass(frozen=True)
class ServiceTimeProfile:
    """A whole-query service-demand distribution (reference-core s).

    ``samples`` are per-query demands *before* sharding — the same
    quantity every :class:`~repro.workload.servicetime.
    ServiceDemandModel` generates and the DES consumes.  Build one
    from measurements (native service times at a known core speed are
    demands at speed 1.0) or from a fitted demand model.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.samples, dtype=np.float64)
        if data.size < 2:
            raise ValueError("profile needs at least two samples")
        if np.any(data < 0):
            raise ValueError("service demands must be non-negative")
        if float(data.mean()) <= 0:
            raise ValueError("profile mean must be positive")
        object.__setattr__(self, "samples", data)

    @classmethod
    def from_demand_model(
        cls,
        demands: ServiceDemandModel,
        num_samples: int = DEFAULT_PROFILE_SAMPLES,
        seed: int = _PROFILE_SEED,
    ) -> "ServiceTimeProfile":
        """Realize a profile from a (possibly parametric) demand model."""
        if num_samples < 2:
            raise ValueError("num_samples must be at least 2")
        rng = np.random.default_rng(seed)
        return cls(samples=demands.demands(num_samples, rng))

    @classmethod
    def from_measurements(
        cls, service_seconds: Sequence[float]
    ) -> "ServiceTimeProfile":
        """Profile from measured native service times (speed-1.0 core)."""
        return cls(samples=np.asarray(service_seconds, dtype=np.float64))

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def scv(self) -> float:
        """Squared coefficient of variation — the M/G/k correction."""
        mean = self.mean
        return float(self.samples.var() / (mean * mean))

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        return float(np.quantile(self.samples, q))


@dataclass(frozen=True)
class CapacityPrediction:
    """The model's answer for one ``(qps, shards, replicas)`` point."""

    qps: float
    shards: int
    replicas: int
    utilization: float
    stable: bool
    probability_wait: float
    mean_wait_s: float
    p50_s: float
    p95_s: float
    p99_s: float

    def as_dict(self) -> dict:
        return {
            "qps": self.qps,
            "shards": self.shards,
            "replicas": self.replicas,
            "utilization": self.utilization,
            "stable": self.stable,
            "probability_wait": self.probability_wait,
            "mean_wait_s": self.mean_wait_s,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "p99_s": self.p99_s,
        }


@dataclass(frozen=True)
class CapacityModel:
    """Analytical latency-vs-load model of the sharded, replicated cluster.

    Attributes
    ----------
    profile:
        Whole-query service-demand distribution.
    spec:
        Server model of every replica (cores × core speed).
    partitioning:
        Intra-server cost model — the same object the DES interprets,
        so pruning/storage/overhead calibration transfers unchanged.
    broker_merge_per_server:
        Broker merge cost per responding shard (seconds), added as a
        deterministic shift to every cluster quantile.

    Per-shard demand samples are drawn as ``demand × share``, with the
    shares a Dirichlet draw of the simulated broker's own
    :data:`~repro.cluster.broker.SERVER_IMBALANCE_CONCENTRATION`, rather
    than ``demand / shards``, so shard-level variance survives.
    """

    profile: ServiceTimeProfile
    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    broker_merge_per_server: float = BROKER_MERGE_PER_SERVER

    def __post_init__(self) -> None:
        if self.broker_merge_per_server < 0:
            raise ValueError("broker_merge_per_server must be non-negative")

    # ------------------------------------------------------------------
    # Per-shard work and unloaded service time.

    def _shard_demand_matrix(self, shards: int) -> np.ndarray:
        """``(samples, shards)`` per-shard demands, row = one query.

        Each query's demand splits across shards by a Dirichlet share
        vector — the *same* split the DES applies — so one row's shard
        demands are strongly correlated (they sum to the query demand).
        Preserving that correlation is what makes the fork-join max
        tractable empirically: the naive independence approximation
        ``F_shard(t)^shards`` over-predicts cluster medians by ~2x
        because a query that is heavy on one shard is necessarily
        light on the others.
        """
        demands = self.profile.samples
        if shards == 1:
            return demands[:, np.newaxis]
        rng = np.random.default_rng(_PROFILE_SEED + shards)
        shares = rng.dirichlet(
            np.full(shards, SERVER_IMBALANCE_CONCENTRATION),
            size=demands.size,
        )
        return demands[:, np.newaxis] * shares

    def _work_matrix(self, shards: int) -> np.ndarray:
        """Reference-core seconds each query costs each shard's replica."""
        return self.partitioning.total_work(self._shard_demand_matrix(shards))

    def _unloaded_service(self, shards: int) -> np.ndarray:
        """Unloaded (no-queueing) per-shard completion-time matrix.

        With one partition this is exact: the whole work runs on one
        core.  With ``P`` partitions the fork-join makespan is
        approximated wave-by-wave: ``ceil(P / cores)`` execution waves,
        each costing the expected *largest* Dirichlet task share of the
        scoring demand plus the per-partition overhead, with the merge
        serialized after.
        """
        config = self.partitioning
        demands = self._shard_demand_matrix(shards)
        scoring = config.effective_demand(demands)
        p = config.num_partitions
        if p == 1:
            span = scoring + config.partition_overhead
        else:
            rng = np.random.default_rng(_PROFILE_SEED + 7919 * p)
            shares = rng.dirichlet(
                np.full(p, config.imbalance_concentration), size=64
            )
            max_share = float(shares.max(axis=1).mean())
            waves = math.ceil(p / self.spec.num_cores)
            span = waves * (scoring * max_share + config.partition_overhead)
        return (span + config.merge_demand()) / self.spec.core_speed

    # ------------------------------------------------------------------
    # The queueing layer.

    def saturation_qps(self, shards: int, replicas: int) -> float:
        """Work-conservation capacity of the configuration (queries/s)."""
        self._validate(shards, replicas)
        mean_work = float(self._work_matrix(shards).mean())
        return replicas * self.spec.compute_capacity / mean_work

    def _response_model(
        self, qps: float, shards: int, replicas: int
    ) -> "_ResponseModel":
        """Queueing state + response-time CDF for one operating point.

        The shared substrate behind :meth:`predict` (which inverts the
        CDF for quantiles) and :meth:`attainment` (which evaluates it at
        an SLO).  ``cdf`` excludes the deterministic broker ``merge``
        shift; callers account for it (quantiles add it, attainment
        subtracts it from the SLO).
        """
        self._validate(shards, replicas)
        if qps <= 0:
            raise ValueError("qps must be positive")
        work = self._work_matrix(shards)
        mean_work = float(work.mean())
        scv = float(work.var() / (mean_work * mean_work))
        # The replica group pools into one k-server queue: k cores, each
        # serving whole queries at rate core_speed / mean_work.
        servers = self.spec.num_cores * replicas
        service_rate = self.spec.core_speed / mean_work
        utilization = qps / (servers * service_rate)
        if utilization >= 1.0:
            return _ResponseModel(
                utilization=utilization,
                stable=False,
                probability_wait=1.0,
                total_mean_wait=float("inf"),
                cdf=None,
                service_max=float("inf"),
                mean_response_s=float("inf"),
                merge=self.broker_merge_per_server * shards,
            )
        probability_wait = erlang_c(qps, service_rate, servers)
        drain = servers * service_rate - qps
        # Allen–Cunneen: the M/M/k mean wait scaled by (Ca^2 + Cs^2)/2
        # with Poisson arrivals (Ca^2 = 1).
        mean_wait = probability_wait / drain * (1.0 + scv) / 2.0
        # Conditional wait approximated exponential (exact for M/M/k):
        # theta solves  P_wait / theta = mean_wait.
        theta = probability_wait / mean_wait if mean_wait > 0 else float("inf")
        # A server with a nonzero merge step visits its core bank TWICE
        # per query — the merge task re-queues behind work that arrived
        # while scoring ran — so each shard pays a second FCFS wait on
        # top of the arrival wait.  The two visits are strongly
        # positively correlated (a query that queued on arrival returns
        # to a still-busy bank), so the total is modeled as
        # ``(1 + r) * W1`` rather than an independent convolution:
        # P(any wait) stays Pw and only the conditional scale grows.
        # r = 0.6 matches the DES within ~10% on both the median and
        # the p99 from 1 to 8 cores up to 80% load; the independence
        # form instead overshoots medians by ~40% at small k.
        revisit_ratio = (
            _MERGE_REVISIT_RATIO
            if self.partitioning.merge_demand() > 0
            else 0.0
        )
        total_mean_wait = mean_wait * (1.0 + revisit_ratio)
        conditional_scale = (
            theta / (1.0 + revisit_ratio) if np.isfinite(theta) else theta
        )
        service = self._unloaded_service(shards)  # (samples, shards)
        merge = self.broker_merge_per_server * shards

        def wait_cdf(slack: np.ndarray) -> np.ndarray:
            """P(total queueing delay <= slack), elementwise, slack >= 0.

            Zero-inflated exponential: ``P(W=0) = 1 - Pw``, conditional
            total wait Exp(theta / (1 + r)) covering both visits.
            """
            if not np.isfinite(conditional_scale):
                return np.ones_like(slack)
            pw = probability_wait
            return (1.0 - pw) + pw * (
                1.0 - np.exp(-conditional_scale * slack)
            )

        def cluster_cdf(t: float) -> float:
            """P(max over shards of wait + service <= t).

            Per-shard waits are independent across shards (each shard
            group queues separately), so conditioned on one query's
            per-shard services the completion probabilities multiply
            along a row; the outer mean integrates over the correlated
            service matrix.
            """
            slack = t - service
            reached = slack >= 0.0
            factor = np.where(
                reached, wait_cdf(np.maximum(slack, 0.0)), 0.0
            )
            return float(factor.prod(axis=1).mean())

        return _ResponseModel(
            utilization=utilization,
            stable=True,
            probability_wait=probability_wait,
            total_mean_wait=total_mean_wait,
            cdf=cluster_cdf,
            service_max=float(service.max()),
            mean_response_s=(
                total_mean_wait
                + float(service.max(axis=1).mean())
                + merge
            ),
            merge=merge,
        )

    def predict(
        self, qps: float, shards: int = 1, replicas: int = 1
    ) -> CapacityPrediction:
        """Predicted utilization and latency quantiles at ``qps``.

        An unstable point (offered work ≥ capacity) reports
        ``stable=False`` with infinite latencies rather than raising, so
        sweeps can plot the knee.
        """
        state = self._response_model(qps, shards, replicas)
        if not state.stable:
            return CapacityPrediction(
                qps=qps,
                shards=shards,
                replicas=replicas,
                utilization=state.utilization,
                stable=False,
                probability_wait=1.0,
                mean_wait_s=float("inf"),
                p50_s=float("inf"),
                p95_s=float("inf"),
                p99_s=float("inf"),
            )
        cluster_cdf = state.cdf

        def cluster_quantile(q: float) -> float:
            low = 0.0
            high = state.service_max + state.total_mean_wait + 1e-6
            while cluster_cdf(high) < q:
                high *= 2.0
                if high > 1e9:  # pragma: no cover - defensive
                    return float("inf")
            for _ in range(60):
                mid = (low + high) / 2.0
                if cluster_cdf(mid) < q:
                    low = mid
                else:
                    high = mid
            return high + state.merge

        return CapacityPrediction(
            qps=qps,
            shards=shards,
            replicas=replicas,
            utilization=state.utilization,
            stable=True,
            probability_wait=state.probability_wait,
            mean_wait_s=state.total_mean_wait,
            p50_s=cluster_quantile(0.50),
            p95_s=cluster_quantile(0.95),
            p99_s=cluster_quantile(0.99),
        )

    def attainment(
        self, qps: float, slo_s: float, shards: int = 1, replicas: int = 1
    ) -> float:
        """P(response time ≤ ``slo_s``) at the operating point.

        The CDF evaluated at the SLO — the model's prediction of SLO
        attainment with every replica up.  Unstable points attain 0.0:
        an overloaded queue eventually misses every deadline.
        """
        if slo_s <= 0:
            raise ValueError("slo_s must be positive")
        state = self._response_model(qps, shards, replicas)
        if not state.stable:
            return 0.0
        return min(1.0, state.cdf(max(0.0, slo_s - state.merge)))

    def expected_slo_attainment(
        self,
        qps: float,
        slo_s: float,
        shards: int,
        replicas: int,
        mttf_s: float,
        mttr_s: float,
    ) -> float:
        """Expected SLO attainment under replica MTTF/MTTR failures.

        Each replica is up with steady-state probability
        ``a = MTTF / (MTTF + MTTR)`` independently, so the number of
        survivors is Binomial(``replicas``, ``a``); the expectation
        averages the full-knowledge attainment at each survivor count
        (zero when none survive or the survivors are unstable at the
        offered load).  A first-order in-flight loss term is subtracted:
        a query resident for ``T`` seconds loses a serving replica —
        and with it the query — with probability ≈ ``shards · T/MTTF``.
        """
        if mttf_s <= 0:
            raise ValueError("mttf_s must be positive")
        if mttr_s < 0:
            raise ValueError("mttr_s must be non-negative")
        availability = mttf_s / (mttf_s + mttr_s)
        expected = 0.0
        for up in range(1, replicas + 1):
            weight = (
                math.comb(replicas, up)
                * availability**up
                * (1.0 - availability) ** (replicas - up)
            )
            if weight <= 0.0:
                continue
            state = self._response_model(qps, shards, up)
            if not state.stable:
                continue
            att = min(1.0, state.cdf(max(0.0, slo_s - state.merge)))
            crash_loss = min(
                1.0, shards * state.mean_response_s / mttf_s
            )
            expected += weight * att * (1.0 - crash_loss)
        return expected

    def replicas_for_slo(
        self,
        qps: float,
        p99_slo_s: float,
        shards: int = 1,
        max_replicas: int = 256,
        *,
        mttf_s: Optional[float] = None,
        mttr_s: Optional[float] = None,
        attainment_target: float = 0.99,
    ) -> int:
        """Smallest replica count whose predicted p99 meets the SLO.

        Without ``mttf_s``/``mttr_s`` this is the full-fleet inverse of
        :meth:`predict`.  With them, provisioning becomes
        *availability-aware*: the answer is the smallest N whose
        :meth:`expected_slo_attainment` over the Binomial survivor
        distribution meets ``attainment_target`` — N+k headroom, where
        k absorbs the replicas expected to be down at any instant.

        Raises ``ValueError`` when even ``max_replicas`` replicas miss
        the SLO — the SLO is below the unloaded service floor, or the
        search cap is too small for the offered load.
        """
        if p99_slo_s <= 0:
            raise ValueError("p99_slo_s must be positive")
        if max_replicas <= 0:
            raise ValueError("max_replicas must be positive")
        if (mttf_s is None) != (mttr_s is None):
            raise ValueError("mttf_s and mttr_s must be given together")
        if not 0.0 < attainment_target < 1.0:
            raise ValueError("attainment_target must be in (0, 1)")
        # Start at the stability floor instead of probing 1..n replicas
        # that cannot even carry the offered work.
        floor = max(1, math.ceil(qps / self.saturation_qps(shards, 1) + 1e-9))
        if mttf_s is None:
            for replicas in range(floor, max_replicas + 1):
                prediction = self.predict(
                    qps, shards=shards, replicas=replicas
                )
                if prediction.stable and prediction.p99_s <= p99_slo_s:
                    return replicas
        else:
            for replicas in range(floor, max_replicas + 1):
                expected = self.expected_slo_attainment(
                    qps,
                    p99_slo_s,
                    shards=shards,
                    replicas=replicas,
                    mttf_s=mttf_s,
                    mttr_s=mttr_s,
                )
                if expected >= attainment_target:
                    return replicas
        raise ValueError(
            f"no replica count <= {max_replicas} meets p99 <= "
            f"{p99_slo_s * 1000:.1f} ms at {qps:.0f} qps"
        )

    @staticmethod
    def _validate(shards: int, replicas: int) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if replicas <= 0:
            raise ValueError("replicas must be positive")


@dataclass(frozen=True)
class _ResponseModel:
    """Internal: queueing state + response CDF for one operating point."""

    utilization: float
    stable: bool
    probability_wait: float
    total_mean_wait: float
    #: P(queueing + service max over shards <= t), or None if unstable.
    #: Excludes the deterministic broker ``merge`` shift.
    cdf: Optional[Callable[[float], float]]
    service_max: float
    mean_response_s: float
    merge: float
