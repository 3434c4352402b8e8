"""Overload control and chaos engineering for the benchmark cluster.

The paper's tail-latency results hold only *below* saturation: past the
knee, an open-loop arrival process drives queueing delay — and with it
every percentile — to infinity, and a single sick shard can do the same
to an otherwise healthy cluster.  This package adds the protection
layer a production search tier runs with, and the fault-injection
harness that proves it works:

- **Admission control** (:mod:`repro.resilience.admission`) — a bounded
  admission queue in front of the serving path with pluggable shedding
  policies: a hard concurrency limit, CoDel-style target-delay
  dropping, and an AIMD adaptive concurrency limiter.  Shed queries
  return a typed :class:`ShedResponse` (``coverage == 0.0``) instead of
  raising, so drivers and metrics keep working.
- **Circuit breakers** (:mod:`repro.resilience.breaker`) — per-shard
  closed/open/half-open breakers tripped by consecutive failures or
  deadline misses; while open, the fan-out skips the shard and degrades
  coverage exactly like a deadline miss.
- **Fault injection** (:mod:`repro.resilience.faults`) — a declarative,
  seedable :class:`FaultPlan` of shard slowdowns, crash/restart
  windows, and error bursts, interpreted by both execution paths, plus
  a native wall-clock :class:`FaultInjector`.
- **The gather machine** (:mod:`repro.resilience.gather`) — one
  query's hedge / retry / deadline state machine, driven by the native
  ISN and the DES broker alike.
- **Fault-space exploration** (:mod:`repro.resilience.explore`) — a
  deterministic enumerator of seeded fault schedules (fault kinds ×
  timing × target shards) driven through either execution path while
  checking the recovery invariants above; ``python -m
  repro.resilience.explore`` runs it from the command line.

Like :class:`~repro.engine.hedging.HedgingPolicy`, every policy object
here is declarative and interpreted by *both* execution paths — the
native thread-pool ISN against the wall clock and the DES cluster
broker against simulated time.  With no policy configured, both paths
are bit-identical to their unprotected behaviour.
"""

from repro.resilience.admission import (
    AdmissionController,
    AimdConfig,
    BlockingAdmissionGate,
    OverloadPolicy,
    ShedResponse,
)
from repro.resilience.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.faults import (
    ErrorBurst,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ShardCrash,
    ShardSlowdown,
)

__all__ = [
    "OverloadPolicy",
    "AimdConfig",
    "AdmissionController",
    "BlockingAdmissionGate",
    "ShedResponse",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "BreakerBoard",
    "FaultPlan",
    "ShardSlowdown",
    "ShardCrash",
    "ErrorBurst",
    "FaultInjector",
    "InjectedFault",
]
