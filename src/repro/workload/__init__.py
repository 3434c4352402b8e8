"""Workload models: arrival processes and per-query service demands.

The benchmark's Faban driver is a closed-loop generator (fixed client
population, exponential think times); most follow-on tail-latency work
loads index serving nodes open-loop (Poisson).  Both are provided here,
along with a bursty Markov-modulated process for the traffic-spike
sensitivity study, and the service-demand models that map each query to
reference-core work.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    ClosedLoopSpec,
    DeterministicArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.servicetime import (
    ExponentialDemand,
    IndexDerivedDemand,
    LognormalDemand,
    ServiceDemandModel,
)
from repro.workload.cached import CachedDemand
from repro.workload.diurnal import DiurnalArrivals, FlashCrowd
from repro.workload.scenario import WorkloadScenario

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "FlashCrowd",
    "ClosedLoopSpec",
    "ServiceDemandModel",
    "ExponentialDemand",
    "LognormalDemand",
    "IndexDerivedDemand",
    "CachedDemand",
    "WorkloadScenario",
]
