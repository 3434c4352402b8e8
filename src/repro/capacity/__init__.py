"""Capacity planning: analytical queueing model + replica autoscaling.

The benchmark characterizes latency at *fixed* load points; serving
diurnal, million-user traffic needs the inverse question answered —
how many replicas does a given load require under a tail-latency SLO?
This package provides:

- :class:`ServiceTimeProfile` — a per-query service-demand
  distribution, fitted from a demand model, from native measurements,
  or from raw samples;
- :class:`CapacityModel` — an M/G/k-style analytical model predicting
  per-replica utilization and p50/p95/p99 latency as a function of
  offered QPS, shard count, and replica count, plus the inverse
  :meth:`CapacityModel.replicas_for_slo`;
- :func:`peak_replicas` / :func:`static_replica_hours` — the static
  peak-provisioning baseline an autoscaler is judged against.

The DES-side control loop that *acts* on the model lives in
:mod:`repro.sim.autoscale`; the diurnal + flash-crowd trace generator
that drives both lives in :mod:`repro.workload.diurnal`.
"""

from repro.capacity.model import (
    CapacityModel,
    CapacityPrediction,
    ServiceTimeProfile,
)
from repro.capacity.plan import (
    peak_replicas,
    static_replica_hours,
)

__all__ = [
    "CapacityModel",
    "CapacityPrediction",
    "ServiceTimeProfile",
    "peak_replicas",
    "static_replica_hours",
]
