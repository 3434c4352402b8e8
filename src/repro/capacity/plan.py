"""Static peak provisioning, the baseline an autoscaler is judged against.

Size the cluster for the worst minute of the day and pay for it around
the clock: :func:`peak_replicas` computes that size from a
:class:`~repro.capacity.model.CapacityModel` and a rate envelope, and
:func:`static_replica_hours` what it spends, the quantity the fig. 27
headline compares.  The *online* control loop that reacts to observed
traffic lives in :mod:`repro.sim.autoscale`.
"""

from __future__ import annotations

from repro.capacity.model import CapacityModel
from repro.workload.diurnal import DiurnalArrivals


def peak_replicas(
    model: CapacityModel,
    arrivals: DiurnalArrivals,
    p99_slo_s: float,
    shards: int = 1,
    horizon_s: float | None = None,
    headroom: float = 1.1,
    max_replicas: int = 256,
) -> int:
    """Static sizing: replicas that meet the SLO at the envelope peak.

    ``headroom`` inflates the peak rate (default 10%) to cover the
    Poisson excursion above the deterministic envelope — the same
    margin an operator sizing from a rate chart would apply.
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1")
    peak_qps = arrivals.peak_envelope_qps(horizon_s) * headroom
    return model.replicas_for_slo(
        peak_qps, p99_slo_s, shards=shards, max_replicas=max_replicas
    )


def static_replica_hours(replicas: int, horizon_s: float) -> float:
    """Replica-hours a fixed fleet of ``replicas`` spends over the horizon."""
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    return replicas * horizon_s / 3600.0
