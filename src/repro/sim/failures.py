"""Replica failure & recovery processes for the DES cluster.

The capacity and autoscaling layers (PR 8) assume every provisioned
replica row stays up; real fleets lose machines mid-query.  This module
supplies the *fault process* half of a closed failure-recovery loop:
seedable generators of ``(crash_at, repair_s)`` windows that
:func:`repro.sim.autoscale.run_autoscaled_cluster` plays against the
simulated fleet.  When a window opens the row leaves the dispatchable
set and every query with a shard in flight on it fails — typed with
:data:`SHED_REPLICA_CRASH` and counted as an SLO miss — and when the
repair completes the row rejoins through the ordinary warm-up path,
exactly like a freshly launched replica.

Two models are provided.  :class:`MttfMttrFailures` is the classic
renewal process — exponential time-to-failure with mean ``mttf_s`` and
exponential repair with mean ``mttr_s`` — whose steady-state
availability ``MTTF / (MTTF + MTTR)`` is what the availability-aware
capacity planner (:meth:`repro.capacity.model.CapacityModel.
replicas_for_slo` with ``mttf_s``/``mttr_s``) provisions N+k headroom
against.  :class:`TraceFailures` replays explicit per-row windows, for
regression tests and for reproducing a specific incident timeline.

Determinism: each row draws from its own named substream of the run's
:class:`~repro.sim.random.RandomStreams`, so enabling failures never
perturbs the arrival, demand, or imbalance streams — and a run with
``failures=None`` is bit-identical to one predating this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol, Sequence, Tuple, runtime_checkable

from repro.sim.random import RandomStreams

__all__ = [
    "SHED_REPLICA_CRASH",
    "FailureWindow",
    "ReplicaFailureModel",
    "MttfMttrFailures",
    "TraceFailures",
    "steady_state_availability",
]

#: ``shed_reason`` stamped on queries whose serving replica crashed
#: mid-flight.  Distinct from admission sheds: the query *was*
#: dispatched and its work was lost, not refused.
SHED_REPLICA_CRASH = "replica_crash"

#: One failure occurrence: (absolute crash time, repair duration).
FailureWindow = Tuple[float, float]


def steady_state_availability(mttf_s: float, mttr_s: float) -> float:
    """Long-run fraction of time a repairable replica is up.

    The alternating-renewal limit ``MTTF / (MTTF + MTTR)`` — the same
    quantity the availability-aware capacity planner treats as the
    per-replica Bernoulli "up" probability.
    """
    if mttf_s <= 0:
        raise ValueError("mttf_s must be positive")
    if mttr_s < 0:
        raise ValueError("mttr_s must be non-negative")
    return mttf_s / (mttf_s + mttr_s)


@runtime_checkable
class ReplicaFailureModel(Protocol):
    """A source of per-row failure windows.

    Structural: anything with a ``name`` and a ``windows`` generator is
    a model.  ``windows`` yields ``(crash_at, repair_s)`` pairs with
    strictly increasing, non-overlapping crash times (each next crash
    no earlier than the previous repair's completion); the caller stops
    consuming once ``crash_at`` passes its horizon.
    """

    name: str

    def windows(
        self,
        row_id: int,
        launched_at: float,
        streams: RandomStreams,
    ) -> Iterator[FailureWindow]: ...


@dataclass(frozen=True, kw_only=True)
class MttfMttrFailures:
    """Exponential MTTF/MTTR renewal process, one per replica row.

    Time-to-failure ~ Exp(mean ``mttf_s``) measured from launch or from
    the end of the previous repair; repair ~ Exp(mean ``mttr_s``).
    Draws come from the ``replica-failures-{row_id}`` substream so every
    row fails independently yet reproducibly.  ``min_repair_s`` floors
    pathological near-zero repair draws (a real reboot is never free).
    """

    mttf_s: float
    mttr_s: float
    min_repair_s: float = 1.0
    name: str = "mttf-mttr"

    def __post_init__(self) -> None:
        if self.mttf_s <= 0:
            raise ValueError("mttf_s must be positive")
        if self.mttr_s <= 0:
            raise ValueError("mttr_s must be positive")
        if self.min_repair_s < 0:
            raise ValueError("min_repair_s must be non-negative")

    def windows(
        self,
        row_id: int,
        launched_at: float,
        streams: RandomStreams,
    ) -> Iterator[FailureWindow]:
        rng = streams.stream(f"replica-failures-{row_id}")
        now = float(launched_at)
        while True:
            crash_at = now + float(rng.exponential(self.mttf_s))
            repair_s = max(
                self.min_repair_s, float(rng.exponential(self.mttr_s))
            )
            yield crash_at, repair_s
            now = crash_at + repair_s


@dataclass(frozen=True)
class TraceFailures:
    """Replay explicit failure windows per replica row.

    ``windows_by_row`` maps a row id (creation order: the initial fleet
    is rows ``0..initial_replicas-1``) to its ``(crash_at, repair_s)``
    windows.  Rows absent from the map never fail.  Windows must be
    sorted and non-overlapping; this is validated eagerly so a typo in
    a test fixture fails loudly, not as a silent mis-schedule.
    """

    windows_by_row: Mapping[int, Sequence[FailureWindow]]
    name: str = field(default="trace", compare=False)

    def __post_init__(self) -> None:
        for row_id, windows in self.windows_by_row.items():
            previous_end = float("-inf")
            for crash_at, repair_s in windows:
                if crash_at < 0:
                    raise ValueError(
                        f"row {row_id}: crash_at must be non-negative"
                    )
                if crash_at < previous_end:
                    raise ValueError(
                        f"row {row_id}: failure windows overlap at "
                        f"t={crash_at}"
                    )
                if repair_s <= 0:
                    raise ValueError(
                        f"row {row_id}: repair_s must be positive"
                    )
                previous_end = crash_at + repair_s

    def windows(
        self,
        row_id: int,
        launched_at: float,
        streams: RandomStreams,
    ) -> Iterator[FailureWindow]:
        for crash_at, repair_s in self.windows_by_row.get(row_id, ()):
            if crash_at >= launched_at:
                yield float(crash_at), float(repair_s)
