"""Utilization-based server power and energy accounting.

The standard linear server power model: wall power interpolates between
idle and peak with CPU utilization.  It is first-order accurate for
both server classes in the study and sufficient for the energy-per-query
comparison, which is dominated by the idle/peak *ratio* difference
between the two machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.servers.spec import ServerSpec


@dataclass(frozen=True)
class PowerModel:
    """Linear power model bound to one server spec."""

    spec: ServerSpec

    def power_at(self, utilization: float) -> float:
        """Wall power (watts) at the given CPU utilization in [0, 1]."""
        if not 0.0 <= utilization <= 1.0 + 1e-9:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        utilization = min(utilization, 1.0)
        return self.spec.idle_power_watts + utilization * (
            self.spec.peak_power_watts - self.spec.idle_power_watts
        )
