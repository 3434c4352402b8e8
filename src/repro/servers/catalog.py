"""Calibrated server specs for the low-power study.

Numbers follow 2015-era published figures for the two server classes
the paper contrasts:

- **Big server** — a dual-socket-class Xeon E5 v2 box as used in search
  deployments of the period: 8 fast cores (the reference core), ~95 W
  idle / ~250 W peak wall power.
- **Small server** — an Atom C2750 (Avoton) microserver: 8 cores, each
  roughly 3× slower than a Xeon core on search workloads (per-core
  SPECint-rate ratios of the era), ~18 W idle / ~45 W peak wall power.

The study's conclusions depend on the *ratios* (per-core speed ≈ 0.35,
power ≈ 1/6), not the absolute values.
"""

from __future__ import annotations

from typing import Dict

from repro.servers.spec import ServerSpec

#: Conventional high-performance search server (reference core speed).
BIG_SERVER = ServerSpec(
    name="xeon-e5",
    num_cores=8,
    core_speed=1.0,
    idle_power_watts=95.0,
    peak_power_watts=250.0,
)

#: Low-power microserver.
SMALL_SERVER = ServerSpec(
    name="atom-c2750",
    num_cores=8,
    core_speed=0.35,
    idle_power_watts=18.0,
    peak_power_watts=45.0,
)

#: A mid-range single-socket server, for sensitivity sweeps.
MID_SERVER = ServerSpec(
    name="xeon-e3",
    num_cores=4,
    core_speed=0.9,
    idle_power_watts=40.0,
    peak_power_watts=110.0,
)

SERVER_CATALOG: Dict[str, ServerSpec] = {
    spec.name: spec for spec in (BIG_SERVER, SMALL_SERVER, MID_SERVER)
}
