"""Server models: core counts, speeds, and power.

The paper's low-power study compares a conventional high-performance
server against a low-power microserver.  ``ServerSpec`` captures the
three properties that matter for the studied effects — core count,
per-core speed relative to the reference core, and the idle/peak power
envelope — and :mod:`catalog` provides specs calibrated to 2015-era
published numbers for the two server classes.
"""

from repro.servers.catalog import (
    BIG_SERVER,
    MID_SERVER,
    SERVER_CATALOG,
    SMALL_SERVER,
)
from repro.servers.power import PowerModel
from repro.servers.spec import ServerSpec

__all__ = [
    "ServerSpec",
    "PowerModel",
    "BIG_SERVER",
    "MID_SERVER",
    "SMALL_SERVER",
    "SERVER_CATALOG",
]
