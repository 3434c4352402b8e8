"""Simulated index-serving cluster.

The load studies (latency vs. load, partition sweeps, low-power server
comparison) run on a discrete-event model of an index serving node:
queries fork into one task per intra-server partition, the tasks queue
FCFS on the server's cores, and the query completes after the slowest
task plus a merge step — the classic fork-join structure of partitioned
search.  The model's service demands are calibrated from the native
Python engine (:mod:`repro.core.calibration`).
"""

from repro.cluster.broker import Broker, FanoutQueryRecord, ReplicaSelection
from repro.cluster.fanout import (
    FanoutConfig,
    FanoutResult,
    run_fanout_open_loop,
)
from repro.cluster.hetero import (
    HeterogeneousConfig,
    HeterogeneousResult,
    run_heterogeneous_open_loop,
)
from repro.cluster.results import QueryRecord, SimulationResult
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.cluster.simulation import (
    ClusterConfig,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "QueryRecord",
    "SimulationResult",
    "PartitionModelConfig",
    "SimulatedServer",
    "ClusterConfig",
    "run_open_loop",
    "run_closed_loop",
    "FanoutConfig",
    "FanoutQueryRecord",
    "FanoutResult",
    "run_fanout_open_loop",
    "Broker",
    "ReplicaSelection",
    "HeterogeneousConfig",
    "HeterogeneousResult",
    "run_heterogeneous_open_loop",
]
