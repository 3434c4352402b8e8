"""Bit-level pins for the mixed big/little fleet (F22, F29b).

Each case is a small seeded heterogeneous fleet — one per router and
edge of the routing rules — pinned to a sha256 over every record's
``(client_send, latency)``, the per-server power and the horizon, plus
the routed counts.  The constants were captured from the fleet's own
dispatch loop before it became a driver of
:class:`repro.cluster.broker.Broker`; the broker has to reproduce every
one of them byte for byte.  A pin that moves is a behaviour change:
either explain it and re-capture, or fix the regression.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.hetero import (
    HeterogeneousConfig,
    run_heterogeneous_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.predict.predictor import ServiceTimePredictor
from repro.predict.scheduler import DeadlineScheduler
from repro.servers.catalog import BIG_SERVER, SMALL_SERVER
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
PREDICTOR = ServiceTimePredictor(
    base_seconds=1e-4,
    per_term_seconds=5e-5,
    per_posting_seconds=1e-6,
    residual_log_sigma=0.25,
)


def _fleet(
    seed,
    num_big=1,
    num_little=3,
    partitions=4,
    rate=400.0,
    threshold=None,
    **scheduler,
):
    config = HeterogeneousConfig(
        big_spec=BIG_SERVER,
        num_big=num_big,
        little_spec=SMALL_SERVER,
        num_little=num_little,
        partitioning=PartitionModelConfig(num_partitions=partitions),
        demand_threshold=threshold,
        scheduler=(
            DeadlineScheduler(predictor=PREDICTOR, **scheduler)
            if scheduler
            else None
        ),
    )
    scenario = WorkloadScenario(
        arrivals=PoissonArrivals(rate), demands=DEMAND, num_queries=800
    )
    result = run_heterogeneous_open_loop(config, scenario, seed=seed)
    assert len(result.records) == 800
    digest = hashlib.sha256()
    digest.update(
        np.array(
            [(r.client_send, r.latency) for r in result.records],
            dtype=np.float64,
        ).tobytes()
    )
    digest.update(
        np.array(result.per_server_power_watts, dtype=np.float64).tobytes()
    )
    digest.update(np.float64(result.horizon).tobytes())
    return (
        digest.hexdigest()[:16],
        result.routed_to_big,
        result.routed_to_little,
    )


FLEETS = {
    "spray": dict(),
    "threshold": dict(threshold=0.02),
    "all_big": dict(num_big=2, num_little=0, threshold=0.0),
    "empty_big_group": dict(num_big=0, num_little=4, threshold=0.0),
    "one_server": dict(num_big=0, num_little=1, rate=120.0),
    "deadline": dict(deadline_s=0.03),
    "infeasible_deadline": dict(deadline_s=1e-4),
    "long_query_threshold": dict(long_query_threshold_s=0.01),
    "one_partition": dict(partitions=1, threshold=0.02),
}

GOLDEN = {
    ("all_big", 0): ("756692f5cdab6aed", 800, 0),
    ("all_big", 5): ("65a943b957d1d989", 800, 0),
    ("deadline", 0): ("61e76d2a50f0034f", 45, 755),
    ("deadline", 5): ("bb650da821fba750", 28, 772),
    ("empty_big_group", 0): ("b77e899380cb11dd", 0, 800),
    ("empty_big_group", 5): ("4f59eb67e88829cf", 0, 800),
    ("infeasible_deadline", 0): ("efd5bf277e794d37", 708, 92),
    ("infeasible_deadline", 5): ("bd22497fbee6df08", 695, 105),
    ("long_query_threshold", 0): ("b4090d0fbbad4d09", 331, 469),
    ("long_query_threshold", 5): ("ada71eb90655d959", 332, 468),
    ("one_partition", 0): ("74baf52b807b8ed3", 153, 647),
    ("one_partition", 5): ("0301f64cfe02b848", 152, 648),
    ("one_server", 0): ("337cd49d72ddaf50", 0, 800),
    ("one_server", 5): ("5a9bef045f1d9d1e", 0, 800),
    ("spray", 0): ("2daf82ae3c1b361f", 213, 587),
    ("spray", 5): ("9ceb8fc2a53df5f5", 209, 591),
    ("threshold", 0): ("8ee97e287683ebed", 153, 647),
    ("threshold", 5): ("f868e8af8dd3318b", 152, 648),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_golden(fleet, seed):
    assert _fleet(seed, **FLEETS[fleet]) == GOLDEN[(fleet, seed)]
