"""The paper's studies: characterization, partitioning, low power.

This package is the reproduction's primary contribution layer.  Each
module implements one study from the paper's evaluation:

- :mod:`characterization` — service-time distributions and their
  drivers (figures F1/F2, table T2);
- :mod:`calibration` — fits the simulator's service-demand model to
  native-engine measurements (the native → simulated bridge);
- :mod:`loadsweep` — response time vs. offered load (figure F3);
- :mod:`partitioning` — the intra-server partition sweep (figure F4);
- :mod:`capacity` — QoS-bounded maximum throughput (figure F5);
- :mod:`lowpower` — big vs. low-power server comparison and energy
  (figures F6/F7);
- :mod:`breakdown` — latency component breakdown (figure F8);
- :mod:`reporting` — plain-text tables/series shared by all benchmarks.
"""

from repro.core.calibration import (
    CalibrationResult,
    calibrate_from_measurements,
    calibrate_isn,
    cost_model_from_calibration,
    demand_model_from_calibration,
)
from repro.core.capacity import CapacityPoint, capacity_vs_partitions, find_max_qps
from repro.core.characterization import (
    IndexScalingRow,
    ServiceTimeCharacterization,
    TermCountBucket,
    VolumeBucket,
    characterize_service_times,
    index_scaling_study,
    service_time_by_term_count,
    service_time_by_volume,
)
from repro.core.breakdown import BreakdownPoint, breakdown_vs_partitions
from repro.core.bursts import BurstPoint, burst_study, make_mmpp
from repro.core.caching import (
    CachingPoint,
    caching_latency_study,
    hit_rate_vs_capacity,
)
from repro.core.dvfs import DvfsPoint, dvfs_study
from repro.core.fanout import FanoutPoint, fanout_scaling_study
from repro.core.hetero import FleetPoint, fleet_composition_study
from repro.core.hiccups import HiccupPoint, hiccup_study
from repro.core.loadsweep import LoadPoint, run_load_sweep
from repro.core.lowpower import (
    EnergyPoint,
    ServerComparisonPoint,
    compare_servers_vs_partitions,
    matched_qos_energy,
)
from repro.core.partitioning import (
    ImbalancePoint,
    PartitioningPoint,
    imbalance_sensitivity,
    run_partitioning_sweep,
)
from repro.core.provisioning import ProvisioningRow, provisioning_study
from repro.core.replication import ReplicationPoint, replication_policy_study
from repro.core.report import ReportOptions, characterization_report
from repro.core.reporting import format_series, format_table
from repro.core.strategies import StrategyBalance, partition_balance_study

__all__ = [
    "CalibrationResult",
    "calibrate_from_measurements",
    "calibrate_isn",
    "cost_model_from_calibration",
    "demand_model_from_calibration",
    "ServiceTimeCharacterization",
    "TermCountBucket",
    "VolumeBucket",
    "characterize_service_times",
    "service_time_by_term_count",
    "service_time_by_volume",
    "index_scaling_study",
    "LoadPoint",
    "run_load_sweep",
    "FanoutPoint",
    "fanout_scaling_study",
    "DvfsPoint",
    "dvfs_study",
    "HiccupPoint",
    "hiccup_study",
    "FleetPoint",
    "fleet_composition_study",
    "PartitioningPoint",
    "run_partitioning_sweep",
    "ImbalancePoint",
    "imbalance_sensitivity",
    "CapacityPoint",
    "find_max_qps",
    "capacity_vs_partitions",
    "EnergyPoint",
    "IndexScalingRow",
    "ServerComparisonPoint",
    "compare_servers_vs_partitions",
    "matched_qos_energy",
    "BreakdownPoint",
    "breakdown_vs_partitions",
    "CachingPoint",
    "caching_latency_study",
    "hit_rate_vs_capacity",
    "format_table",
    "format_series",
    "StrategyBalance",
    "partition_balance_study",
    "ReplicationPoint",
    "replication_policy_study",
    "BurstPoint",
    "burst_study",
    "make_mmpp",
    "ProvisioningRow",
    "provisioning_study",
    "ReportOptions",
    "characterization_report",
]
