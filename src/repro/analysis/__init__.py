"""Statistical analysis helpers for the characterization study."""

from repro.analysis.distributions import (
    ExponentialFit,
    LognormalFit,
    fit_exponential,
    fit_lognormal,
)
from repro.analysis.queueing import MMcMetrics, erlang_c, mmc_metrics
from repro.analysis.stats import linear_fit

__all__ = [
    "LognormalFit",
    "ExponentialFit",
    "fit_lognormal",
    "fit_exponential",
    "linear_fit",
    "MMcMetrics",
    "erlang_c",
    "mmc_metrics",
]
