"""The calibrated linear service-time model.

The characterization's affine work model — ``time ≈ base +
per_posting × volume`` — already explains most service-time variance
(fig2); the predictor refits that model on admission-time features
(term count, summed posting-list lengths) and records a *log-space
residual error model*: measured/predicted ratios are close to
log-normal, with standard deviation σ.

Fitting is a deterministic constrained least squares: coefficients are
clamped non-negative (more terms or more postings never make a query
cheaper), which is also what makes the prediction provably monotone in
``total_postings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.predict.features import QueryFeatures

__all__ = ["ServiceTimePredictor"]

#: Floor for predictions and relative-error denominators: a query
#: always pays the parse/setup cost, never literally zero seconds.
_MIN_PREDICTION_S = 1e-9


@dataclass(frozen=True)
class ServiceTimePredictor:
    """``predicted = base + per_term·terms + per_posting·postings``.

    ``residual_log_sigma`` is the standard deviation of
    ``ln(measured / predicted)`` on the training set — the noise model
    the DES applies when simulating a *predicted*-demand router (the
    simulator knows each query's true demand; the predictor's realism
    is exactly this error distribution).
    """

    base_seconds: float
    per_term_seconds: float
    per_posting_seconds: float
    residual_log_sigma: float = 0.0
    num_observations: int = 0

    def __post_init__(self) -> None:
        for name in ("base_seconds", "per_term_seconds", "per_posting_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.residual_log_sigma < 0:
            raise ValueError("residual_log_sigma must be non-negative")

    @classmethod
    def fit(
        cls,
        features: Sequence[QueryFeatures],
        measured_seconds: Sequence[float],
    ) -> "ServiceTimePredictor":
        """Relative least-squares fit with non-negative coefficients.

        Deterministic: ``lstsq`` on the ``[1, terms, postings]`` design
        with each row weighted by ``1/measured`` — minimizing the
        *relative* residual ``(predicted − measured)/measured`` rather
        than the absolute one.  Unweighted least squares lets the many
        expensive queries set the intercept, which over-predicts the
        cheap majority by integer factors (terrible MAPE exactly where
        routing decisions are most frequent); the relative objective
        matches the multiplicative error model the quantile API
        assumes.  Any negative coefficient is pinned to zero and the
        remaining columns refitted (repeat until all are physical).
        """
        if len(features) != len(measured_seconds):
            raise ValueError("features and measurements must align")
        if len(features) < 3:
            raise ValueError("fitting needs at least three measurements")
        times = np.asarray(measured_seconds, dtype=np.float64)
        if np.any(times < 0):
            raise ValueError("service times must be non-negative")
        design = np.column_stack(
            [
                np.ones(len(features)),
                np.array([f.term_count for f in features], dtype=np.float64),
                np.array(
                    [f.total_postings for f in features], dtype=np.float64
                ),
            ]
        )
        weights = 1.0 / np.maximum(times, _MIN_PREDICTION_S)
        weighted_design = design * weights[:, np.newaxis]
        weighted_times = times * weights  # all ones, kept for clarity
        active: List[int] = [0, 1, 2]
        coefficients = np.zeros(3)
        while active:
            solution, *_ = np.linalg.lstsq(
                weighted_design[:, active], weighted_times, rcond=None
            )
            worst = int(np.argmin(solution))
            if solution[worst] >= 0:
                coefficients[:] = 0.0
                coefficients[active] = solution
                break
            active.pop(worst)
        predicted = np.maximum(design @ coefficients, _MIN_PREDICTION_S)
        log_residuals = np.log(np.maximum(times, _MIN_PREDICTION_S) / predicted)
        return cls(
            base_seconds=float(coefficients[0]),
            per_term_seconds=float(coefficients[1]),
            per_posting_seconds=float(coefficients[2]),
            residual_log_sigma=float(np.std(log_residuals)),
            num_observations=len(features),
        )

    def predict(self, features: QueryFeatures) -> float:
        """Point (median-flavoured) service-time prediction in seconds."""
        raw = (
            self.base_seconds
            + self.per_term_seconds * features.term_count
            + self.per_posting_seconds * features.total_postings
        )
        return max(raw, _MIN_PREDICTION_S)

    def mape(
        self,
        features: Sequence[QueryFeatures],
        measured_seconds: Sequence[float],
    ) -> float:
        """Mean absolute percentage error against measurements."""
        if len(features) != len(measured_seconds):
            raise ValueError("features and measurements must align")
        if not features:
            raise ValueError("mape needs at least one measurement")
        errors = [
            abs(self.predict(f) - t) / max(t, _MIN_PREDICTION_S)
            for f, t in zip(features, measured_seconds)
        ]
        return float(np.mean(errors))
