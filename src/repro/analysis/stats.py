"""General statistics: least-squares regression."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def linear_fit(
    x: Sequence[float], y: Sequence[float]
) -> Tuple[float, float, float]:
    """Least-squares line ``y ≈ intercept + slope * x``.

    Returns ``(intercept, slope, r_squared)``.  Used to calibrate the
    service-demand model (service time vs. matched postings volume).
    """
    x_data = np.asarray(x, dtype=np.float64)
    y_data = np.asarray(y, dtype=np.float64)
    if x_data.size != y_data.size:
        raise ValueError("x and y must have equal length")
    if x_data.size < 2:
        raise ValueError("need at least two points")
    slope, intercept = np.polyfit(x_data, y_data, 1)
    predictions = intercept + slope * x_data
    total = float(((y_data - y_data.mean()) ** 2).sum())
    residual = float(((y_data - predictions) ** 2).sum())
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return float(intercept), float(slope), r_squared
