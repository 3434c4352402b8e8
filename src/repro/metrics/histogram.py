"""Empirical CDFs for latency distributions."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def cdf_points(
    samples: Sequence[float], num_points: int = 100
) -> List[Tuple[float, float]]:
    """Return ``(value, cumulative_fraction)`` pairs of the empirical CDF.

    Evenly spaced in probability, so tails get the same resolution as
    the body when plotted.
    """
    data = np.sort(np.asarray(samples, dtype=np.float64))
    if data.size == 0:
        raise ValueError("cannot compute a CDF of zero samples")
    if num_points <= 1:
        raise ValueError("num_points must be at least 2")
    fractions = np.linspace(0.0, 1.0, num_points)
    positions = np.minimum(
        (fractions * (data.size - 1)).round().astype(int), data.size - 1
    )
    return [
        (float(data[position]), float(fraction))
        for position, fraction in zip(positions, fractions)
    ]
