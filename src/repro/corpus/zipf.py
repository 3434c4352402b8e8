"""Zipf-distributed sampling over a finite rank space.

Web-scale text follows Zipf's law: the r-th most frequent term has
probability proportional to ``1 / r**exponent``.  The posting-list
length skew this induces is the root cause of the heavy service-time
tail the paper characterizes, so the sampler here underpins both the
document generator and the query-log generator.
"""

from __future__ import annotations

import numpy as np


def zipf_weights(size: int, exponent: float) -> np.ndarray:
    """Return normalized Zipf probabilities for ranks ``1..size``.

    Parameters
    ----------
    size:
        Number of ranks (must be positive).
    exponent:
        Zipf exponent ``s >= 0``; 0 gives a uniform distribution.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class ZipfSampler:
    """Draws 0-based ranks from a bounded Zipf distribution.

    Sampling uses inverse-CDF lookup over a precomputed cumulative table,
    so each draw is O(log size) and the whole sampler is deterministic
    given its RNG.
    """

    def __init__(self, size: int, exponent: float, rng: np.random.Generator):
        self._size = size
        self._rng = rng
        self._cdf = np.cumsum(zipf_weights(size, exponent))
        # Guard against floating-point drift: the last entry must be
        # exactly 1.0 so searchsorted can never return ``size``.
        self._cdf[-1] = 1.0

    @property
    def size(self) -> int:
        """Number of ranks in the distribution."""
        return self._size

    def sample(self) -> int:
        """Draw a single 0-based rank."""
        return int(np.searchsorted(self._cdf, self._rng.random(), side="left"))

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` 0-based ranks as an int64 array."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        draws = self._rng.random(count)
        return np.searchsorted(self._cdf, draws, side="left").astype(np.int64)

    def probability(self, rank: int) -> float:
        """Return the probability of the 0-based ``rank``."""
        if not 0 <= rank < self._size:
            raise IndexError(f"rank {rank} out of range [0, {self._size})")
        if rank == 0:
            return float(self._cdf[0])
        return float(self._cdf[rank] - self._cdf[rank - 1])
