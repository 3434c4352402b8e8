"""Per-query service demand models.

A query's *service demand* is the CPU work it requires, expressed in
seconds on the reference core (the big server's core).  The simulator
divides demands by a server's ``core_speed`` to get wall-clock service
time.  The models:

- :class:`LognormalDemand` — the parametric fit of measured native-engine
  service times;
- :class:`IndexDerivedDemand` — derive each query's demand from index
  statistics (``base + per_posting × matched postings volume``), which
  preserves the query-identity ↔ cost correlation for popularity-aware
  studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol, Sequence

import numpy as np

from repro.corpus.querylog import Query, QueryLog
from repro.index.inverted import InvertedIndex
from repro.search.query import QueryParser


class ServiceDemandModel(Protocol):
    """Generates per-query reference-core service demands (seconds)."""

    def demands(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``num_queries`` demand samples."""
        ...

    def mean_demand(self) -> float:
        """Expected demand per query (used for load planning)."""
        ...


@dataclass(frozen=True)
class ExponentialDemand:
    """Memoryless demand — the M/M/c validation workload.

    Not a realistic search service-time model (search times are
    log-normal-ish); it exists because exponential service times admit
    closed-form queueing results (:mod:`repro.analysis.queueing`)
    against which the simulator is validated.
    """

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean must be positive")

    def demands(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        return rng.exponential(self.mean, size=num_queries)

    def mean_demand(self) -> float:
        return self.mean


@dataclass(frozen=True)
class LognormalDemand:
    """Log-normal demand with given log-space parameters."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def demands(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        return rng.lognormal(self.mu, self.sigma, size=num_queries)

    def mean_demand(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2.0))


@dataclass
class IndexDerivedDemand:
    """Demands derived from each query's matched postings volume.

    ``demand(q) = base + per_posting × volume(q)``, with the query
    stream drawn from the log's Zipfian popularity model.  This keeps
    the popular-query/expensive-query correlation that purely parametric
    models erase.
    """

    index: InvertedIndex
    query_log: QueryLog
    base_seconds: float
    per_posting_seconds: float
    _volumes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_seconds < 0 or self.per_posting_seconds < 0:
            raise ValueError("calibration coefficients must be non-negative")
        parser = QueryParser(self.index.analyzer)
        volumes = np.empty(len(self.query_log), dtype=np.float64)
        for query in self.query_log:
            parsed = parser.parse(query.text)
            volumes[query.query_id] = self.index.matched_postings_volume(
                list(parsed.terms)
            )
        self._volumes = volumes

    def demand_of(self, query: Query) -> float:
        """Demand of one specific query from the log."""
        return float(
            self.base_seconds
            + self.per_posting_seconds * self._volumes[query.query_id]
        )

    def demands(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        stream = self.query_log.sample_stream(num_queries, rng)
        return np.array([self.demand_of(query) for query in stream])

    def mean_demand(self) -> float:
        weights = np.array(
            [
                self.query_log.popularity(query_id)
                for query_id in range(len(self.query_log))
            ]
        )
        expected_volume = float((weights * self._volumes).sum())
        return self.base_seconds + self.per_posting_seconds * expected_volume
