"""Demand model with a simulated result cache in front.

Models the front-end result cache for the discrete-event studies: the
query stream is drawn from the log's Zipfian popularity model, an LRU
over query identities decides hit/miss, and a hit costs only
``hit_cost_seconds`` (a cache probe plus response copy) instead of the
full index-traversal demand.  This is the standard way to study the
interaction of caching with tail latency: hits thin out the *body* of
the demand distribution while the tail — the long, less-popular
queries that keep missing — remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.lru import LRUCache
from repro.workload.servicetime import IndexDerivedDemand


@dataclass
class CachedDemand:
    """Wraps :class:`IndexDerivedDemand` with an LRU over query ids.

    Attributes
    ----------
    base:
        The uncached per-query demand model (carries the query log and
        each query's index-derived cost).
    cache_capacity:
        Entries in the simulated result cache.
    hit_cost_seconds:
        Demand charged for a cache hit.
    """

    base: IndexDerivedDemand
    cache_capacity: int
    hit_cost_seconds: float = 5e-5

    def __post_init__(self) -> None:
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.hit_cost_seconds < 0:
            raise ValueError("hit_cost_seconds must be non-negative")

    def demands(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        """Sample a stream and price each query through the cache."""
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        stream = self.base.query_log.sample_stream(num_queries, rng)
        cache: LRUCache[int, bool] = LRUCache(self.cache_capacity)
        demands = np.empty(num_queries, dtype=np.float64)
        for position, query in enumerate(stream):
            if cache.get(query.query_id) is not None:
                demands[position] = self.hit_cost_seconds
            else:
                demands[position] = self.base.demand_of(query)
                cache.put(query.query_id, True)
        return demands

    def mean_demand(self) -> float:
        """Steady-state expected demand under the cache.

        Estimated by simulating a long stream (the LRU hit rate under
        Zipf popularity has no clean closed form); deterministic given
        the fixed internal seed.
        """
        rng = np.random.default_rng(123456789)
        warm = self.demands(max(20_000, self.cache_capacity * 20), rng)
        # Skip the cold-start prefix where the cache is still filling.
        return float(warm[len(warm) // 4 :].mean())

    def measured_hit_rate(self, num_queries: int = 20_000, seed: int = 0) -> float:
        """Steady-state hit rate over a sampled stream."""
        rng = np.random.default_rng(seed)
        stream = self.base.query_log.sample_stream(num_queries, rng)
        cache: LRUCache[int, bool] = LRUCache(self.cache_capacity)
        hits = 0
        start_counting = num_queries // 4
        counted = 0
        for position, query in enumerate(stream):
            hit = cache.get(query.query_id) is not None
            if not hit:
                cache.put(query.query_id, True)
            if position >= start_counting:
                counted += 1
                hits += int(hit)
        return hits / counted if counted else 0.0
