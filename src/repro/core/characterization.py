"""Service-time characterization of the native benchmark.

Implements the paper's characterization figures:

- **F1** — the service-time distribution: heavy-tailed, log-normal
  body, large p99/p50 ratio;
- **F2** — what drives service time: query term count and, more
  fundamentally, the matched postings volume;
- **T2** — how service time scales with index (corpus) size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.distributions import ExponentialFit, LognormalFit, fit_exponential, fit_lognormal
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.querylog import QueryLog, QueryLogGenerator
from repro.engine.driver import QueryMeasurement, replay_serial
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index
from repro.index.stats import IndexStatistics, compute_statistics
from repro.metrics.summary import LatencySummary, summarize


@dataclass(frozen=True)
class ServiceTimeCharacterization:
    """The F1 result: distribution statistics and parametric fits."""

    summary: LatencySummary
    lognormal: LognormalFit
    exponential: ExponentialFit
    measurements: List[QueryMeasurement]

    @property
    def tail_ratio(self) -> float:
        """p99 / p50 of the measured service times."""
        return self.summary.tail_ratio

    @property
    def lognormal_fits_better(self) -> bool:
        """True when log-normal beats exponential on KS distance."""
        return self.lognormal.ks_distance < self.exponential.ks_distance

    def samples(self) -> np.ndarray:
        """Measured service times in seconds."""
        return np.array(
            [measurement.service_seconds for measurement in self.measurements]
        )


def characterize_service_times(
    isn: IndexServingNode,
    query_log: QueryLog,
    num_queries: int = 500,
    repeats: int = 1,
    seed: int = 0,
) -> ServiceTimeCharacterization:
    """Replay a popularity-weighted stream serially and characterize it."""
    if num_queries <= 0:
        raise ValueError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    stream = query_log.sample_stream(num_queries, rng)
    measurements = replay_serial(isn, stream, repeats=repeats)
    times = [measurement.service_seconds for measurement in measurements]
    return ServiceTimeCharacterization(
        summary=summarize(times),
        lognormal=fit_lognormal(times),
        exponential=fit_exponential(times),
        measurements=measurements,
    )


@dataclass(frozen=True)
class TermCountBucket:
    """F2a row: service-time statistics for queries of one term count."""

    term_count: int
    num_queries: int
    mean_seconds: float
    p99_seconds: float
    mean_volume: float


def service_time_by_term_count(
    measurements: Sequence[QueryMeasurement],
) -> List[TermCountBucket]:
    """Group measurements by raw query term count."""
    if not measurements:
        raise ValueError("no measurements to bucket")
    buckets: dict = {}
    for measurement in measurements:
        buckets.setdefault(measurement.num_raw_terms, []).append(measurement)
    rows: List[TermCountBucket] = []
    for term_count in sorted(buckets):
        group = buckets[term_count]
        times = np.array([m.service_seconds for m in group])
        rows.append(
            TermCountBucket(
                term_count=term_count,
                num_queries=len(group),
                mean_seconds=float(times.mean()),
                p99_seconds=float(np.percentile(times, 99, method="lower")),
                mean_volume=float(
                    np.mean([m.matched_volume for m in group])
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class VolumeBucket:
    """F2b row: service-time statistics per matched-volume quantile."""

    low_volume: int
    high_volume: int
    num_queries: int
    mean_seconds: float


def service_time_by_volume(
    measurements: Sequence[QueryMeasurement], num_buckets: int = 4
) -> List[VolumeBucket]:
    """Group measurements into matched-volume quantile buckets."""
    if not measurements:
        raise ValueError("no measurements to bucket")
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    ordered = sorted(measurements, key=lambda m: m.matched_volume)
    boundaries = np.linspace(0, len(ordered), num_buckets + 1).astype(int)
    rows: List[VolumeBucket] = []
    for bucket_index in range(num_buckets):
        group = ordered[boundaries[bucket_index] : boundaries[bucket_index + 1]]
        if not group:
            continue
        rows.append(
            VolumeBucket(
                low_volume=group[0].matched_volume,
                high_volume=group[-1].matched_volume,
                num_queries=len(group),
                mean_seconds=float(
                    np.mean([m.service_seconds for m in group])
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class IndexScalingRow:
    """T2 row: one corpus size's index and service-time statistics."""

    num_documents: int
    index_stats: IndexStatistics
    service_summary: LatencySummary


def index_scaling_study(
    corpus_configs: Sequence[CorpusConfig],
    queries_per_size: int = 100,
    repeats: int = 1,
    seed: int = 0,
) -> List[IndexScalingRow]:
    """Build an index per corpus config and characterize each (T2).

    All configs should share the same vocabulary so the query log stays
    comparable across sizes.
    """
    if not corpus_configs:
        raise ValueError("need at least one corpus config")
    rows: List[IndexScalingRow] = []
    for config in corpus_configs:
        generator = CorpusGenerator(config)
        collection = generator.generate()
        partitioned = partition_index(collection, 1)
        query_log = QueryLogGenerator(generator.vocabulary).generate()
        with IndexServingNode(partitioned) as isn:
            characterization = characterize_service_times(
                isn,
                query_log,
                num_queries=queries_per_size,
                repeats=repeats,
                seed=seed,
            )
        rows.append(
            IndexScalingRow(
                num_documents=len(collection),
                index_stats=compute_statistics(
                    partitioned[0].index, include_compressed_size=False
                ),
                service_summary=characterization.summary,
            )
        )
    return rows
