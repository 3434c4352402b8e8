"""Synthetic query-log generation.

The benchmark's load driver replays a query log.  Two skews in real
logs matter for the paper's studies and are both reproduced here:

1. **Query popularity is Zipfian** — a few queries account for most of
   the traffic (exponent ≈ 0.85 in published web-log studies).
2. **Query length mix** — most web queries have 1–3 terms; the default
   mix below follows the classic Excite/AltaVista log measurements.

Query *terms* are drawn from the same Zipfian vocabulary as documents,
which preserves the crucial correlation: popular query terms have long
posting lists, so some queries are intrinsically much more expensive
than others.  That per-query cost skew is the origin of the service-time
tail that intra-server partitioning attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.corpus.vocabulary import Vocabulary
from repro.corpus.zipf import ZipfSampler

#: Query term-count mix from classic web query-log studies.
DEFAULT_TERM_COUNT_MIX: Tuple[Tuple[int, float], ...] = (
    (1, 0.25),
    (2, 0.35),
    (3, 0.22),
    (4, 0.11),
    (5, 0.05),
    (6, 0.02),
)

#: Zipf exponent used for drawing query terms from the vocabulary.
#: Slightly below the document exponent: users query mid-frequency
#: terms a bit more than raw corpus frequency predicts.
TERM_EXPONENT = 0.9


@dataclass(frozen=True)
class Query:
    """A single search query.

    Attributes
    ----------
    query_id:
        Dense id within the log's unique-query set.
    text:
        Raw query string, as a user would type it.
    """

    query_id: int
    text: str

    @property
    def raw_terms(self) -> List[str]:
        """Whitespace-split raw terms (pre-analysis)."""
        return self.text.split()


@dataclass(frozen=True)
class QueryLogConfig:
    """Parameters of the synthetic query log.

    Attributes
    ----------
    num_unique_queries:
        Size of the unique-query set.
    popularity_exponent:
        Zipf exponent of query popularity (traffic share of each unique
        query).  Web logs measure ≈ 0.85.
    term_count_mix:
        ``(term_count, probability)`` pairs; probabilities must sum to 1.
    seed:
        RNG seed for generating the unique-query set.
    """

    num_unique_queries: int = 2_000
    popularity_exponent: float = 0.85
    term_count_mix: Tuple[Tuple[int, float], ...] = DEFAULT_TERM_COUNT_MIX
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_unique_queries <= 0:
            raise ValueError("num_unique_queries must be positive")
        total = sum(probability for _, probability in self.term_count_mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"term_count_mix must sum to 1, sums to {total}")
        if any(count <= 0 for count, _ in self.term_count_mix):
            raise ValueError("term counts must be positive")


@dataclass
class QueryLog:
    """A unique-query set plus a Zipfian popularity model over it."""

    queries: List[Query]
    popularity_exponent: float = 0.85
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("query log must contain at least one query")
        from repro.corpus.zipf import zipf_weights

        self._weights = zipf_weights(len(self.queries), self.popularity_exponent)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __getitem__(self, index: int) -> Query:
        return self.queries[index]

    def popularity(self, query_id: int) -> float:
        """Traffic share of the query at ``query_id`` (rank order)."""
        return float(self._weights[query_id])

    def sample_stream(self, count: int, rng: np.random.Generator) -> List[Query]:
        """Draw ``count`` queries according to the popularity model."""
        if count < 0:
            raise ValueError("count must be non-negative")
        sampler = ZipfSampler(len(self.queries), self.popularity_exponent, rng)
        return [self.queries[rank] for rank in sampler.sample_many(count)]

    def term_count_histogram(self) -> Dict[int, int]:
        """Histogram of term counts over the unique-query set."""
        histogram: Dict[int, int] = {}
        for query in self.queries:
            count = len(query.raw_terms)
            histogram[count] = histogram.get(count, 0) + 1
        return histogram


class QueryLogGenerator:
    """Builds a deterministic :class:`QueryLog` over a vocabulary."""

    def __init__(self, vocabulary: Vocabulary, config: QueryLogConfig | None = None):
        self.vocabulary = vocabulary
        self.config = config or QueryLogConfig()

    def generate(self) -> QueryLog:
        """Generate the unique-query set described by the config."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        term_sampler = ZipfSampler(
            len(self.vocabulary), TERM_EXPONENT, rng
        )
        counts, probabilities = _split_mix(config.term_count_mix)

        queries: List[Query] = []
        seen = set()
        while len(queries) < config.num_unique_queries:
            # Draw the term count once, then retry term sampling until the
            # text is unique.  Re-drawing the count on collisions would
            # bias the mix against short queries (they collide far more
            # often under a Zipfian term distribution).
            term_count = int(rng.choice(counts, p=probabilities))
            text = None
            for _ in range(500):
                ranks = _distinct_ranks(term_sampler, term_count)
                candidate = " ".join(self.vocabulary.word(rank) for rank in ranks)
                if candidate not in seen:
                    text = candidate
                    break
            if text is None:
                # The term-count stratum is saturated (tiny vocabulary);
                # fall back to re-drawing the count so generation always
                # terminates.
                continue
            seen.add(text)
            queries.append(Query(query_id=len(queries), text=text))
        return QueryLog(
            queries=queries, popularity_exponent=config.popularity_exponent
        )


def _split_mix(
    mix: Sequence[Tuple[int, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    counts = np.array([count for count, _ in mix], dtype=np.int64)
    probabilities = np.array([probability for _, probability in mix])
    return counts, probabilities / probabilities.sum()


def _distinct_ranks(sampler: ZipfSampler, count: int) -> List[int]:
    """Draw ``count`` distinct vocabulary ranks (rejection sampling)."""
    ranks: List[int] = []
    seen = set()
    # With a 50k vocabulary, collisions are rare outside the extreme
    # head; cap attempts to keep this provably terminating.
    attempts = 0
    while len(ranks) < count and attempts < count * 50:
        rank = sampler.sample()
        attempts += 1
        if rank not in seen:
            seen.add(rank)
            ranks.append(rank)
    while len(ranks) < count:
        # Fallback: fill with the first unused ranks.
        for rank in range(sampler.size):
            if rank not in seen:
                seen.add(rank)
                ranks.append(rank)
                break
    return ranks
