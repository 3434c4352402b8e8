"""Relevance scoring functions.

The benchmark ranks with Lucene's similarity; we provide Okapi BM25
(Lucene's successor default and the standard in the literature) plus a
classic TF-IDF for comparison.  Scorers are stateless value objects
parameterized by collection statistics, so a
:class:`~repro.search.executor.Searcher` builds one scorer for its index
when it is constructed and every query it evaluates shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol

import numpy as np


class Scorer(Protocol):
    """Per-term document scorer protocol."""

    def idf(self, document_frequency: int) -> float:
        """Inverse document frequency weight of a term."""
        ...

    def score(self, term_frequency: int, doc_length: int, idf: float) -> float:
        """Score one (term, document) match."""
        ...


@dataclass(frozen=True)
class BM25Scorer:
    """Okapi BM25 with the standard Robertson parameters.

    Attributes
    ----------
    num_documents:
        ``N`` of the collection (or shard — the benchmark scores with
        shard-local statistics).
    average_doc_length:
        Mean analyzed document length of the collection/shard.
    k1:
        Term-frequency saturation; 1.2 is the classic default.
    b:
        Length normalization strength; 0.75 is the classic default.
    term_idf:
        Optional per-term idf overrides.  When set, traversal weights a
        term with ``term_idf[term]`` instead of the idf derived from the
        (shard-)local document frequency — this is **global-statistics
        scoring** (distributed idf): all shards of a partitioned index
        score with collection-wide statistics, making partitioned search
        return exactly the ranking of the unpartitioned index.
    """

    num_documents: int
    average_doc_length: float
    k1: float = 1.2
    b: float = 0.75
    term_idf: Optional[Mapping[str, float]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.num_documents < 0:
            raise ValueError("num_documents must be non-negative")
        if self.k1 < 0 or not 0.0 <= self.b <= 1.0:
            raise ValueError("invalid BM25 parameters")

    def idf(self, document_frequency: int) -> float:
        """Lucene-style non-negative BM25 idf."""
        return math.log(
            1.0
            + (self.num_documents - document_frequency + 0.5)
            / (document_frequency + 0.5)
        )

    def score(self, term_frequency: int, doc_length: int, idf: float) -> float:
        """BM25 contribution of one term match."""
        if term_frequency <= 0:
            return 0.0
        average = self.average_doc_length if self.average_doc_length > 0 else 1.0
        normalizer = self.k1 * (
            1.0 - self.b + self.b * doc_length / average
        )
        return idf * term_frequency * (self.k1 + 1.0) / (term_frequency + normalizer)

    def score_block(
        self,
        frequencies: np.ndarray,
        doc_lengths: np.ndarray,
        idf: float | np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`score` over a block of postings.

        Evaluates the identical float64 expression element-wise, in the
        same operation order as the scalar path, so the returned array
        is bit-for-bit equal to per-posting :meth:`score` calls — the
        property the block-max traversal's "bit-identical to exhaustive
        DAAT" contract rests on.  ``frequencies`` must be positive
        (postings lists never store zero counts).  ``idf`` is one weight
        or one per posting.
        """
        return self.score_normalized(
            frequencies, self.length_normalizer(doc_lengths), idf
        )

    def length_normalizer(self, doc_lengths: np.ndarray) -> np.ndarray:
        """``k1 · (1 − b + b · len / avgdl)`` per document length.

        The only part of :meth:`score` that depends on the document
        alone, so a searcher computes it once for every document of
        its index and gathers it per posting.
        """
        average = self.average_doc_length if self.average_doc_length > 0 else 1.0
        return self.k1 * (
            1.0 - self.b + self.b * doc_lengths.astype(np.float64) / average
        )

    def score_normalized(
        self,
        frequencies: np.ndarray,
        normalizer: np.ndarray,
        idf: float | np.ndarray,
    ) -> np.ndarray:
        """:meth:`score_block` from each posting's :meth:`length_normalizer`."""
        frequencies = frequencies.astype(np.float64)
        scores = idf * frequencies
        scores *= self.k1 + 1.0
        scores /= np.add(frequencies, normalizer, out=frequencies)
        return scores

    def max_score(self, idf: float) -> float:
        """Upper bound of :meth:`score` over any document (tf → ∞, b-term → 0).

        Used by WAND-style early termination as a safe per-term bound.
        For ``k1 > 0`` the bound is a strict supremum: no finite tf
        attains it, which is what lets the pivot test use a strict
        comparison without dropping threshold-tied documents.
        """
        return idf * (self.k1 + 1.0)


def _vector_scores(
    scorer: Scorer,
    frequencies: np.ndarray,
    doc_lengths: np.ndarray,
    idf: float | np.ndarray,
) -> np.ndarray:
    """Vectorized scoring of postings: one term's, or several terms'
    concatenated with one ``idf`` per posting.

    Scorers exposing ``score_block`` (BM25) get the closed-form numpy
    path; any other scorer falls back to a per-posting Python loop
    (still correct, just slower).
    """
    score_block = getattr(scorer, "score_block", None)
    if score_block is not None:
        return score_block(frequencies, doc_lengths, idf)
    return np.array(
        [
            scorer.score(frequency, length, weight)
            for frequency, length, weight in zip(
                frequencies.tolist(),
                doc_lengths.tolist(),
                np.broadcast_to(idf, frequencies.shape).tolist(),
            )
        ],
        dtype=np.float64,
    )


def resolve_idf(scorer: Scorer, term: str, document_frequency: int) -> float:
    """Return the idf weight for ``term``.

    Honors the scorer's ``term_idf`` override table when present (global-
    statistics scoring); otherwise derives the idf from the supplied
    (typically shard-local) document frequency.
    """
    overrides = getattr(scorer, "term_idf", None)
    if overrides is not None:
        override = overrides.get(term)
        if override is not None:
            return override
    return scorer.idf(document_frequency)


def global_bm25_scorer(
    num_documents: int,
    average_doc_length: float,
    term_document_frequencies: Mapping[str, int],
    k1: float = 1.2,
    b: float = 0.75,
) -> BM25Scorer:
    """Build a BM25 scorer carrying collection-global term idfs.

    ``term_document_frequencies`` maps each term to its document
    frequency in the *full* collection (e.g. summed over all shards of a
    partitioned index).  Shards scoring with the returned scorer rank
    exactly as an unpartitioned index would.
    """
    reference = BM25Scorer(
        num_documents=num_documents,
        average_doc_length=average_doc_length,
        k1=k1,
        b=b,
    )
    term_idf = {
        term: reference.idf(document_frequency)
        for term, document_frequency in term_document_frequencies.items()
    }
    return BM25Scorer(
        num_documents=num_documents,
        average_doc_length=average_doc_length,
        k1=k1,
        b=b,
        term_idf=term_idf,
    )


@dataclass(frozen=True)
class TfIdfScorer:
    """Classic log-tf × idf scoring (for baseline comparisons)."""

    num_documents: int
    average_doc_length: float = 0.0  # unused; kept for protocol symmetry

    def idf(self, document_frequency: int) -> float:
        """Smoothed idf: ``log(1 + N / (1 + df))``."""
        return math.log(1.0 + self.num_documents / (1.0 + document_frequency))

    def score(self, term_frequency: int, doc_length: int, idf: float) -> float:
        """``(1 + log tf) * idf``; doc length is ignored."""
        if term_frequency <= 0:
            return 0.0
        return (1.0 + math.log(term_frequency)) * idf

    def max_score(self, idf: float) -> float:
        """A loose but safe upper bound for early termination.

        tf is bounded by the longest document; we use 1e6 as a corpus-
        independent cap, giving ``(1 + ln 1e6) * idf``.
        """
        return (1.0 + math.log(1e6)) * idf
