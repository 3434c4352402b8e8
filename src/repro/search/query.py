"""Query parsing and normalization."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Tuple

from repro.text.analyzer import Analyzer, default_analyzer

#: Default result-page size; the benchmark returns 10 hits per query.
DEFAULT_TOP_K = 10


class QueryMode(Enum):
    """Boolean semantics of a multi-term query.

    The benchmark's index serving node evaluates queries disjunctively
    (``OR``) and ranks by score — a document matching any term is a
    candidate.  ``AND`` restricts candidates to documents containing
    every term.
    """

    OR = "or"
    AND = "and"


@dataclass(frozen=True)
class ParsedQuery:
    """An analyzed, executable query.

    Attributes
    ----------
    terms:
        Analyzed terms with duplicates removed, original order kept.
        (Duplicate query terms contribute once, matching Lucene's
        boolean-query deduplication of identical term clauses.)
    mode:
        Boolean semantics (:class:`QueryMode`).
    k:
        Number of results requested.
    """

    terms: Tuple[str, ...]
    mode: QueryMode = QueryMode.OR
    k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

    @property
    def is_empty(self) -> bool:
        """True when analysis removed every term (e.g. all stopwords)."""
        return not self.terms


@dataclass(frozen=True)
class QueryParser:
    """Turns raw query strings into :class:`ParsedQuery` objects.

    Must be constructed with the same analyzer the index was built with;
    :class:`~repro.search.executor.Searcher` does this automatically.
    """

    analyzer: Analyzer = field(default_factory=default_analyzer)

    def parse(
        self,
        text: str,
        mode: QueryMode = QueryMode.OR,
        k: int = DEFAULT_TOP_K,
    ) -> ParsedQuery:
        """Analyze ``text`` and build a query with the given semantics."""
        terms = self.analyzer.analyze(text)
        deduped: List[str] = []
        seen = set()
        for term in terms:
            if term not in seen:
                seen.add(term)
                deduped.append(term)
        return ParsedQuery(terms=tuple(deduped), mode=mode, k=k)
