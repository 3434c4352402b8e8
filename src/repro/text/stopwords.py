"""English stopword list used by the default analyzer.

This is the classic Lucene/Solr English stopword set, which is what the
web search benchmark's index serving node ships with.  Stopwords matter
for the characterization study: they are the most frequent terms in a
Zipfian vocabulary, so removing them truncates the extreme head of the
posting-list length distribution.
"""

from __future__ import annotations

from typing import FrozenSet

#: The Lucene ``EnglishAnalyzer`` default stopword set.
DEFAULT_STOPWORDS: FrozenSet[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by",
        "for", "if", "in", "into", "is", "it", "no", "not", "of",
        "on", "or", "such", "that", "the", "their", "then", "there",
        "these", "they", "this", "to", "was", "will", "with",
    }
)
