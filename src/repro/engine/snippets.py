"""Snippet generation: the result page's highlighted excerpts.

The benchmark's frontend returns a title and a highlighted body
excerpt per hit.  ``SnippetGenerator`` implements the standard
window-scoring approach: slide a fixed-size token window over the
document, score each window by the distinct query terms it covers
(ties: more total matches, then earlier), and render the winner with
``**term**`` highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.corpus.documents import Document
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class Snippet:
    """A rendered excerpt with highlight markers."""

    text: str
    window_start: int
    matched_terms: int


class SnippetGenerator:
    """Builds query-highlighted snippets from raw document text.

    Parameters
    ----------
    analyzer:
        The index's analyzer — raw tokens are normalized through it so
        highlighting matches exactly what the index matched.
    window_tokens:
        Snippet length in raw tokens.
    """

    def __init__(self, analyzer: Analyzer, window_tokens: int = 30):
        if window_tokens <= 0:
            raise ValueError("window_tokens must be positive")
        self.analyzer = analyzer
        self.window_tokens = window_tokens

    def snippet(
        self, document: Document, query_terms: Sequence[str]
    ) -> Snippet:
        """Best-window snippet of ``document`` for the analyzed terms.

        ``query_terms`` must already be analyzer-normalized (take them
        from a :class:`~repro.search.query.ParsedQuery`).  Documents
        with no match return the document's opening window, unhighlighted.
        """
        raw_tokens = self.analyzer.tokenize(document.text)
        if not raw_tokens:
            return Snippet(text="", window_start=0, matched_terms=0)
        terms = set(query_terms)
        # One normalize per distinct raw token of this document.
        normalize = self.analyzer.normalize
        memo = {token: normalize(token) for token in set(raw_tokens)}
        normalized = [memo[token] for token in raw_tokens]
        matches = [token in terms for token in normalized]

        window = min(self.window_tokens, len(raw_tokens))
        best = self._best_window(normalized, matches, terms, window)
        start = best
        rendered: List[str] = []
        for offset in range(start, min(start + window, len(raw_tokens))):
            token = raw_tokens[offset]
            rendered.append(f"**{token}**" if matches[offset] else token)
        matched = len(
            {
                normalized[offset]
                for offset in range(start, min(start + window, len(raw_tokens)))
                if matches[offset]
            }
        )
        prefix = "… " if start > 0 else ""
        suffix = " …" if start + window < len(raw_tokens) else ""
        return Snippet(
            text=prefix + " ".join(rendered) + suffix,
            window_start=start,
            matched_terms=matched,
        )

    def _best_window(
        self,
        normalized: List[str],
        matches: List[bool],
        terms: set,
        window: int,
    ) -> int:
        """Start offset of the window covering the most distinct terms."""
        best_start = 0
        best_key: Tuple[int, int] = (0, 0)
        for start in range(0, max(1, len(normalized) - window + 1)):
            covered = set()
            total = 0
            for offset in range(start, min(start + window, len(normalized))):
                if matches[offset]:
                    covered.add(normalized[offset])
                    total += 1
            key = (len(covered & terms), total)
            if key > best_key:
                best_key = key
                best_start = start
        return best_start
