"""The analyzer chain applied to documents and queries.

``Analyzer`` composes the tokenizer, lowercase filter, stopword filter,
and stemmer into the single normalization pipeline used everywhere in
the reproduction: the index builder, the query parser, and the corpus
statistics tools.  Using one shared pipeline guarantees that query terms
and document terms land in the same index dictionary entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.text.stemmer import SuffixStemmer
from repro.text.stopwords import DEFAULT_STOPWORDS
from repro.text.tokenizer import Tokenizer


@dataclass(frozen=True)
class AnalyzerConfig:
    """Configuration of the analyzer chain.

    Attributes
    ----------
    lowercase:
        Whether to lowercase tokens.
    remove_stopwords:
        Whether to drop stopwords (after lowercasing).
    stem:
        Whether to apply the suffix stemmer.
    stopwords:
        The stopword set; ignored when ``remove_stopwords`` is False.
    max_token_length:
        Tokens longer than this are dropped by the tokenizer.
    """

    lowercase: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    stopwords: FrozenSet[str] = DEFAULT_STOPWORDS
    max_token_length: int = 255


@dataclass(frozen=True)
class Analyzer:
    """Normalizes raw text into index terms.

    The same ``Analyzer`` instance must be used for indexing and for
    query parsing; :class:`repro.index.builder.IndexBuilder` stores the
    analyzer it was built with so searchers can reuse it.
    """

    config: AnalyzerConfig = field(default_factory=AnalyzerConfig)

    def __post_init__(self) -> None:
        # Built once, not per call (not fields: equality is the config's).
        tokenizer = Tokenizer(max_token_length=self.config.max_token_length)
        stemmer = SuffixStemmer() if self.config.stem else None
        object.__setattr__(self, "_tokenizer", tokenizer)
        object.__setattr__(self, "_stemmer", stemmer)

    def tokenize(self, text: str) -> List[str]:
        """The raw tokens of ``text`` that :meth:`normalize` is mapped over."""
        return self._tokenizer.tokenize(text)

    def normalize(self, token: str) -> str:
        """Return the index term of one raw ``token``, "" if it is dropped.

        *The* definition of the chain: a token is dropped when over-long,
        a stopword (after lowercasing) or stemmed to nothing.  The result
        depends on the token alone, so callers may remember it.
        """
        config = self.config
        if len(token) > config.max_token_length:
            return ""
        if config.lowercase:
            token = token.lower()
        if config.remove_stopwords and token in config.stopwords:
            return ""
        if self._stemmer is not None:
            token = self._stemmer.stem(token)
        return token

    def analyze(self, text: str) -> List[str]:
        """Return the sequence of index terms for ``text``."""
        return [
            term for term in map(self.normalize, self.tokenize(text)) if term
        ]


def default_analyzer(config: Optional[AnalyzerConfig] = None) -> Analyzer:
    """Build the benchmark's default analyzer (Lucene-like chain)."""
    return Analyzer(config=config or AnalyzerConfig())
