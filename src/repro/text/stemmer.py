"""A light suffix-stripping stemmer.

The benchmark uses Lucene's English stemming in its default analyzer.
We implement a small, deterministic "s-stemmer plus common suffixes"
variant: it handles plural forms and the most common derivational
suffixes without the full Porter rule cascade.  For a synthetic corpus
this is sufficient — what matters for the characterization is that
document and query text pass through the *same* normalization so terms
collide correctly, not the linguistic fidelity of the stems.
"""

from __future__ import annotations

from dataclasses import dataclass

_VOWELS = set("aeiou")

# Ordered longest-first so that e.g. "ements" wins over "s".
_SUFFIX_RULES = (
    ("ations", "ate"),
    ("ements", "e"),
    ("ization", "ize"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("ation", "ate"),
    ("ement", "e"),
    ("ness", ""),
    ("ible", ""),
    ("able", ""),
    ("ment", ""),
    ("ings", ""),
    ("ies", "y"),
    ("ied", "y"),
    ("ing", ""),
    ("ed", ""),
    ("es", "e"),
    ("ly", ""),
    ("s", ""),
)

_SUFFIXES = tuple(suffix for suffix, _ in _SUFFIX_RULES)

#: Words shorter than this are never stemmed (they are likely already roots).
MIN_STEM_LENGTH = 3


def _has_vowel(word: str) -> bool:
    return any(ch in _VOWELS for ch in word)


@dataclass(frozen=True)
class SuffixStemmer:
    """Deterministic light stemmer.

    The stemmer applies at most one suffix rule (longest match first) and
    refuses to produce stems shorter than ``min_stem_length`` or stems
    with no vowel, which keeps it from mangling identifiers and short
    function words.
    """

    min_stem_length: int = MIN_STEM_LENGTH

    def stem(self, token: str) -> str:
        """Return the stem of ``token`` (assumed lowercased)."""
        if len(token) <= self.min_stem_length or not token.endswith(_SUFFIXES):
            return token
        for suffix, replacement in _SUFFIX_RULES:
            if not token.endswith(suffix):
                continue
            candidate = token[: len(token) - len(suffix)] + replacement
            if len(candidate) >= self.min_stem_length and _has_vowel(candidate):
                return candidate
            # A rule matched but produced a bad stem: stop, do not try
            # shorter suffixes (they would be substrings of this one).
            return token
        return token
