"""Synthetic vocabulary with Zipfian term frequencies.

Terms are deterministic pseudo-words derived from their rank, so the
same :class:`VocabularyConfig` always yields the same vocabulary and
corpora built on it are reproducible.  Word shapes alternate consonants
and vowels so they read like text, survive the analyzer chain, and do
not collide with the stopword list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.corpus.zipf import ZipfSampler, zipf_weights

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_CONSONANT_BYTES = np.frombuffer(_CONSONANTS.encode(), dtype=np.uint8)
_VOWEL_BYTES = np.frombuffer(_VOWELS.encode(), dtype=np.uint8)
_MAX_LENGTH = 12
#: The alphabet size of each character position: consonant, vowel, ...
_ALPHABET_SIZES = np.resize([len(_CONSONANTS), len(_VOWELS)], _MAX_LENGTH)


@dataclass(frozen=True)
class VocabularyConfig:
    """Shape of the synthetic vocabulary.

    Attributes
    ----------
    size:
        Number of distinct terms.
    exponent:
        Zipf exponent of the term-frequency distribution.  Measured web
        corpora sit close to 1.0; the benchmark's crawl is no exception.
    seed:
        Seed for the word-shape RNG (not the sampling RNG).
    """

    size: int = 50_000
    exponent: float = 1.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"vocabulary size must be positive, got {self.size}")
        if self.exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {self.exponent}")


class Vocabulary:
    """A rank-ordered list of synthetic terms with Zipf weights.

    Rank 0 is the most frequent term.  ``words`` is materialized eagerly
    (a 50k-word vocabulary is ~1 MB) because both the document generator
    and the query generator index into it on every draw.
    """

    def __init__(self, config: VocabularyConfig | None = None):
        self.config = config or VocabularyConfig()
        self._words = _generate_words(self.config.size, self.config.seed)
        self._weights = zipf_weights(self.config.size, self.config.exponent)

    def __len__(self) -> int:
        return self.config.size

    @property
    def words(self) -> List[str]:
        """All words, most frequent first."""
        return self._words

    def word(self, rank: int) -> str:
        """Return the word at 0-based ``rank`` (0 = most frequent)."""
        return self._words[rank]

    def frequency(self, rank: int) -> float:
        """Return the corpus-model probability of the word at ``rank``."""
        return float(self._weights[rank])

    def sampler(self, rng: np.random.Generator) -> ZipfSampler:
        """Create a Zipf sampler over this vocabulary's ranks."""
        return ZipfSampler(self.config.size, self.config.exponent, rng)


def _generate_words(count: int, seed: int) -> List[str]:
    """Generate ``count`` distinct pseudo-words, deterministically.

    Words alternate consonant/vowel starting from a consonant; length
    grows slowly with rank so frequent words are short (as in natural
    language) and all words are unique.  Attempt ``r`` draws one
    character index per position, ``integers(19)`` or ``integers(5)``,
    and is kept unless it repeats an earlier word or a stopword.  The
    draws of a block of attempts are one ``integers`` call (the same
    values the per-character calls would give), so only a block that
    runs short costs a second call.
    """
    from repro.text.stopwords import DEFAULT_STOPWORDS

    rng = np.random.default_rng(seed)
    words: List[str] = []
    # Seeding ``seen`` with the stopword list guarantees vocabulary terms
    # survive the analyzer's stopword filter.
    seen = set(DEFAULT_STOPWORDS)
    rank = 0
    block = count + count // 8 + 64
    while len(words) < count:
        for word in _make_words(rng, rank, rank + block):
            if word not in seen:
                seen.add(word)
                words.append(word)
        rank += block
        block = 2 * (count - len(words)) + 64
    return words[:count]


def _word_length(rank: int) -> int:
    """Frequent words are shorter: length 3..12 growing with log(rank)."""
    return min(3 + int(np.log1p(rank) / np.log(4)), _MAX_LENGTH)


def _first_ranks() -> List[int]:
    """``[first rank of length 3, of length 4, ..., of length 12]``."""
    firsts = [0]
    for length in range(4, _MAX_LENGTH + 1):
        rank = 4 ** (length - 3) - 1  # where log1p(rank) / log(4) turns
        while rank > 0 and _word_length(rank - 1) >= length:
            rank -= 1
        while _word_length(rank) < length:
            rank += 1
        firsts.append(rank)
    return firsts


def _make_words(rng: np.random.Generator, start: int, stop: int) -> List[str]:
    """Attempts ``start..stop-1``, their characters drawn in one call."""
    firsts = _first_ranks() + [stop]
    runs = []  # (length, number of attempts), in rank order
    for length, first, end in zip(range(3, _MAX_LENGTH + 1), firsts, firsts[1:]):
        count = min(stop, end) - max(start, first)
        if count > 0:
            runs.append((length, count))
    highs = np.concatenate(
        [np.tile(_ALPHABET_SIZES[:length], count) for length, count in runs]
    )
    draws = rng.integers(0, highs)
    words: List[str] = []
    for length, count in runs:
        picks = draws[: length * count].reshape(count, length)
        draws = draws[length * count :]
        chars = np.empty((count, length), dtype=np.uint8)
        chars[:, 0::2] = _CONSONANT_BYTES[picks[:, 0::2]]
        chars[:, 1::2] = _VOWEL_BYTES[picks[:, 1::2]]
        words.extend(chars.view(f"S{length}").ravel().astype(f"U{length}").tolist())
    return words
