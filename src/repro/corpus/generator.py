"""Synthetic web-page generation.

``CorpusGenerator`` produces a :class:`~repro.corpus.documents.DocumentCollection`
whose statistics mimic a web crawl:

- term occurrences are Zipf-distributed over the vocabulary;
- document lengths are log-normal (web page bodies have a long tail);
- raw text contains capitalization, stopwords, and sentence punctuation
  so the analyzer chain does real work at index-build time;
- each document mixes a small set of "topic" terms (sampled once per
  document and repeated) with background terms, giving documents the
  term burstiness real pages have — this is what makes conjunctive
  multi-term queries return non-empty results.

The text is assembled from token ids, and the collection keeps them, so
the index builder never re-tokenizes it.  Every byte is pinned by the
seeded stream (``tests/test_corpus_golden.py``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.corpus.documents import Document, DocumentCollection, TokenIds
from repro.corpus.vocabulary import Vocabulary, VocabularyConfig
from repro.text.stopwords import DEFAULT_STOPWORDS

_STOPWORD_LIST = sorted(DEFAULT_STOPWORDS)

#: Number of content terms in a page title.
TITLE_TERMS = 4


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters of the synthetic corpus.

    Attributes
    ----------
    num_documents:
        Number of pages to generate.
    vocabulary:
        Vocabulary shape (size, Zipf exponent).
    mean_length:
        Mean body length in content terms.  2015-era crawls average a
        few hundred terms per page.
    length_sigma:
        Sigma of the log-normal length distribution (in log space).
    topic_terms:
        Number of topic terms per document.
    topic_fraction:
        Fraction of body terms drawn from the document's topic set
        rather than the background Zipf distribution.
    stopword_fraction:
        Fraction of emitted raw tokens that are stopwords (removed again
        by the analyzer, but they exercise the pipeline).
    topic_drift:
        Crawl-order vocabulary locality: with drift > 0, document
        ``i``'s content ranks (topics and background alike) are shifted
        by ``drift × i`` vocabulary ranks, so consecutive documents
        share vocabulary and far-apart documents do not — the temporal
        locality of real crawls that makes CONTIGUOUS intra-server
        partitioning produce topically-skewed shards.  0 disables it.
    seed:
        Master RNG seed; the whole corpus is deterministic given it.
    """

    num_documents: int = 10_000
    vocabulary: VocabularyConfig = VocabularyConfig()
    mean_length: int = 250
    length_sigma: float = 0.7
    topic_terms: int = 8
    topic_fraction: float = 0.35
    stopword_fraction: float = 0.25
    topic_drift: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_documents < 0:
            raise ValueError("num_documents must be non-negative")
        if self.mean_length <= 0:
            raise ValueError("mean_length must be positive")
        if not 0.0 <= self.topic_fraction <= 1.0:
            raise ValueError("topic_fraction must be in [0, 1]")
        if not 0.0 <= self.stopword_fraction < 1.0:
            raise ValueError("stopword_fraction must be in [0, 1)")
        if self.topic_drift < 0:
            raise ValueError("topic_drift must be non-negative")
        if self.topic_terms < 1:
            raise ValueError("topic_terms must be at least 1")
        if self.length_sigma < 0:
            raise ValueError("length_sigma must be non-negative")


class CorpusGenerator:
    """Generates a deterministic synthetic corpus."""

    def __init__(self, config: CorpusConfig | None = None):
        self.config = config or CorpusConfig()
        self.vocabulary = Vocabulary(self.config.vocabulary)

    def generate(self) -> DocumentCollection:
        """Generate the full collection described by the config.

        The collection carries every document's raw tokens as ids
        (:class:`~repro.corpus.documents.TokenIds`) into the table
        ``vocabulary words + capitalized words + stopwords``, so the
        index builder never re-tokenizes the text it was made from.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        sampler = self.vocabulary.sampler(rng)

        # Log-normal lengths with the requested arithmetic mean:
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
        mu = np.log(config.mean_length) - config.length_sigma**2 / 2.0
        lengths = np.maximum(
            1, rng.lognormal(mu, config.length_sigma, config.num_documents)
        ).astype(np.int64)

        words = self.vocabulary.words
        vocabulary_size = len(words)
        table = _TokenTable(words)
        # What a token id prints as, before capitals are capitalized
        # and sentence ends get their ".".
        printed = words + words + _STOPWORD_LIST
        bodies = _BodyStream(rng, config.stopword_fraction, vocabulary_size)
        documents: List[Document] = []
        dtype = np.min_scalar_type(len(table) - 1)
        ids = array(dtype.char)
        offsets = [0]
        for doc_id in range(config.num_documents):
            shift = int(config.topic_drift * doc_id) % vocabulary_size
            topic_ranks = (
                sampler.sample_many(config.topic_terms) + shift
            ) % vocabulary_size
            # Choose, per content-term slot, whether it comes from the
            # topic set or the background distribution.  The drift shift
            # applies to background draws too: under drift, the *whole*
            # document's vocabulary window moves with crawl order.
            length = int(lengths[doc_id])
            from_topic = rng.random(length) < config.topic_fraction
            background = (sampler.sample_many(length) + shift) % vocabulary_size
            topic_picks = rng.integers(0, len(topic_ranks), size=length)
            ranks = np.where(from_topic, topic_ranks[topic_picks], background)
            body, capitals, sentence_ends = bodies.body(ranks.tolist())
            count = min(TITLE_TERMS, len(topic_ranks))
            picks = rng.choice(topic_ranks, size=count, replace=False).tolist()
            text = list(map(printed.__getitem__, body))
            for position in capitals:
                text[position] = text[position].capitalize()
            for position in sentence_ends:
                text[position] += "."
            documents.append(
                Document(
                    doc_id=doc_id,
                    url=f"http://synth.example/{doc_id:08d}.html",
                    title=" ".join(words[rank].capitalize() for rank in picks),
                    body=" ".join(text),
                )
            )
            ids.extend(rank + vocabulary_size for rank in picks)
            ids.extend(body)
            offsets.append(len(ids))
        tokens = TokenIds(table, np.frombuffer(ids, dtype), np.array(offsets))
        return DocumentCollection(documents, tokens)


class _TokenTable(Sequence[str]):
    """``generate``'s token table: the vocabulary words, the same words
    capitalized, then the stopwords.

    Held as one string and its bounds rather than a ``str`` per entry:
    the table lives as long as its collection, and only an index build
    reads it, once per entry that occurs.
    """

    def __init__(self, words: List[str]):
        self._joined = "".join(words)
        self._bounds = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum([len(word) for word in words], out=self._bounds[1:])
        self._size = len(words)

    def __len__(self) -> int:
        return 2 * self._size + len(_STOPWORD_LIST)

    def __getitem__(self, index: int) -> str:
        if not 0 <= index < len(self):
            raise IndexError(f"token id {index} out of range")
        if index >= 2 * self._size:
            return _STOPWORD_LIST[index - 2 * self._size]
        rank = index % self._size
        start, end = self._bounds[rank : rank + 2].tolist()
        word = self._joined[start:end]
        return word.capitalize() if index >= self._size else word


def _below(fraction: float) -> int:
    """The 64-bit draws whose ``Generator.random()`` is below ``fraction``.

    numpy's ``next_double`` is ``(x >> 11) * 2**-53``, so for the 64-bit
    draw ``x``, ``random() < fraction`` exactly when ``x`` is below the
    returned limit (``fraction * 2**53`` is exact, and ``x >> 11 < c``
    for an integer ``c`` exactly when ``x < c << 11``).
    """
    return math.ceil(fraction * 2**53) << 11


class _BodyStream:
    """The one reader ahead of the corpus Generator's stream.

    A body's text makes one ``random()`` per word (is a stopword put
    before it?), one ``integers(33)`` per stopword (which one?) and one
    ``random()`` per sentence-break test, interleaved, so the draws
    cannot be one vectorised call.  :meth:`body` reads the 64-bit words
    those calls would read in one ``random_raw`` block and replays
    numpy on them: ``next_double`` (as :func:`_below`), the 32-bit
    half-word ``integers`` takes (the low half of a fresh word, whose
    high half the bit generator caches for the next one) and Lemire's
    bounded draw, rejection included.  It then rewinds the Generator to
    exactly the words consumed and the cache they leave, so every later
    draw (the title's ``choice``, the next document's vectorised draws)
    sees the stream the scalar calls would have left.  Nothing else may
    read ahead of, or rewind, that stream.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        stopword_fraction: float,
        vocabulary_size: int,
    ):
        self._bit_generator = rng.bit_generator
        self._stopword_limit = _below(stopword_fraction)
        self._break_limit = _below(0.3)
        # Token ids (``generate``'s table): capitalized words after the
        # words, the stopwords after them.
        self._capitalized = vocabulary_size
        self._stopwords = 2 * vocabulary_size

    def body(self, ranks: List[int]) -> Tuple[List[int], List[int], List[int]]:
        """The token ids of the body text of the vocabulary ``ranks``, and
        the positions among them of the words that open a sentence and
        of those that end one."""
        bit_generator = self._bit_generator
        saved = bit_generator.state
        # At most three 64-bit words per slot, plus room for rejections.
        size = 3 * len(ranks) + 4
        while True:
            raw = bit_generator.random_raw(size).tolist()
            try:
                ids, capitals, ends, consumed, has_cached, cached = self._replay(
                    ranks, raw, saved
                )
                break
            except IndexError:  # more rejected draws than the room left
                bit_generator.state = saved
                size *= 2
        bit_generator.state = saved
        bit_generator.advance(consumed)
        state = bit_generator.state
        state["has_uint32"] = has_cached
        state["uinteger"] = cached
        bit_generator.state = state
        return ids, capitals, ends

    def _replay(self, ranks: List[int], raw: List[int], saved: dict):
        """Walk a body's scalar draws over the 64-bit words ``raw``.

        Returns the ids, the sentence openings and ends, the number of
        words consumed, and the half-word cache they leave
        (``has_uint32``, ``uinteger``).
        """
        stopword_limit = self._stopword_limit
        break_limit = self._break_limit
        num_stopwords = len(_STOPWORD_LIST)
        # Lemire: m = half * n; rejected while m's low half < 2**32 % n.
        rejected = 2**32 % num_stopwords
        has_cached = saved["has_uint32"]
        cached = saved["uinteger"]
        capitalized = self._capitalized
        stopwords = self._stopwords
        ids: List[int] = []
        capitals: List[int] = []
        ends: List[int] = []
        append = ids.append
        position = 0
        sentence_length = 0
        for rank in ranks:
            if raw[position] < stopword_limit:
                position += 1
                while True:
                    if has_cached:
                        half = cached
                        has_cached = 0
                    else:
                        word = raw[position]
                        position += 1
                        half = word & 0xFFFFFFFF
                        cached = word >> 32
                        has_cached = 1
                    product = half * num_stopwords
                    if product & 0xFFFFFFFF >= rejected:
                        break
                append(stopwords + (product >> 32))
                sentence_length += 1
            else:
                position += 1
                if not sentence_length:
                    capitals.append(len(ids))
                    rank += capitalized
            sentence_length += 1
            if sentence_length >= 12:
                if raw[position] < break_limit:
                    ends.append(len(ids))
                    sentence_length = 0
                position += 1
            append(rank)
        return ids, capitals, ends, position, has_cached, cached
