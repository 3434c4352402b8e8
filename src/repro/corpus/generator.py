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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.corpus.documents import Document, DocumentCollection
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


class CorpusGenerator:
    """Generates a deterministic synthetic corpus."""

    def __init__(self, config: CorpusConfig | None = None):
        self.config = config or CorpusConfig()
        self.vocabulary = Vocabulary(self.config.vocabulary)

    def generate(self) -> DocumentCollection:
        """Generate the full collection described by the config."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        sampler = self.vocabulary.sampler(rng)
        collection = DocumentCollection()

        # Log-normal lengths with the requested arithmetic mean:
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2 / 2).
        mu = np.log(config.mean_length) - config.length_sigma**2 / 2.0
        lengths = np.maximum(
            1, rng.lognormal(mu, config.length_sigma, config.num_documents)
        ).astype(np.int64)

        vocabulary_size = len(self.vocabulary)
        for doc_id in range(config.num_documents):
            shift = int(config.topic_drift * doc_id) % vocabulary_size
            topic_ranks = (
                sampler.sample_many(config.topic_terms) + shift
            ) % vocabulary_size
            body = self._make_body(
                rng, sampler, topic_ranks, int(lengths[doc_id]), shift
            )
            title = self._make_title(rng, topic_ranks)
            collection.add(
                Document(
                    doc_id=doc_id,
                    url=f"http://synth.example/{doc_id:08d}.html",
                    title=title,
                    body=body,
                )
            )
        return collection

    def _make_title(self, rng: np.random.Generator, topic_ranks: np.ndarray) -> str:
        count = min(TITLE_TERMS, len(topic_ranks))
        picks = rng.choice(topic_ranks, size=count, replace=False)
        words = [self.vocabulary.word(int(rank)).capitalize() for rank in picks]
        return " ".join(words)

    def _make_body(
        self,
        rng: np.random.Generator,
        sampler,
        topic_ranks: np.ndarray,
        length: int,
        shift: int = 0,
    ) -> str:
        config = self.config
        # Choose, per content-term slot, whether it comes from the topic
        # set or the background distribution.  The drift shift applies to
        # background draws too: under drift, the *whole* document's
        # vocabulary window moves with crawl order.
        from_topic = rng.random(length) < config.topic_fraction
        background = (sampler.sample_many(length) + shift) % len(
            self.vocabulary
        )
        topic_picks = rng.integers(0, len(topic_ranks), size=length)
        ranks = np.where(from_topic, topic_ranks[topic_picks], background)

        # One scalar draw at a time, in this order: the text is pinned by
        # the generator's stream, so the draws cannot be batched.
        random = rng.random
        integers = rng.integers
        vocabulary_words = self.vocabulary.words
        stopword_fraction = config.stopword_fraction
        num_stopwords = len(_STOPWORD_LIST)
        words: List[str] = []
        append = words.append
        sentence_length = 0
        for rank in ranks.tolist():
            # Interleave stopwords into the raw text.
            if random() < stopword_fraction:
                append(_STOPWORD_LIST[integers(num_stopwords)])
                sentence_length += 1
            word = vocabulary_words[rank]
            if sentence_length == 0:
                word = word.capitalize()
            sentence_length += 1
            if sentence_length >= 12 and random() < 0.3:
                word += "."
                sentence_length = 0
            append(word)
        return " ".join(words)
