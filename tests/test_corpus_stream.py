"""The corpus generator's block draws against the scalar draws they replace.

The vocabulary used to draw one ``integers`` per character and the body
text one ``random()`` per word, one ``integers(33)`` per stopword and
one ``random()`` per sentence-break test.  Both now read the same stream
in blocks: the vocabulary through one ``integers(0, highs)`` call, the
body through ``_BodyStream``, which reads raw 64-bit words ahead and
rewinds the Generator to what the scalar calls would have consumed.
The scalar code lives on here as the oracle (``_make_word``,
``_generate_words``, ``_make_body``, ``oracle_generate``): same words,
same text, and after every body and every document the same
``bit_generator.state``, half-word cache included.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import SearchEngine
from repro.corpus import generator as generator_module
from repro.corpus import vocabulary as vocabulary_module
from repro.corpus.documents import Document
from repro.corpus.generator import (
    TITLE_TERMS,
    CorpusGenerator,
    _BodyStream,
    _STOPWORD_LIST,
)
from repro.corpus.vocabulary import Vocabulary, VocabularyConfig
from repro.text.stopwords import DEFAULT_STOPWORDS
from tests.conftest import SMALL_CORPUS_CONFIG
from tests.test_corpus_golden import CORPORA

# ----------------------------------------------------------------------
# the oracle: the scalar-draw generator


def _make_word(rng, length):
    chars = []
    for position in range(length):
        alphabet = "bcdfghjklmnpqrstvwz" if position % 2 == 0 else "aeiou"
        chars.append(alphabet[int(rng.integers(len(alphabet)))])
    return "".join(chars)


def _generate_words(count, seed, stopwords=DEFAULT_STOPWORDS):
    rng = np.random.default_rng(seed)
    words = []
    seen = set(stopwords)
    rank = 0
    while len(words) < count:
        length = min(3 + int(np.log1p(rank) / np.log(4)), 12)
        word = _make_word(rng, length)
        rank += 1
        if word in seen:
            continue
        seen.add(word)
        words.append(word)
    return words


def _make_body(rng, ranks, vocabulary_words, stopword_fraction):
    """The scalar loop of the body text, one draw at a time."""
    words = []
    sentence_length = 0
    for rank in ranks:
        if rng.random() < stopword_fraction:
            words.append(_STOPWORD_LIST[rng.integers(len(_STOPWORD_LIST))])
            sentence_length += 1
        word = vocabulary_words[rank]
        if sentence_length == 0:
            word = word.capitalize()
        sentence_length += 1
        if sentence_length >= 12 and rng.random() < 0.3:
            word += "."
            sentence_length = 0
        words.append(word)
    return " ".join(words)


def oracle_generate(config):
    """The scalar-draw ``generate``: ``(title, body)`` pairs, and the
    Generator's state after each document."""
    vocabulary = Vocabulary(config.vocabulary)
    words = _generate_words(config.vocabulary.size, config.vocabulary.seed)
    rng = np.random.default_rng(config.seed)
    sampler = vocabulary.sampler(rng)
    mu = np.log(config.mean_length) - config.length_sigma**2 / 2.0
    lengths = np.maximum(
        1, rng.lognormal(mu, config.length_sigma, config.num_documents)
    ).astype(np.int64)
    size = len(words)
    texts, states = [], []
    for doc_id in range(config.num_documents):
        shift = int(config.topic_drift * doc_id) % size
        topic_ranks = (sampler.sample_many(config.topic_terms) + shift) % size
        length = int(lengths[doc_id])
        from_topic = rng.random(length) < config.topic_fraction
        background = (sampler.sample_many(length) + shift) % size
        topic_picks = rng.integers(0, len(topic_ranks), size=length)
        ranks = np.where(from_topic, topic_ranks[topic_picks], background)
        body = _make_body(rng, ranks.tolist(), words, config.stopword_fraction)
        count = min(TITLE_TERMS, len(topic_ranks))
        picks = rng.choice(topic_ranks, size=count, replace=False)
        title = " ".join(words[int(rank)].capitalize() for rank in picks)
        texts.append((title, body))
        states.append(rng.bit_generator.state)
    return texts, states


class CountingGenerator:
    """A Generator whose scalar ``random``/``integers`` calls are counted."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()

    def integers(self, high):
        self.draws += 1
        return self.rng.integers(high)


# ----------------------------------------------------------------------
# crafted PCG64 states

MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
MASK_64 = 2**64 - 1
MASK_128 = 2**128 - 1


def xsl_rr(state):
    """PCG64's output of the (already stepped) 128-bit ``state``."""
    rotation = state >> 122
    folded = ((state >> 64) ^ state) & MASK_64
    return ((folded >> rotation) | (folded << (64 - rotation))) & MASK_64


def state_with_output(output, high_bits):
    """A 128-bit state whose XSL-RR output is ``output``.

    The high half is free: it fixes the rotation, and the low half is
    then the one that folds to the rotated output.
    """
    rotation = high_bits >> 58
    rotated = ((output << rotation) | (output >> (64 - rotation))) & MASK_64
    return (high_bits << 64) | (rotated ^ high_bits)


def step_back(state, increment):
    """The LCG state one step before ``state``."""
    return ((state - increment) * pow(MULTIPLIER, -1, 2**128)) & MASK_128


def rejected_half(bound):
    """A 32-bit value numpy's bounded draw of ``bound`` rejects."""
    # half * bound has low 32 bits == 1 < 2**32 % bound.
    return pow(bound, -1, 2**32)


# ----------------------------------------------------------------------
# vocabulary


class TestVocabularyBlocks:
    @pytest.mark.parametrize(
        "size, seed", [(1, 1), (5, 2), (1_000, 3), (2_000, 3), (7_000, 11)]
    )
    def test_words_match_scalar_oracle(self, size, seed):
        words = Vocabulary(VocabularyConfig(size=size, seed=seed)).words
        assert words == _generate_words(size, seed)

    def test_block_draw_equals_per_character_draws(self):
        """The numpy behaviour the block relies on: an array of bounds
        draws what the scalar calls draw, in order, cache included."""
        highs = np.resize([19, 5], 10_001)
        block = np.random.default_rng(5).integers(0, highs)
        rng = np.random.default_rng(5)
        assert block.tolist() == [int(rng.integers(high)) for high in highs]

    def test_blocks_continue_the_stream(self):
        """Attempts cut into two blocks draw what one block draws."""
        split, joined = np.random.default_rng(4), np.random.default_rng(4)
        make_words = vocabulary_module._make_words
        words = make_words(split, 0, 700) + make_words(split, 700, 5_000)
        assert words == make_words(joined, 0, 5_000)
        assert split.bit_generator.state == joined.bit_generator.state

    def test_short_first_block(self, monkeypatch):
        """When duplicates leave the first block short, a second block
        carries on from the next attempt, as the scalar loop would."""
        attempts = vocabulary_module._make_words(np.random.default_rng(7), 0, 2_000)
        stopwords = DEFAULT_STOPWORDS | frozenset(attempts[::2])
        monkeypatch.setattr("repro.text.stopwords.DEFAULT_STOPWORDS", stopwords)
        calls = []
        make_words = vocabulary_module._make_words

        def spy(rng, start, stop):
            calls.append((start, stop))
            return make_words(rng, start, stop)

        monkeypatch.setattr(vocabulary_module, "_make_words", spy)
        words = vocabulary_module._generate_words(1_500, 7)
        assert len(calls) == 2 and calls[1][0] == calls[0][1]
        assert words == _generate_words(1_500, 7, stopwords)


# ----------------------------------------------------------------------
# the body stream owner against the scalar loop


def run_both(ranks, stopword_fraction, state, vocabulary_words):
    """Body text and final state from the owner and from the oracle."""
    size = len(vocabulary_words)
    table = (
        vocabulary_words
        + [word.capitalize() for word in vocabulary_words]
        + _STOPWORD_LIST
    )
    owner_rng = np.random.default_rng()
    owner_rng.bit_generator.state = state
    ids, capitals, ends = _BodyStream(owner_rng, stopword_fraction, size).body(
        ranks
    )
    assert capitals == [p for p, token in enumerate(ids) if size <= token < 2 * size]
    text = [table[token] for token in ids]
    for position in ends:
        text[position] += "."
    ours = " ".join(text)

    oracle_rng = np.random.default_rng()
    oracle_rng.bit_generator.state = state
    counting = CountingGenerator(oracle_rng)
    theirs = _make_body(counting, ranks, vocabulary_words, stopword_fraction)
    return (
        (ours, owner_rng.bit_generator.state),
        (theirs, oracle_rng.bit_generator.state),
        counting.draws,
    )


@pytest.fixture(scope="module")
def words():
    return Vocabulary(VocabularyConfig(size=500, seed=3)).words


class TestBodyStream:
    def test_a_million_mixed_draws(self, words):
        """≥ 10⁶ doubles and bounded draws, bodies of every length, the
        half-word cache empty or full at the start of each."""
        setup = np.random.default_rng(2024)
        rng = np.random.default_rng(99)
        draws = 0
        starts = {0: 0, 1: 0}
        while draws < 1_000_000:
            length = int(setup.integers(0, 400))
            fraction = float(setup.choice([0.0, 0.25, 0.5, 0.9]))
            ranks = setup.integers(0, len(words), size=length).tolist()
            if setup.random() < 0.5:
                rng.integers(5)  # flips the cache
            state = rng.bit_generator.state
            starts[state["has_uint32"]] += 1
            ours, theirs, count = run_both(ranks, fraction, state, words)
            assert ours == theirs
            draws += count
            rng.bit_generator.state = ours[1]
        assert min(starts.values()) > 100

    def test_empty_body_leaves_the_stream_alone(self, words):
        state = np.random.default_rng(1).bit_generator.state
        ours, theirs, count = run_both([], 0.25, state, words)
        assert count == 0
        assert ours == theirs == ("", state)

    def test_block_too_short_is_reread(self, words, monkeypatch):
        """The retry path: a block that runs out is read again, longer,
        from the saved state."""
        reads = []
        original = _BodyStream._replay

        def short_first(self, ranks, raw, saved):
            reads.append(len(raw))
            if len(reads) == 1:
                raw = raw[:2]
            return original(self, ranks, raw, saved)

        monkeypatch.setattr(_BodyStream, "_replay", short_first)
        ranks = list(range(100))
        state = np.random.default_rng(4).bit_generator.state
        ours, theirs, _ = run_both(ranks, 0.5, state, words)
        assert ours == theirs
        assert reads == [304, 608]

    def test_crafted_state_gives_the_output(self):
        bit_generator = np.random.default_rng(0).bit_generator
        increment = bit_generator.state["state"]["inc"]
        target = 0x0123456789ABCDEF
        stepped = state_with_output(target, 0xFEDCBA9876543210)
        state = bit_generator.state
        state["state"]["state"] = step_back(stepped, increment)
        bit_generator.state = state
        assert int(bit_generator.random_raw()) == target

    def test_rejection_of_both_halves_of_a_word(self, words):
        """Lemire's rejection branch, hit by a crafted stream: the first
        word is a stopword test that passes, the second word's low and
        high halves are both rejected, so the pick is the third word's
        low half — and its high half is what stays cached."""
        rng = np.random.default_rng(0)
        increment = rng.bit_generator.state["state"]["inc"]
        half = rejected_half(len(_STOPWORD_LIST))
        high_bits = 1
        while True:
            high_bits += 1
            second = state_with_output((half << 32) | half, high_bits)
            first = step_back(second, increment)
            if xsl_rr(first) < (1 << 63):  # random() < 0.5: a stopword
                break
        state = rng.bit_generator.state
        state["state"]["state"] = step_back(first, increment)
        state["has_uint32"], state["uinteger"] = 0, 0
        rng.bit_generator.state = state
        raw = rng.bit_generator.random_raw(3).tolist()
        assert raw[1] == (half << 32) | half and raw[0] < 1 << 63

        # numpy itself rejects: integers(33) consumes words 2 and 3.
        rng.bit_generator.state = state
        assert rng.random() < 0.5
        pick = int(rng.integers(len(_STOPWORD_LIST)))
        assert pick == ((raw[2] & 0xFFFFFFFF) * 33) >> 32
        after = rng.bit_generator.state
        assert after["has_uint32"] == 1 and after["uinteger"] == raw[2] >> 32

        ours, theirs, _ = run_both([1, 2, 3], 0.5, state, words)
        assert ours == theirs
        assert ours[0].split()[0] == _STOPWORD_LIST[pick]

    def test_rejection_of_the_cached_half(self, words):
        """A body that starts with a rejected half-word in the cache."""
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        state["has_uint32"] = 1
        state["uinteger"] = rejected_half(len(_STOPWORD_LIST))
        for seed in range(20):
            ranks = np.random.default_rng(seed).integers(0, 500, 50).tolist()
            ours, theirs, _ = run_both(ranks, 0.9, state, words)
            assert ours == theirs


# ----------------------------------------------------------------------
# whole corpora, document by document


def recorded_generate(config, monkeypatch):
    """``CorpusGenerator.generate`` with the Generator's state recorded
    as each document is assembled (after its last draw)."""
    rngs, states = [], []

    class RecordingStream(_BodyStream):
        def __init__(self, rng, *args):
            rngs.append(rng)
            super().__init__(rng, *args)

    def recording_document(**fields):
        states.append(rngs[0].bit_generator.state)
        return Document(**fields)

    monkeypatch.setattr(generator_module, "_BodyStream", RecordingStream)
    monkeypatch.setattr(generator_module, "Document", recording_document)
    collection = CorpusGenerator(config).generate()
    return collection, states


@pytest.mark.parametrize(
    "config",
    [
        SMALL_CORPUS_CONFIG,
        CORPORA["drift"],
        CORPORA["no_stopwords"],
        replace(SMALL_CORPUS_CONFIG, topic_terms=1, num_documents=60),
        replace(SMALL_CORPUS_CONFIG, stopword_fraction=0.9, num_documents=80),
        replace(SMALL_CORPUS_CONFIG, length_sigma=0.0, num_documents=40),
    ],
    ids=["small", "drift", "no_stopwords", "one_topic", "stopwords_0.9", "sigma_0"],
)
def test_every_document_leaves_the_oracle_state(config, monkeypatch):
    collection, states = recorded_generate(config, monkeypatch)
    texts, oracle_states = oracle_generate(config)
    assert [(doc.title, doc.body) for doc in collection] == texts
    assert states == oracle_states


def test_token_ids_spell_the_text():
    """The ids the collection carries tokenize like its text."""
    collection = CorpusGenerator(SMALL_CORPUS_CONFIG).generate()
    tokens = collection.tokens
    assert tokens.ids.dtype == np.uint16
    for document in collection:
        start, end = tokens.offsets[document.doc_id : document.doc_id + 2]
        spelled = [tokens.table[token] for token in tokens.ids[start:end]]
        assert spelled == document.text.replace(".", " ").split()


def test_no_cache_across_constructions(monkeypatch):
    """Two engines in one process each generate the vocabulary and the
    corpus: the speed comes from the draws, not from remembering."""
    counts = {"words": 0, "bodies": 0}
    generate_words = vocabulary_module._generate_words
    body = _BodyStream.body

    def counting_words(count, seed):
        counts["words"] += 1
        return generate_words(count, seed)

    def counting_body(self, ranks):
        counts["bodies"] += 1
        return body(self, ranks)

    monkeypatch.setattr(vocabulary_module, "_generate_words", counting_words)
    monkeypatch.setattr(_BodyStream, "body", counting_body)
    corpus = replace(SMALL_CORPUS_CONFIG, num_documents=50)
    first = SearchEngine(corpus=corpus)
    second = SearchEngine(corpus=corpus)
    try:
        assert counts == {"words": 2, "bodies": 100}
        assert first.collection is not second.collection
        assert first.collection.tokens is not second.collection.tokens
        assert first.collection == second.collection
    finally:
        first.close()
        second.close()


def test_ids_use_the_smallest_dtype():
    config = replace(
        SMALL_CORPUS_CONFIG,
        num_documents=5,
        vocabulary=VocabularyConfig(size=40_000, seed=3),
    )
    assert CorpusGenerator(config).generate().tokens.ids.dtype == np.uint32

