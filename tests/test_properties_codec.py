"""Property-based round-trips for the postings codec and index format.

The serialization layer has no redundancy: a single mis-biased gap or
mis-counted varint silently corrupts every downstream figure.  These
properties pin the codec over the full input space — empty lists,
single elements, boundary-width integers, and random corpora with
every analyzer flag combination.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.compression import (
    decode_postings,
    decode_varint,
    encode_postings,
    encode_varint,
    encode_varint_stream,
)
from repro.index.serialization import deserialize_index, serialize_index
from repro.text.analyzer import Analyzer, AnalyzerConfig
from tests.conftest import postings_pairs
from tests.test_index_compression import same
from tests.test_index_postings import from_pairs

# Strictly-increasing doc-id lists, the codec's input domain.  Hypothesis
# shrinks toward [] and single elements; @example pins those cases even
# on --hypothesis-seed runs.
doc_id_lists = st.lists(
    st.integers(min_value=0, max_value=1 << 40), unique=True
).map(sorted)

frequency = st.integers(min_value=1, max_value=1 << 20)


@st.composite
def postings_lists(draw):
    doc_ids = draw(doc_id_lists)
    frequencies = draw(
        st.lists(frequency, min_size=len(doc_ids), max_size=len(doc_ids))
    )
    return from_pairs(list(zip(doc_ids, frequencies)))


class TestVarintBoundaries:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @example(0)
    @example(127)
    @example(128)
    @example(2**63 - 1)
    def test_roundtrip_full_width(self, value):
        decoded, offset = decode_varint(encode_varint(value))
        assert decoded == value
        assert offset == len(encode_varint(value))

    def test_width_steps_at_7_bit_boundaries(self):
        for width in range(1, 9):
            boundary = 1 << (7 * width)
            assert len(encode_varint(boundary - 1)) == width
            assert len(encode_varint(boundary)) == width + 1

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=30))
    def test_stream_is_concatenation(self, values):
        stream = encode_varint_stream(values)
        assert stream == b"".join(encode_varint(v) for v in values)
        # Chained offset decoding walks the stream exactly once.
        offset = 0
        for expected in values:
            decoded, offset = decode_varint(stream, offset)
            assert decoded == expected
        assert offset == len(stream)


class TestPostingsRoundtrip:
    @given(postings_lists())
    @example(from_pairs([]))
    @example(from_pairs([(0, 1)]))
    @example(from_pairs([(1 << 40, 1)]))
    def test_delta_varint_roundtrip(self, postings):
        encoded = encode_postings(*postings)
        decoded = decode_postings(encoded)
        assert same(decoded, postings)
        assert decoded[2] == len(encoded)

    @given(postings_lists())
    def test_consecutive_blocks_self_delimit(self, postings):
        """Two encoded blocks back-to-back decode independently."""
        other = from_pairs([(5, 2), (9, 1)])
        data = encode_postings(*postings) + encode_postings(*other)
        first = decode_postings(data)
        second = decode_postings(data, first[2])
        assert same(first, postings)
        assert same(second, other)
        assert second[2] == len(data)

    @given(doc_id_lists)
    def test_gap_bias_never_negative(self, doc_ids):
        """Strictly-increasing ids always produce encodable gaps."""
        postings = from_pairs([(d, 1) for d in doc_ids])
        decoded, _, _ = decode_postings(encode_postings(*postings))
        assert decoded.tolist() == doc_ids


# Tiny shared vocabulary so random documents collide on terms.
corpus_words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "the", "of", "running", "runs"]
)
corpus_texts = st.lists(
    st.lists(corpus_words, min_size=1, max_size=10).map(" ".join),
    min_size=1,
    max_size=10,
)
analyzer_configs = st.builds(
    AnalyzerConfig,
    lowercase=st.booleans(),
    remove_stopwords=st.booleans(),
    stem=st.booleans(),
    max_token_length=st.integers(min_value=4, max_value=64),
)


def build_collection(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return collection


class TestIndexSerializationProperties:
    @settings(max_examples=30, deadline=None)
    @given(corpus_texts, analyzer_configs)
    def test_roundtrip_preserves_index_and_analyzer(self, texts, config):
        index = IndexBuilder(Analyzer(config)).build(build_collection(texts))
        restored = deserialize_index(serialize_index(index))

        restored_config = restored.analyzer.config
        assert restored_config.lowercase == config.lowercase
        assert restored_config.remove_stopwords == config.remove_stopwords
        assert restored_config.stem == config.stem
        assert restored_config.max_token_length == config.max_token_length

        assert restored.num_documents == index.num_documents
        assert list(restored.doc_lengths) == list(index.doc_lengths)
        assert restored.dictionary.terms() == index.dictionary.terms()
        for term in index.dictionary:
            assert postings_pairs(restored, term) == postings_pairs(index, term)

    @settings(max_examples=15, deadline=None)
    @given(corpus_texts)
    def test_serialization_deterministic(self, texts):
        analyzer = Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))
        index = IndexBuilder(analyzer).build(build_collection(texts))
        assert serialize_index(index) == serialize_index(index)

    def test_trailing_garbage_rejected(self, small_index):
        data = serialize_index(small_index) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            deserialize_index(data)
