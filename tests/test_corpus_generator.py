"""Unit tests for document generation."""

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.vocabulary import VocabularyConfig


class TestDocumentCollection:
    def test_dense_ids_enforced(self):
        collection = DocumentCollection()
        collection.add(Document(0, "u0", "t", "b"))
        with pytest.raises(ValueError):
            collection.add(Document(5, "u5", "t", "b"))

    def test_get_out_of_range(self):
        collection = DocumentCollection()
        assert collection.get(0) is None
        assert collection.get(-1) is None

    def test_iteration_order(self):
        collection = DocumentCollection()
        for doc_id in range(3):
            collection.add(Document(doc_id, f"u{doc_id}", "t", "b"))
        assert [doc.doc_id for doc in collection] == [0, 1, 2]

    def test_slice(self):
        collection = DocumentCollection()
        for doc_id in range(5):
            collection.add(Document(doc_id, f"u{doc_id}", "t", "b"))
        assert [doc.doc_id for doc in collection.slice([4, 0, 2])] == [4, 0, 2]

    def test_text_combines_title_and_body(self):
        document = Document(0, "u", "Title Here", "body text")
        assert "Title Here" in document.text
        assert "body text" in document.text


class TestCorpusGenerator:
    def test_generates_requested_count(self, small_collection):
        assert len(small_collection) == 300

    def test_deterministic(self, corpus_generator):
        first = corpus_generator.generate()
        second = corpus_generator.generate()
        assert first[0].body == second[0].body
        assert first[123].body == second[123].body

    def test_urls_unique(self, small_collection):
        urls = [doc.url for doc in small_collection]
        assert len(set(urls)) == len(urls)

    def test_titles_nonempty(self, small_collection):
        assert all(doc.title.strip() for doc in small_collection)

    def test_lengths_are_skewed(self, small_collection):
        lengths = np.array([len(doc.body.split()) for doc in small_collection])
        # Log-normal: mean above median.
        assert lengths.mean() > np.median(lengths)

    def test_mean_length_roughly_matches_config(self):
        config = CorpusConfig(
            num_documents=400,
            vocabulary=VocabularyConfig(size=1_000),
            mean_length=100,
            stopword_fraction=0.0,
            seed=9,
        )
        collection = CorpusGenerator(config).generate()
        lengths = [len(doc.body.split()) for doc in collection]
        assert np.mean(lengths) == pytest.approx(100, rel=0.15)

    def test_zero_documents(self):
        config = CorpusConfig(num_documents=0, vocabulary=VocabularyConfig(size=10))
        assert len(CorpusGenerator(config).generate()) == 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CorpusConfig(num_documents=-1)
        with pytest.raises(ValueError):
            CorpusConfig(mean_length=0)
        with pytest.raises(ValueError):
            CorpusConfig(topic_fraction=1.5)
        with pytest.raises(ValueError):
            CorpusConfig(stopword_fraction=1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("topic_terms", 0, "topic_terms must be at least 1"),
            ("topic_terms", -1, "topic_terms must be at least 1"),
            ("length_sigma", -0.1, "length_sigma must be non-negative"),
        ],
    )
    def test_rejected_at_construction(self, field, value, message):
        """Caught by the config, not mid-generation by numpy (``high <=
        0`` in ``integers``, a negative count in ``sample_many``, a
        negative scale in ``lognormal``)."""
        with pytest.raises(ValueError, match=message):
            CorpusConfig(**{field: value})

    def test_edge_values_generate(self):
        config = CorpusConfig(
            num_documents=4,
            vocabulary=VocabularyConfig(size=50),
            topic_terms=1,
            length_sigma=0.0,
        )
        collection = CorpusGenerator(config).generate()
        assert len(collection) == 4
        assert all(len(doc.title.split()) == 1 for doc in collection)

    def test_topic_terms_repeat_within_document(self):
        # With a high topic fraction, some term must appear many times.
        config = CorpusConfig(
            num_documents=5,
            vocabulary=VocabularyConfig(size=5_000, exponent=0.0),
            mean_length=200,
            topic_terms=3,
            topic_fraction=0.8,
            stopword_fraction=0.0,
            seed=1,
        )
        collection = CorpusGenerator(config).generate()
        for document in collection:
            words = [word.strip(".").lower() for word in document.body.split()]
            counts = {}
            for word in words:
                counts[word] = counts.get(word, 0) + 1
            assert max(counts.values()) >= 10
