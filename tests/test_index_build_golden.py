"""Bit-level checks of the array index build against the loop it replaced.

``IndexBuilder.build`` analyzes every document with one ``normalize``
per distinct raw token, sorts one ``(term, doc)`` key array and cuts
postings, statistics and block metadata out of it.  The loop it
replaced — ``Analyzer.analyze`` per document, a ``Counter`` + ``sorted``
per document, one ``check_postings`` and one
``BlockMetadata.from_postings`` per term — lives on here as
:func:`oracle_build`, the reference the array pass must reproduce
byte for byte: same serialized index, same document lengths, same
dictionary order and statistics, same block-metadata arrays.
"""

import cProfile
import hashlib
import pstats
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.documents import Document, DocumentCollection
from repro.corpus.generator import CorpusGenerator
from repro.index import builder as builder_module
from repro.index.blockmax import BlockMetadata
from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex, PostingsLayout
from repro.index.partitioner import partition_collection, partition_index
from repro.index.postings import check_postings
from repro.index.serialization import serialize_index
from repro.text.analyzer import Analyzer, AnalyzerConfig, default_analyzer
from repro.text.tokenizer import Tokenizer
from tests.conftest import SMALL_CORPUS_CONFIG
from tests.test_index_postings import check
from tests.test_wand_family_golden import GOLDEN_CORPUS

ANALYZERS = {
    "default": default_analyzer(),
    "no_stem": Analyzer(AnalyzerConfig(stem=False)),
    "keep_stopwords": Analyzer(AnalyzerConfig(remove_stopwords=False)),
    "keep_case": Analyzer(AnalyzerConfig(lowercase=False)),
    "short_tokens": Analyzer(AnalyzerConfig(max_token_length=4)),
}


# ----------------------------------------------------------------------
# the reference oracle: IndexBuilder.build as it was before the array pass


def oracle_analyze(analyzer, text):
    """``Analyzer.analyze`` as it was: the chain inlined per token."""
    from repro.text.stemmer import SuffixStemmer

    config = analyzer.config
    stemmer = SuffixStemmer() if config.stem else None
    terms = []
    for match in re.finditer(r"[0-9A-Za-z]+", text):
        token = match.group(0)
        if len(token) > config.max_token_length:
            continue
        if config.lowercase:
            token = token.lower()
        if config.remove_stopwords and token in config.stopwords:
            continue
        if stemmer is not None:
            token = stemmer.stem(token)
        if token:
            terms.append(token)
    return terms


def oracle_build(collection, analyzer=None, block_size=128):
    """One ``Counter`` per document, one validated list per term."""
    analyzer = analyzer or default_analyzer()
    accumulator = {}
    doc_lengths = np.zeros(len(collection), dtype=np.int64)
    for document in collection:
        terms = oracle_analyze(analyzer, document.text)
        doc_lengths[document.doc_id] = len(terms)
        for term, frequency in sorted(Counter(terms).items()):
            accumulator.setdefault(term, []).append(
                (document.doc_id, frequency)
            )
    terms = sorted(accumulator)
    postings = []
    block_metadata = []
    for term in terms:
        doc_ids, frequencies = (
            np.array(column, dtype=np.int64)
            for column in zip(*accumulator[term])
        )
        check_postings(doc_ids, frequencies, np.array([0, doc_ids.size]))
        postings.append((doc_ids, frequencies))
        block_metadata.append(
            BlockMetadata.from_postings(
                doc_ids, frequencies, doc_lengths, block_size
            )
        )
    # The validated lists and their metadata, packed back to back.
    def offsets(sizes):
        return np.cumsum([0, *sizes], dtype=np.int64)

    def packed(arrays):
        return np.concatenate([np.empty(0, dtype=np.int64), *arrays])

    layout = PostingsLayout(
        offsets(doc_ids.size for doc_ids, _ in postings),
        packed(doc_ids for doc_ids, _ in postings),
        packed(frequencies for _, frequencies in postings),
        offsets(m.num_blocks for m in block_metadata),
        packed(m.last_doc_ids for m in block_metadata),
        packed(m.max_frequencies for m in block_metadata),
        packed(m.min_doc_lengths for m in block_metadata),
    )
    return InvertedIndex(terms, layout, doc_lengths, analyzer, block_size)


def assert_same_index(built, oracle):
    """Every value the two builds hold, compared exactly."""
    assert serialize_index(built) == serialize_index(oracle)
    assert built.doc_lengths.dtype == oracle.doc_lengths.dtype
    assert np.array_equal(built.doc_lengths, oracle.doc_lengths)
    assert built.average_doc_length == oracle.average_doc_length
    assert built.block_size == oracle.block_size
    assert built.dictionary.terms() == oracle.dictionary.terms()
    for term_id, term in enumerate(oracle.dictionary):
        assert built.term_info(term) == oracle.term_info(term)
        ours = built.postings_for_id(term_id)
        theirs = oracle.postings_for_id(term_id)
        for mine, reference in zip(ours, theirs):
            assert np.array_equal(mine, reference)
            assert mine.dtype == reference.dtype == np.int64
        # Statistics against the validated list, not the shared constructor.
        assert built.term_info(term).document_frequency == theirs[0].size
        assert built.term_info(term).collection_frequency == int(
            theirs[1].sum()
        )
        ours = built.block_metadata_for_id(term_id)
        theirs = oracle.block_metadata_for_id(term_id)
        assert ours.block_size == theirs.block_size
        for name in ("last_doc_ids", "max_frequencies", "min_doc_lengths"):
            assert getattr(ours, name).dtype == np.int64
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))


def make_collection(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return collection


@pytest.fixture(scope="module")
def golden_collection():
    return CorpusGenerator(GOLDEN_CORPUS).generate()


# ----------------------------------------------------------------------
# build == oracle


class TestBuildMatchesOracle:
    @pytest.mark.parametrize("block_size", [1, 7, 128])
    def test_golden_corpus(self, golden_collection, block_size):
        built = IndexBuilder(block_size=block_size).build(golden_collection)
        assert built.num_terms > 1_000 and built.total_postings > 10_000
        assert_same_index(
            built, oracle_build(golden_collection, block_size=block_size)
        )

    @pytest.mark.parametrize("partitions", [1, 2, 3])
    def test_every_shard_through_partition_index(
        self, golden_collection, partitions
    ):
        partitioned = partition_index(
            golden_collection, partitions, block_size=7
        )
        shard_collections = partition_collection(golden_collection, partitions)
        assert partitioned.num_partitions == partitions
        for shard, shard_collection in zip(partitioned, shard_collections):
            assert_same_index(
                shard.index, oracle_build(shard_collection, block_size=7)
            )

    @pytest.mark.parametrize("name", sorted(ANALYZERS))
    def test_analyzer_variants(self, golden_collection, name):
        analyzer = ANALYZERS[name]
        built = IndexBuilder(analyzer=analyzer, block_size=7).build(
            golden_collection
        )
        assert_same_index(
            built, oracle_build(golden_collection, analyzer, block_size=7)
        )

    def test_variants_differ_from_each_other(self, golden_collection):
        blobs = {
            serialize_index(IndexBuilder(analyzer=analyzer).build(golden_collection))
            for analyzer in ANALYZERS.values()
        }
        assert len(blobs) == len(ANALYZERS)

    @pytest.mark.parametrize(
        "texts",
        [
            [],
            ["the of and"],
            ["", "the", ""],
            ["only one document about running runners"],
            ["Mixed CASE case Case 42 x42 42x 007 7", "case 42 CASE"],
            ["a" * 300 + " short " + "b" * 255, "b" * 255],
            ["alpha beta", "", "the", "beta gamma beta", ""],
        ],
        ids=[
            "empty_collection",
            "no_surviving_term",
            "empty_documents",
            "one_document",
            "mixed_case_and_digits",
            "over_long_tokens",
            "gaps_between_documents",
        ],
    )
    @pytest.mark.parametrize("block_size", [1, 2, 128])
    def test_small_collections(self, texts, block_size):
        collection = make_collection(texts)
        for analyzer in ANALYZERS.values():
            assert_same_index(
                IndexBuilder(analyzer, block_size).build(collection),
                oracle_build(collection, analyzer, block_size),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(
                st.sampled_from(
                    "the a Runs running runner runners cat Cats x 42 nations "
                    "ly es sing SING abilities zzzzzzzzzz of".split()
                ),
                max_size=12,
            ).map(" ".join),
            max_size=9,
        ),
        block_size=st.sampled_from([1, 2, 3, 128]),
        name=st.sampled_from(sorted(ANALYZERS)),
    )
    def test_random_collections(self, texts, block_size, name):
        collection = make_collection(texts)
        assert_same_index(
            IndexBuilder(ANALYZERS[name], block_size).build(collection),
            oracle_build(collection, ANALYZERS[name], block_size),
        )

    def test_a_changed_tf_is_noticed(self, golden_collection):
        """The comparison is not vacuous: one tf off by one fails it."""
        built = IndexBuilder().build(golden_collection)
        oracle = oracle_build(golden_collection)
        _, frequencies = oracle.postings_for_id(3)
        frequencies[0] += 1
        with pytest.raises(AssertionError):
            assert_same_index(built, oracle)


# ----------------------------------------------------------------------
# the per-token definition of the chain


class TestNormalize:
    TEXTS = [
        "The Quick brown foxes are RUNNING, running; runs!",
        "nations Nationalization abilities 42 x42 " + "q" * 300,
        "",
        "of the and",
    ]

    @pytest.mark.parametrize("name", sorted(ANALYZERS))
    def test_analyze_is_normalize_over_tokens(self, name, golden_collection):
        analyzer = ANALYZERS[name]
        tokenize = Tokenizer(analyzer.config.max_token_length).tokenize
        texts = self.TEXTS + [golden_collection[i].text for i in range(20)]
        for text in texts:
            expected = [
                term for term in map(analyzer.normalize, tokenize(text)) if term
            ]
            assert analyzer.analyze(text) == expected
            assert analyzer.analyze(text) == oracle_analyze(analyzer, text)

    def test_dropped_tokens_normalize_to_empty(self):
        analyzer = default_analyzer()
        assert analyzer.normalize("The") == ""
        assert analyzer.normalize("q" * 256) == ""
        assert analyzer.normalize("q" * 255) == "q" * 255
        assert analyzer.normalize("Running") == "runn"
        assert ANALYZERS["short_tokens"].normalize("abcde") == ""
        assert ANALYZERS["keep_case"].normalize("The") == "The"

    def test_no_tokenizer_or_stemmer_per_call(self, monkeypatch):
        from repro.text import analyzer as analyzer_module

        built = []
        for name in ("Tokenizer", "SuffixStemmer"):
            original = getattr(analyzer_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(analyzer_module, name, counting)
        analyzer = default_analyzer()
        assert sorted(built) == ["SuffixStemmer", "Tokenizer"]
        for _ in range(5):
            analyzer.analyze("some Words to analyze, repeatedly")
            analyzer.normalize("Words")
        assert len(built) == 2


# ----------------------------------------------------------------------
# the corpus did not change by a byte (constants captured at 9662971)


def corpus_sha256(config):
    digest = hashlib.sha256()
    for document in CorpusGenerator(config).generate():
        digest.update(
            f"{document.doc_id}\x00{document.url}\x00{document.title}"
            f"\x00{document.body}\x01".encode()
        )
    return digest.hexdigest()


class TestCorpusPins:
    def test_small_corpus(self):
        assert corpus_sha256(SMALL_CORPUS_CONFIG) == (
            "ac57644d27fc845c202383ac7007888dc172c510878d5f9e81ed4f618a90b8a6"
        )

    def test_drifted_corpus(self):
        config = replace(
            SMALL_CORPUS_CONFIG,
            num_documents=150,
            topic_drift=2.5,
            stopword_fraction=0.4,
            seed=5,
        )
        assert corpus_sha256(config) == (
            "40d2d1d07ce051bc4fabf343427fa6a57a318e452367f49505a6b69cb98c4e1d"
        )


# ----------------------------------------------------------------------
# one stem per distinct raw token; invariants still checked on every build


def stem_calls(function):
    profile = cProfile.Profile()
    profile.enable()
    function()
    profile.disable()
    return sum(
        calls
        for (_, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if name == "stem"
    )


class TestOnePassBuild:
    def test_stem_called_once_per_distinct_token(self, golden_collection):
        tokenize = Tokenizer().tokenize
        distinct = {
            token
            for document in golden_collection
            for token in tokenize(document.text)
        }
        occurrences = sum(
            len(tokenize(document.text)) for document in golden_collection
        )
        assert occurrences > 5 * len(distinct)
        calls = stem_calls(lambda: IndexBuilder().build(golden_collection))
        assert 0 < calls <= len(distinct)

    def test_positional_build_uses_the_memo(self, golden_collection):
        """Two memoised passes: the frequency index's and the positions'."""
        from repro.index.positional import PositionalIndexBuilder

        distinct = {
            token
            for document in golden_collection
            for token in Tokenizer().tokenize(document.text)
        }
        calls = stem_calls(
            lambda: PositionalIndexBuilder().build(golden_collection)
        )
        assert 0 < calls <= 2 * len(distinct)

    def test_nothing_survives_a_build(self, golden_collection):
        """No cross-build cache: a second build analyzes again."""
        builder = IndexBuilder()
        first = stem_calls(lambda: builder.build(golden_collection))
        second = stem_calls(lambda: builder.build(golden_collection))
        assert first == second > 0

    def test_postings_are_views_of_two_shared_arrays(self, golden_collection):
        index = IndexBuilder().build(golden_collection)
        lists = [index.postings_for_id(t) for t in range(index.num_terms)]
        doc_bases = {id(doc_ids.base) for doc_ids, _ in lists}
        freq_bases = {id(frequencies.base) for _, frequencies in lists}
        assert doc_bases == {id(index.layout.doc_ids)}
        assert freq_bases == {id(index.layout.frequencies)}


class TestInvariantsStillChecked:
    """A hand-corrupted key array fails ``check_postings``."""

    NUM_DOCS = 10

    def keys(self, pairs):
        return np.array(
            [term * self.NUM_DOCS + doc for term, doc in pairs], dtype=np.int64
        )

    def test_clean_keys_pass(self):
        keys = self.keys([(0, 1), (0, 1), (0, 4), (1, 0), (2, 9), (2, 9)])
        doc_ids, frequencies, offsets = builder_module._postings_from_keys(
            keys, self.NUM_DOCS, num_terms=3
        )
        assert doc_ids.tolist() == [1, 4, 0, 9]
        assert frequencies.tolist() == [2, 1, 1, 2]
        assert offsets.tolist() == [0, 2, 3, 4]

    def test_unsorted_doc_ids_within_a_term(self):
        keys = self.keys([(0, 4), (0, 1), (1, 0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            builder_module._postings_from_keys(keys, self.NUM_DOCS, num_terms=2)
        with pytest.raises(ValueError, match="strictly increasing"):
            check([4, 1], [1, 1])

    def test_repeated_doc_id_within_a_term(self):
        # (0, 1) twice but not adjacent: two postings for one document
        keys = self.keys([(0, 1), (0, 4), (0, 1)])
        with pytest.raises(ValueError, match="strictly increasing"):
            builder_module._postings_from_keys(keys, self.NUM_DOCS, num_terms=1)

    def test_negative_doc_id(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_postings(
                np.array([-1, 2], dtype=np.int64),
                np.array([1, 1], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="non-negative"):
            check([-1, 2], [1, 1])

    def test_non_positive_frequency(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_postings(
                np.array([1, 2], dtype=np.int64),
                np.array([1, 0], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="must be positive"):
            check([1, 2], [1, 0])

    def test_unequal_shapes(self):
        with pytest.raises(ValueError, match="equal length"):
            check_postings(
                np.array([1, 2], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="equal length"):
            check([1, 2], [1])

    def test_list_boundaries_may_step_down(self):
        check_postings(
            np.array([3, 7, 0, 2], dtype=np.int64),
            np.array([1, 1, 1, 1], dtype=np.int64),
            np.array([0, 2, 4], dtype=np.int64),
        )

    def test_build_runs_the_check(self, golden_collection, monkeypatch):
        seen = []
        original = builder_module.check_postings

        def spy(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(builder_module, "check_postings", spy)
        IndexBuilder().build(golden_collection)
        assert len(seen) == 1
