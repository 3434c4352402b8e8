"""Pass 1 from the generator's token ids against pass 1 from the text.

A generated collection carries its raw tokens as ids into one token
table, and the index builder analyzes each table entry once instead of
regex-tokenizing every document.  A collection without ids (loaded from
disk, built by hand) is tokenized into the same form first.  Both must
give the index the text gives: byte for byte the serialized index of
``oracle_build`` (``tests/test_index_build_golden.py``), for every
analyzer variant, through ``partition_index`` at several partition
counts, with no documents and with more partitions than documents.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection, TokenIds
from repro.corpus.generator import CorpusGenerator
from repro.corpus.io import load_collection, save_collection
from repro.index.builder import IndexBuilder, token_ids
from repro.index.partitioner import partition_collection, partition_index
from repro.index.positional import PositionalIndexBuilder
from repro.index.serialization import serialize_index, serialize_positional_index
from tests.conftest import SMALL_CORPUS_CONFIG
from tests.test_index_build_golden import ANALYZERS, assert_same_index, oracle_build


def text_only(collection):
    """The same documents with no token ids: the text path."""
    return DocumentCollection(list(collection))


@pytest.fixture(scope="module")
def generated():
    collection = CorpusGenerator(SMALL_CORPUS_CONFIG).generate()
    assert collection.tokens is not None
    return collection


@pytest.mark.parametrize("name", sorted(ANALYZERS))
def test_ids_build_the_text_index(generated, name):
    analyzer = ANALYZERS[name]
    from_ids = IndexBuilder(analyzer=analyzer, block_size=7).build(generated)
    from_text = IndexBuilder(analyzer=analyzer, block_size=7).build(
        text_only(generated)
    )
    assert serialize_index(from_ids) == serialize_index(from_text)
    assert_same_index(from_ids, oracle_build(generated, analyzer, block_size=7))


@pytest.mark.parametrize("name", sorted(ANALYZERS))
@pytest.mark.parametrize("partitions", [1, 2, 3])
def test_every_shard(generated, name, partitions):
    analyzer = ANALYZERS[name]
    from_ids = partition_index(generated, partitions, analyzer, block_size=7)
    from_text = partition_index(
        text_only(generated), partitions, analyzer, block_size=7
    )
    shard_collections = partition_collection(generated, partitions)
    for ours, theirs, shard_collection in zip(
        from_ids, from_text, shard_collections
    ):
        assert shard_collection.tokens is not None
        assert np.array_equal(ours.global_doc_ids, theirs.global_doc_ids)
        assert serialize_index(ours.index) == serialize_index(theirs.index)
        assert_same_index(
            ours.index, oracle_build(shard_collection, analyzer, block_size=7)
        )


@pytest.mark.parametrize("partitions", [1, 2, 5])
def test_no_documents(partitions):
    empty = CorpusGenerator(replace(SMALL_CORPUS_CONFIG, num_documents=0)).generate()
    assert empty.tokens.num_documents == 0
    for shard in partition_index(empty, partitions):
        assert_same_index(shard.index, oracle_build(DocumentCollection()))


@pytest.mark.parametrize("name", sorted(ANALYZERS))
def test_more_partitions_than_documents(name):
    analyzer = ANALYZERS[name]
    few = CorpusGenerator(replace(SMALL_CORPUS_CONFIG, num_documents=3)).generate()
    shards = partition_index(few, 5, analyzer)
    assert [shard.num_documents for shard in shards] == [1, 1, 1, 0, 0]
    for shard, shard_collection in zip(shards, partition_collection(few, 5)):
        assert_same_index(shard.index, oracle_build(shard_collection, analyzer))


@pytest.mark.parametrize("name", sorted(ANALYZERS))
def test_analyzed_text_is_what_was_indexed(generated, name):
    """Analyzing any document's text gives the (term, tf) multiset the
    id path indexed for it."""
    analyzer = ANALYZERS[name]
    index = IndexBuilder(analyzer=analyzer).build(generated)
    indexed = [Counter() for _ in range(len(generated))]
    for term_id, term in enumerate(index.dictionary):
        doc_ids, frequencies = index.postings_for_id(term_id)
        for doc_id, frequency in zip(doc_ids.tolist(), frequencies.tolist()):
            indexed[doc_id][term] = frequency
    for document in generated:
        assert Counter(analyzer.analyze(document.text)) == indexed[document.doc_id]
        assert sum(indexed[document.doc_id].values()) == int(
            index.doc_lengths[document.doc_id]
        )


def test_positional_index_from_ids(generated):
    built = PositionalIndexBuilder().build(generated)
    assert serialize_positional_index(built) == serialize_positional_index(
        PositionalIndexBuilder().build(text_only(generated))
    )


def test_loaded_collection_is_tokenized(generated, tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_collection(generated, path)
    loaded = load_collection(path)
    assert loaded.tokens is None
    assert serialize_index(IndexBuilder().build(loaded)) == serialize_index(
        IndexBuilder().build(generated)
    )


class TestTokenIds:
    def test_tokenized_form(self):
        collection = DocumentCollection()
        collection.add(Document(0, "u0", "Run", "run, RUN run."))
        collection.add(Document(1, "u1", "", ""))
        collection.add(Document(2, "u2", "x", "run 42"))
        tokens = token_ids(collection, ANALYZERS["default"])
        assert list(tokens.table) == ["Run", "run", "RUN", "x", "42"]
        assert tokens.ids.tolist() == [0, 1, 2, 1, 3, 1, 4]
        assert tokens.ids.dtype == np.uint8
        assert tokens.offsets.tolist() == [0, 4, 4, 7]

    def test_over_long_tokens_are_dropped_by_the_analyzer(self):
        collection = DocumentCollection()
        collection.add(Document(0, "u0", "", "tiny loooong tiny"))
        analyzer = ANALYZERS["short_tokens"]
        index = IndexBuilder(analyzer=analyzer).build(collection)
        assert index.doc_lengths.tolist() == [2]
        assert_same_index(index, oracle_build(collection, analyzer))

    def test_take(self):
        tokens = TokenIds(
            ["a", "b", "c"], np.array([0, 1, 2, 2, 1, 0]), np.array([0, 2, 2, 6])
        )
        taken = tokens.take([2, 0, 1])
        assert taken.table is tokens.table
        assert taken.ids.tolist() == [2, 2, 1, 0, 0, 1]
        assert taken.offsets.tolist() == [0, 4, 6, 6]
        assert tokens.take([]).offsets.tolist() == [0]
        assert tokens.take([0, 1, 2]) is tokens

    def test_add_drops_the_ids(self, generated):
        collection = DocumentCollection(list(generated), generated.tokens)
        collection.add(Document(len(generated), "u", "", "fresh words"))
        assert collection.tokens is None
        index = IndexBuilder().build(collection)
        assert index.num_documents == len(generated) + 1

    def test_ids_must_cover_the_collection(self, generated):
        shorter = DocumentCollection(list(generated)[:10], generated.tokens)
        with pytest.raises(ValueError, match="cover 300 documents"):
            IndexBuilder().build(shorter)
