"""An index keeps its arrays and a term → id map: no object per term.

Opening an index (building it from a layout, or attaching the image a
process worker maps) must cost array work, not a Python object per
term: the count of objects the garbage collector tracks may not grow
with the vocabulary.  Strings and ints are untracked, so the
dictionary's ``dict`` and its two lists of Python ints count as three
objects however many terms they hold; a per-term record of any kind
(a dataclass, a named tuple, a postings wrapper) counts once per term.
"""

import gc

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.index.builder import IndexBuilder
from repro.index.inverted import InvertedIndex
from repro.index.partitioner import partition_index
from repro.index.serialization import deserialize_index, serialize_index
from repro.index.shared import SharedIndexArena, attach_shared_index

#: Far below one object per term of a >= 10,000-term vocabulary.
MAX_NEW_OBJECTS = 50


@pytest.fixture(scope="module")
def collection():
    return CorpusGenerator(CorpusConfig(num_documents=400, seed=5)).generate()


@pytest.fixture(scope="module")
def built(collection):
    index = IndexBuilder().build(collection)
    assert index.num_terms >= 10_000
    return index


def new_tracked_objects(make):
    """``(result, tracked objects added by make())`` with the GC off."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = make()
        return result, len(gc.get_objects()) - before
    finally:
        gc.enable()


def test_construction_builds_no_per_term_object(built):
    terms = built.dictionary.terms()
    index, added = new_tracked_objects(
        lambda: InvertedIndex(
            terms,
            built.layout,
            built.doc_lengths,
            built.analyzer,
            built.block_size,
        )
    )
    assert index.num_terms == built.num_terms
    assert added < MAX_NEW_OBJECTS, added


def test_attach_builds_no_per_term_object(collection, built):
    partitioned = partition_index(collection, 1)
    assert partitioned[0].index.num_terms == built.num_terms
    with SharedIndexArena(partitioned) as arena:
        attach_shared_index(arena.spec)  # imports what mapping needs
        attached, added = new_tracked_objects(
            lambda: attach_shared_index(arena.spec)
        )
        assert attached[0].index.num_terms == built.num_terms
        assert added < MAX_NEW_OBJECTS, added


def test_a_per_term_record_would_trip_it(built):
    """Self-test: one small record per term is far over the bound."""
    terms = built.dictionary.terms()
    _, added = new_tracked_objects(
        lambda: [(term, [term_id]) for term_id, term in enumerate(terms)]
    )
    assert added > MAX_NEW_OBJECTS * 100


def test_built_loaded_and_attached_serialize_identically(collection):
    """One shape whichever way an index was opened."""
    partitioned = partition_index(collection, 1)
    built = partitioned[0].index
    data = serialize_index(built)
    assert serialize_index(deserialize_index(data)) == data
    with SharedIndexArena(partitioned) as arena:
        attached = attach_shared_index(arena.spec)[0].index
        assert serialize_index(attached) == data
