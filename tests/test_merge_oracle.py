"""The shard merge against the heap it replaced, what it relies on, and
the postings merge against a scalar reference.

``merge_shard_results`` used to re-offer every shard hit to a
:class:`TopKHeap` and rebuild the survivors; it is now a k-way merge of
the shard lists that keeps the hit objects.  That is only the same
function if every shard list arrives best first, so the first half pins
that contract for all four traversals — local ids, global ids under
every partition strategy, a depth-truncated Block-Max WAND — and the
second half holds the merge to the old loop, written out below as the
oracle, hit for hit.  The last part holds DAAT's and Block-Max WAND's
one scoring kernel, ``_merge_postings``, to a scalar loop that sums each
document's postings from 0.0 in term order, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.partitioner import PartitionStrategy, partition_index
from repro.search import daat
from repro.search.daat import _merge_postings
from repro.search.executor import ALGORITHMS, Searcher, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.merger import merge_shard_results
from repro.search.topk import SearchHit, TopKHeap, select_top_k


def heap_merge(shard_hits, k):
    """``merge_shard_results`` as it was before the k-way merge."""
    heap = TopKHeap(k)
    for hits in shard_hits:
        for hit in hits:
            heap.offer(hit.doc_id, hit.score)
    return heap.results()


def pairs(hits):
    return [(hit.doc_id, hit.score) for hit in hits]


def is_best_first(hits):
    keys = [hit.sort_key() for hit in hits]
    return keys == sorted(keys)


@pytest.fixture(scope="module")
def texts(small_query_log):
    return [query.text for query in list(small_query_log)[:25]]


@pytest.fixture(scope="module")
def tied_collection():
    """Four distinct bodies, each repeated six times: every score ties."""
    bodies = [
        "alpha beta gamma",
        "alpha alpha delta epsilon",
        "beta gamma gamma zeta eta",
        "alpha beta beta",
    ]
    collection = DocumentCollection()
    for doc_id in range(24):
        collection.add(
            Document(
                doc_id=doc_id,
                url=f"u{doc_id}",
                title="",
                body=bodies[doc_id % 4],
            )
        )
    return collection


class TestTraversalsReturnBestFirst:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_local_ids(self, small_index, texts, algorithm):
        searcher = Searcher(small_index, algorithm=algorithm)
        for text in texts:
            for k in (1, 10, 1000):
                assert is_best_first(searcher.search(text, k=k).hits)

    def test_depth_truncated_block_max_wand(self, small_index, texts):
        searcher = Searcher(small_index, algorithm="block_max_wand")
        truncated = 0
        for text in texts:
            result = searcher.search(text, k=10, max_docs_scored=12)
            truncated += result.truncated
            assert is_best_first(result.hits)
        assert truncated, "no query was deep enough to be cut short"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("strategy", list(PartitionStrategy))
    def test_global_ids_under_every_strategy(
        self, small_collection, texts, algorithm, strategy
    ):
        partitioned = partition_index(small_collection, 3, strategy=strategy)
        for shard in partitioned:
            # The remap keeps a tie's order because the map is ascending.
            assert (np.diff(shard.global_doc_ids) > 0).all()
            searcher = ShardSearcher(shard, algorithm=algorithm)
            for text in texts:
                assert is_best_first(searcher.search(text, k=10).hits)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_ties_rank_the_lower_doc_id_first(self, tied_collection, algorithm):
        reference = Searcher(IndexBuilder().build(tied_collection))
        partitioned = partition_index(tied_collection, 3)
        factory = global_scorer_factory(partitioned)
        for text in ("alpha", "alpha beta", "gamma zeta"):
            for k in (3, 7, 50):
                shard_hits = [
                    ShardSearcher(
                        shard, algorithm=algorithm, scorer_factory=factory
                    ).search(text, k=k).hits
                    for shard in partitioned
                ]
                assert all(is_best_first(hits) for hits in shard_hits)
                scores = [hit.score for hits in shard_hits for hit in hits]
                assert len(set(scores)) < len(scores), "expected tied scores"
                merged = merge_shard_results(shard_hits, k=k)
                assert pairs(merged) == pairs(heap_merge(shard_hits, k))
                assert pairs(merged) == pairs(reference.search(text, k=k).hits)


class TestMergeEqualsTheHeap:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 4])
    def test_on_real_shard_results(
        self, small_collection, texts, algorithm, num_partitions
    ):
        partitioned = partition_index(small_collection, num_partitions)
        factory = global_scorer_factory(partitioned)
        searchers = [
            ShardSearcher(shard, algorithm=algorithm, scorer_factory=factory)
            for shard in partitioned
        ]
        for text in texts:
            # 1,000 exceeds the collection: k larger than the union.
            for k in (1, 5, 10, 1000):
                shard_hits = [
                    searcher.search(text, k=min(k, 10)).hits
                    for searcher in searchers
                ]
                merged = merge_shard_results(shard_hits, k=k)
                assert isinstance(merged, list)
                assert pairs(merged) == pairs(heap_merge(shard_hits, k))

    def test_ties_across_shards_at_the_kth_place(self):
        shard_a = [SearchHit(2.0, 8), SearchHit(1.0, 9), SearchHit(1.0, 30)]
        shard_b = [SearchHit(1.0, 4), SearchHit(1.0, 12), SearchHit(0.5, 1)]
        shard_c = [SearchHit(3.0, 7), SearchHit(1.0, 2)]
        shards = [shard_a, shard_b, shard_c]
        for k in range(1, 10):
            merged = merge_shard_results(shards, k=k)
            assert pairs(merged) == pairs(heap_merge(shards, k))
        assert [hit.doc_id for hit in merge_shard_results(shards, k=4)] == [
            7, 8, 2, 4,
        ]

    def test_reuses_the_shard_hit_objects(self):
        shard_a = (SearchHit(3.0, 1), SearchHit(1.0, 3))
        shard_b = (SearchHit(2.0, 2),)
        merged = merge_shard_results([shard_a, shard_b], k=3)
        assert [id(hit) for hit in merged] == [
            id(shard_a[0]), id(shard_b[0]), id(shard_a[1]),
        ]
        alone = merge_shard_results([shard_a], k=1)
        assert alone == [shard_a[0]] and alone[0] is shard_a[0]

    @pytest.mark.parametrize("shards", [[], [[]], [[], ()]])
    def test_nothing_to_merge(self, shards):
        assert merge_shard_results(shards, k=5) == heap_merge(shards, 5) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_still_raises(self, k):
        for shards in ([], [[SearchHit(1.0, 0)]], [[SearchHit(1.0, 0)], []]):
            with pytest.raises(ValueError, match="k must be positive"):
                merge_shard_results(shards, k=k)
            with pytest.raises(ValueError, match="k must be positive"):
                heap_merge(shards, k)


def test_a_search_builds_each_hit_once(small_collection, texts, monkeypatch):
    """Shard-local ids are mapped before the hits are built: one hit
    per result, constructed once.  ``select_top_k`` builds a hit with
    ``tuple.__new__``, which runs no frame of its own, so the test
    holds the searcher's hits to the very objects the kernel built."""
    built = []

    def spying_select(*args):
        hits = select_top_k(*args)
        built.append(hits)
        return hits

    shard = partition_index(small_collection, 2)[1]
    searcher = ShardSearcher(shard)
    monkeypatch.setattr(daat, "select_top_k", spying_select)
    result = searcher.search(texts[0], k=10)
    assert len(built) == 1 and result.hits
    assert len(built[0]) == len(result.hits)
    assert all(a is b for a, b in zip(built[0], result.hits))
    assert all(type(hit) is SearchHit for hit in result.hits)
    assert set(result.doc_ids()) <= set(shard.global_doc_ids.tolist())


def scalar_merge(lists):
    """Every document's contributions summed one term at a time.

    ``lists`` holds one ``(doc_ids, contributions)`` pair per term, in
    query-term order.  Returns the distinct doc ids ascending, their
    sums from 0.0 in term order, and how many terms matched each.
    """
    totals, matched = {}, {}
    for doc_ids, contributions in lists:
        pairs = zip(doc_ids.tolist(), contributions.tolist())
        for doc_id, contribution in pairs:
            totals[doc_id] = totals.get(doc_id, 0.0) + contribution
            matched[doc_id] = matched.get(doc_id, 0) + 1
    documents = sorted(totals)
    return (
        np.array(documents, dtype=np.int64),
        np.array([totals[doc] for doc in documents], dtype=np.float64),
        np.array([matched[doc] for doc in documents], dtype=np.int64),
    )


#: Sums of these round differently in different orders ((0.1 + 0.2) +
#: 0.3 != (0.3 + 0.2) + 0.1; 1e16 absorbs a 1.0), so the order of the
#: additions shows in the bits.
contribution = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e16, -1e16, 0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(-1e-12, 1e-12, allow_nan=False, allow_infinity=False),
)

#: Three terms on one document whose term-order sum no other order gives.
ORDER_SENSITIVE = [
    (np.array([3]), np.array([0.1])),
    (np.array([3]), np.array([0.2])),
    (np.array([3]), np.array([0.3])),
]


@st.composite
def term_lists(draw):
    """1-6 doc-sorted postings lists, with shared or disjoint doc ids."""
    count = draw(st.integers(1, 6))
    disjoint = draw(st.booleans())
    # A small universe makes the lists share most of their documents.
    universe = draw(st.integers(1, 30))
    lists = []
    for term in range(count):
        doc_ids = sorted(
            draw(st.sets(st.integers(0, universe - 1), max_size=25))
        )
        if disjoint:
            # A range of its own per term: no document is shared.
            doc_ids = [term * universe + doc_id for doc_id in doc_ids]
        scores = [draw(contribution) for _ in doc_ids]
        lists.append((np.array(doc_ids, dtype=np.int64), np.array(scores)))
    return lists


def merged(lists):
    """``_merge_postings`` over ``lists``, with how many matched each."""
    documents, totals, segment = _merge_postings(
        np.concatenate([doc_ids for doc_ids, _ in lists]),
        np.concatenate([scores for _, scores in lists]),
        len(lists),
    )
    if segment is None:
        return documents, totals, np.ones(len(documents), dtype=np.int64)
    return documents, totals, np.bincount(segment)


class TestPostingsMergeOracle:
    """``_merge_postings`` is the scalar per-document loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(term_lists())
    @example(ORDER_SENSITIVE)
    @example([(np.array([1, 4, 9]), np.array([-0.0, 0.5, -0.0]))])
    def test_equals_the_scalar_loop(self, lists):
        documents, totals, matched = merged(lists)
        want_documents, want_totals, want_matched = scalar_merge(lists)
        assert documents.tobytes() == want_documents.tobytes()
        assert totals.tobytes() == want_totals.tobytes()
        assert matched.tobytes() == want_matched.tobytes()
        # AND mode keeps the documents every term matched.
        required = matched >= len(lists)
        everywhere = set(documents.tolist())
        for doc_ids, _ in lists:
            everywhere &= set(doc_ids.tolist())
        assert set(documents[required].tolist()) == everywhere

    def test_order_of_the_terms_shows_in_the_bits(self):
        """Self-test: the data tells a term-order sum from the reverse."""
        _, totals, _ = merged(ORDER_SENSITIVE)
        assert totals.tolist() == [(0.1 + 0.2) + 0.3]
        assert (0.3 + 0.2) + 0.1 != (0.1 + 0.2) + 0.3

    @pytest.mark.parametrize(
        "contributions",
        [[-0.0, 1.5, -0.0], [0.0, -2.0, 3.25], [-0.0], []],
    )
    def test_one_list_passes_through(self, contributions):
        """One list is returned as it came, summed from 0.0: a -0.0
        contribution totals +0.0, as bincount's ``0.0 + c`` gives it,
        and no segments are built."""
        doc_ids = np.arange(2, 2 + 3 * len(contributions), 3, dtype=np.int64)
        scores = np.array(contributions, dtype=np.float64)
        documents, totals, segment = _merge_postings(doc_ids, scores, 1)
        assert documents is doc_ids and segment is None
        reference = np.bincount(
            np.arange(len(scores)), weights=scores, minlength=len(scores)
        )
        assert totals.tobytes() == reference.tobytes()
        scalar = scalar_merge([(doc_ids, scores)])[1]
        assert totals.tobytes() == scalar.tobytes()
        assert not np.signbit(totals[totals == 0.0]).any()
