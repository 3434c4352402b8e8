"""The shard merge against the heap it replaced, and what it relies on.

``merge_shard_results`` used to re-offer every shard hit to a
:class:`TopKHeap` and rebuild the survivors; it is now a k-way merge of
the shard lists that keeps the hit objects.  That is only the same
function if every shard list arrives best first, so the first half pins
that contract for all four traversals — local ids, global ids under
every partition strategy, a depth-truncated Block-Max WAND — and the
second half holds the merge to the old loop, written out below as the
oracle, hit for hit.
"""

import numpy as np
import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.partitioner import PartitionStrategy, partition_index
from repro.search.executor import ALGORITHMS, Searcher, ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.merger import merge_shard_results
from repro.search.topk import SearchHit, TopKHeap


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
    """The local→global remap rewrites the traversal's hits in place."""
    built = []
    init = SearchHit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    shard = partition_index(small_collection, 2)[1]
    searcher = ShardSearcher(shard)
    monkeypatch.setattr(SearchHit, "__init__", counting_init)
    result = searcher.search(texts[0], k=10)
    assert result.hits and len(built) == len(result.hits)
    assert all(a is b for a, b in zip(built, result.hits))
    assert set(result.doc_ids()) <= set(shard.global_doc_ids.tolist())
