"""Segment-based incremental indexing.

The benchmark's index is static, but the engine it models (Lucene)
maintains its index as a set of immutable **segments**: new documents
go into a fresh segment, deletes are tombstones, and a background
merge policy keeps the segment count bounded by rewriting small
segments into bigger ones.  Queries fan out over all live segments and
merge — the same machinery as intra-server partitions, which is no
coincidence: a multi-segment index *is* a partitioned index whose
partition count drifts with update activity.  The F20 benchmark
measures exactly that drift's latency cost and what a merge buys back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.partitioner import IndexShard
from repro.search.executor import ShardSearcher
from repro.search.merger import merge_shard_results
from repro.search.query import DEFAULT_TOP_K, ParsedQuery, QueryMode, QueryParser
from repro.search.scoring import global_bm25_scorer
from repro.search.topk import SearchHit
from repro.text.analyzer import Analyzer, default_analyzer


@dataclass(frozen=True)
class MergePolicy:
    """Tiered merge policy.

    Attributes
    ----------
    max_segments:
        When the live segment count exceeds this, :meth:`maybe_merge`
        merges the ``merge_factor`` smallest segments into one.
    merge_factor:
        Segments combined per merge operation.
    """

    max_segments: int = 8
    merge_factor: int = 4

    def __post_init__(self) -> None:
        if self.max_segments <= 0:
            raise ValueError("max_segments must be positive")
        if self.merge_factor < 2:
            raise ValueError("merge_factor must be at least 2")


class _Segment:
    """One immutable segment: an index plus its source documents."""

    def __init__(self, documents: List[Document], global_ids: List[int],
                 analyzer: Analyzer):
        collection = DocumentCollection()
        for local_id, document in enumerate(documents):
            collection.add(
                Document(
                    doc_id=local_id,
                    url=document.url,
                    title=document.title,
                    body=document.body,
                )
            )
        self.documents = list(collection)
        self.shard = IndexShard(
            shard_id=0,
            index=IndexBuilder(analyzer).build(collection),
            global_doc_ids=np.asarray(global_ids, dtype=np.int64),
        )

    @property
    def num_documents(self) -> int:
        return len(self.documents)

    def live_documents(self, deleted: Set[int]) -> List[Tuple[int, Document]]:
        """(global_id, document) pairs excluding tombstoned ids."""
        return [
            (int(global_id), document)
            for global_id, document in zip(
                self.shard.global_doc_ids, self.documents
            )
            if int(global_id) not in deleted
        ]


class SegmentedIndex:
    """A mutable index: immutable segments + tombstones + merges."""

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        merge_policy: MergePolicy = MergePolicy(),
    ):
        self.analyzer = analyzer or default_analyzer()
        self.merge_policy = merge_policy
        self._segments: List[_Segment] = []
        self._deleted: Set[int] = set()
        self._documents: Dict[int, Document] = {}
        self._next_global_id = 0
        self._parser = QueryParser(self.analyzer)
        self.merges_performed = 0
        self._scorer_cache = None

    # -- introspection -------------------------------------------------

    @property
    def num_segments(self) -> int:
        """Live segment count."""
        return len(self._segments)

    @property
    def num_documents(self) -> int:
        """Live (non-deleted) document count."""
        return len(self._documents) - len(self._deleted)

    @property
    def num_deleted(self) -> int:
        """Tombstoned document count."""
        return len(self._deleted)

    def document(self, global_id: int) -> Document:
        """Fetch a live document by global id."""
        if global_id in self._deleted or global_id not in self._documents:
            raise KeyError(f"document {global_id} does not exist")
        return self._documents[global_id]

    # -- mutation ------------------------------------------------------

    def add_documents(self, documents: Sequence[Document]) -> List[int]:
        """Index a batch as one new segment; returns the global ids.

        The ``doc_id`` field of the inputs is ignored — global ids are
        assigned densely by arrival order, as a crawler feeding the
        indexer would.
        """
        if not documents:
            return []
        global_ids = list(
            range(self._next_global_id, self._next_global_id + len(documents))
        )
        self._next_global_id += len(documents)
        self._segments.append(
            _Segment(list(documents), global_ids, self.analyzer)
        )
        for global_id, document in zip(global_ids, documents):
            self._documents[global_id] = document
        self._scorer_cache = None
        self.maybe_merge()
        return global_ids

    def delete_document(self, global_id: int) -> None:
        """Tombstone a document (idempotent for live ids)."""
        if global_id not in self._documents or global_id in self._deleted:
            raise KeyError(f"document {global_id} does not exist")
        self._deleted.add(global_id)
        self._scorer_cache = None

    def maybe_merge(self) -> bool:
        """Apply the merge policy once; returns True if it merged."""
        if self.num_segments <= self.merge_policy.max_segments:
            return False
        by_size = sorted(self._segments, key=lambda s: s.num_documents)
        victims = by_size[: self.merge_policy.merge_factor]
        self._merge(victims)
        return True

    def force_merge(self) -> None:
        """Merge everything into a single segment (optimize)."""
        if self.num_segments <= 1 and not self._deleted:
            return
        self._merge(list(self._segments))

    def _merge(self, victims: List[_Segment]) -> None:
        survivors = [s for s in self._segments if s not in victims]
        merged_pairs: List[Tuple[int, Document]] = []
        for segment in victims:
            merged_pairs.extend(segment.live_documents(self._deleted))
        merged_pairs.sort(key=lambda pair: pair[0])
        # Tombstones inside the victims are physically reclaimed.
        victim_ids = {
            int(global_id)
            for segment in victims
            for global_id in segment.shard.global_doc_ids
        }
        surviving_ids = {pair[0] for pair in merged_pairs}
        self._deleted -= victim_ids
        for global_id in victim_ids - surviving_ids:
            self._documents.pop(global_id, None)
        self._segments = survivors
        if merged_pairs:
            global_ids = [pair[0] for pair in merged_pairs]
            documents = [pair[1] for pair in merged_pairs]
            self._segments.append(
                _Segment(documents, global_ids, self.analyzer)
            )
        self.merges_performed += 1
        self._scorer_cache = None

    # -- search --------------------------------------------------------

    def search(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> List[SearchHit]:
        """Search all live segments; tombstoned docs never surface.

        Scoring uses collection-global statistics over the live
        documents, so results are independent of the segment layout —
        the invariant the property tests enforce.
        """
        query = self._parser.parse(text, mode=mode, k=k)
        if query.is_empty or not self._segments:
            return []
        scorer = self._global_scorer()
        # Over-fetch per segment so tombstone filtering cannot starve
        # the final page.
        fetch = k + len(self._deleted)
        per_segment: List[List[SearchHit]] = []
        for segment in self._segments:
            searcher = ShardSearcher(
                segment.shard, scorer_factory=lambda _index: scorer
            )
            result = searcher.search(
                ParsedQuery(terms=query.terms, mode=mode, k=fetch)
            )
            per_segment.append(
                [
                    hit
                    for hit in result.hits
                    if hit.doc_id not in self._deleted
                ]
            )
        return merge_shard_results(per_segment, k=k)

    def _global_scorer(self):
        """BM25 with statistics aggregated over live documents only.

        Cached between searches; any mutation invalidates it.
        """
        if self._scorer_cache is not None:
            return self._scorer_cache
        dfs: Dict[str, int] = {}
        total_length = 0
        live = 0
        for segment in self._segments:
            index = segment.shard.index
            deleted_locals = {
                local
                for local, global_id in enumerate(segment.shard.global_doc_ids)
                if int(global_id) in self._deleted
            }
            for local in range(index.num_documents):
                if local in deleted_locals:
                    continue
                live += 1
                total_length += int(index.doc_lengths[local])
            for term_id, term in enumerate(index.dictionary):
                doc_ids, _ = index.postings_for_id(term_id)
                live_df = sum(
                    1
                    for doc_id in doc_ids.tolist()
                    if doc_id not in deleted_locals
                )
                if live_df:
                    dfs[term] = dfs.get(term, 0) + live_df
        average = total_length / live if live else 0.0
        self._scorer_cache = global_bm25_scorer(
            num_documents=live,
            average_doc_length=average,
            term_document_frequencies=dfs,
        )
        return self._scorer_cache
