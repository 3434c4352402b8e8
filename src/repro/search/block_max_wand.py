"""Block-Max WAND early-terminated disjunctive evaluation.

Block-Max WAND (Ding & Suel, SIGIR 2011) prunes with *per-block* score
upper bounds.  Term-global bounds are hopelessly loose for common
terms — one high-tf posting anywhere in a list inflates the bound for
the entire list — so BMW consults the
:class:`~repro.index.blockmax.BlockMetadata` the index keeps per
postings block (last doc id, max tf, min doc length) instead.  It runs
two ways, with the same answer:

**Resident index: a candidate generator in front of DAAT's merge.**
Every postings list is in memory, so the per-block bounds of all query
terms are at hand at once and decide, as arrays, which documents are
worth scoring (a block-max variant of Turtle & Flood's MaxScore and its
essential lists).  For a fixed scorer, nothing a term brings to this
depends on the query — its contributions, block bounds, M_t, and its
k-th largest contribution for a given ``k`` — so :func:`_term_impacts`
builds them into one record and a
:class:`~repro.search.executor.Searcher` keeps every record it built:
a term's first query pays what every query once paid, later ones read
arrays, so what it saves depends on how often the traffic repeats a
term.  Only terms the index holds are kept, one record each, at most
8 B per posting plus 8 B per block.  :func:`score_block_max_wand`
keeps nothing: each call builds its terms' records afresh.

1. *Threshold θ* — the k-th largest single-term contribution,
   maximised over the terms.  Contributions are ≥ 0 (BM25, TF-IDF), so
   at least k documents score ≥ θ and a document below θ cannot enter
   the top-k.  With any negative contribution θ is −∞ and nothing is
   pruned.
2. *Essential split* — the terms sorted by their largest block bound
   M_t; the largest low-M set whose bounds, summed in query-term order,
   stay strictly below θ is non-essential: a document found only there
   cannot reach θ.  The candidates are the documents of the essential
   lists.
3. *Block-bound filter* — each candidate's bound is the sum, in term
   order, of every term's bound for the one block that could hold it;
   a candidate whose bound is below θ is dropped (ties descend).
4. *Scoring* — every posting of every term whose document survived
   goes through :func:`repro.search.daat._merge_postings` and
   :func:`~repro.search.topk.select_top_k`, the kernel exhaustive DAAT
   uses.

Float rounding is monotone, so a bound summed in term order is at
least the document's float score summed in the same order; and the
merge sums each document in term order, so scores are DAAT's bit for
bit.  ``docs_scored`` counts the survivors, ``block_skips`` the
candidates the block bounds dropped; there are no pivots.

**Tiered index: the pivot kernel.**  Postings are paged in
block-at-a-time, and the point is to fetch only the blocks the
traversal descends into, so tiered BMW runs
:func:`repro.search.wand._traverse` with the block stage on over
:class:`_PagedCursor`s: shallow pointer movement over the resident
block summaries, deep descent (and a fetch) only where the summed local
block bounds can still reach the heap threshold — skip when
``block_upper < threshold``, descend on ties.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.daat import _merge_postings
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, _vector_scores, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit, select_top_k
from repro.search.wand import _block_scores, _Cursor, _traverse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: The bound a term gives a document past its last block.
_NO_BLOCK = np.zeros(1)


class _PagedCursor(_Cursor):
    """A block-max cursor over tiered (paged) postings.

    The postings live behind a
    :class:`~repro.index.store.TieredPostings` view and are paged in
    block-at-a-time.  The trick that makes paging cheap is **shallow
    seeking**: the resident per-block first/last doc ids locate the
    only block that can hold a seek target, and when the target lands
    on or before a block's first posting the current doc id is known
    from metadata alone — a cursor that is merely being skipped over
    never fetches.  Only a mid-block landing or an actual scoring
    descent pages the block in, so the traversal fetches exactly the
    blocks it descends into.

    Per-block score lists come from the same ``score_block`` call a
    resident scan makes, so scores are bit-identical; only the I/O
    schedule is the cursor's own.
    """

    __slots__ = (
        "tiered",
        "first_doc_ids",
        "block",
        "doc_ids",
        "frequencies",
        "offset",
        "scores",
    )

    def __init__(self, tiered_postings, *state):
        self.tiered = tiered_postings
        self.first_doc_ids = tiered_postings.info.first_doc_ids
        super().__init__(self.first_doc_ids.item(0), *state)
        self.block = 0  # block holding the current posting
        self.doc_ids: Optional[np.ndarray] = None  # None until paged in
        self.frequencies: Optional[np.ndarray] = None
        self.offset = 0
        self.scores: Optional[List[float]] = None

    def _load(self) -> np.ndarray:
        """Page the current block in (through the index's block cache)."""
        self.doc_ids, self.frequencies = self.tiered.block(self.block)
        return self.doc_ids

    def seek(self, target: int) -> Optional[int]:
        """Advance to the first posting with doc id >= ``target``.

        Returns the new ``cur`` (``None`` when the list is exhausted);
        pages a block in only when the target lands strictly inside it.
        """
        cur = self.cur
        if cur >= target:
            return cur
        block = self.block
        last_doc_ids = self.last_doc_ids
        if last_doc_ids[block] < target:
            block = self.block = bisect_left(last_doc_ids, target, block + 1)
            if block == len(last_doc_ids):
                self.cur = None
                return None
            self.doc_ids = self.frequencies = self.scores = None
            self.offset = 0
        doc_ids = self.doc_ids
        if doc_ids is None:
            # The target precedes the block's first posting — whose id
            # the resident metadata already knows — or lands inside it.
            cur = self.first_doc_ids.item(block)
            if cur < target:
                doc_ids = self._load()
        if doc_ids is not None:
            self.offset = int(doc_ids.searchsorted(target))
            cur = doc_ids.item(self.offset)
        self.cur = cur
        self.key = cur * self.stride + self.rank
        return cur

    def score(self, scorer, doc_lengths: np.ndarray) -> float:
        """Score the posting under the cursor (pages its block in)."""
        if self.scores is None:
            doc_ids = self.doc_ids if self.doc_ids is not None else self._load()
            self.scores = _block_scores(
                scorer, self.frequencies, doc_lengths[doc_ids], self.idf
            )
        return self.scores[self.offset]


class _TermImpacts:
    """One term's share of resident Block-Max WAND under one scorer.

    Nothing here depends on the query: the postings' doc ids (a view),
    every posting's contribution, the block ends and bounds (0.0
    appended: a document past the last block gets nothing from the
    term), M_t, and the θ seeds, memoised per ``k`` as queries ask for
    them.  A concurrent fill of a seed is benign — every thread derives
    the same value from immutable arrays.
    """

    __slots__ = (
        "doc_ids",
        "scores",
        "nonnegative",
        "block_ends",
        "bounds",
        "maximum",
        "_seeds",
    )

    def __init__(self, doc_ids, scores, block_ends, bounds):
        self.doc_ids = doc_ids
        self.scores = scores
        self.nonnegative = not scores.min() < 0.0
        self.block_ends = block_ends
        self.bounds = np.concatenate((bounds, _NO_BLOCK))
        self.maximum = float(bounds.max())
        self._seeds: Dict[int, float] = {}

    def seed(self, k: int) -> float:
        """The k-th largest contribution; −∞ when the list is shorter."""
        seed = self._seeds.get(k)
        if seed is None:
            size = len(self.scores)
            seed = (
                np.partition(self.scores, size - k)[size - k]
                if size >= k
                else -np.inf
            )
            self._seeds[k] = seed
        return seed


def _term_impacts(
    index: InvertedIndex, scorer, term: str
) -> Optional[_TermImpacts]:
    """Build ``term``'s record; None when the index has no posting of it."""
    info = index.term_info(term)
    if info is None:
        return None
    postings = index.postings_for_id(info.term_id)
    if len(postings) == 0:
        return None
    idf = resolve_idf(scorer, term, info.document_frequency)
    doc_ids = postings.doc_ids
    blocks = index.block_metadata_for_id(info.term_id)
    return _TermImpacts(
        doc_ids,
        _vector_scores(
            scorer, postings.frequencies, index.doc_lengths[doc_ids], idf
        ),
        blocks.last_doc_ids,
        blocks.max_scores(scorer, idf),
    )


def _score_resident(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer,
    max_docs_scored: Optional[int],
    metrics: Optional["MetricsRegistry"],
    stats: Optional[TraversalStats],
    impacts: Optional[Dict[str, _TermImpacts]],
) -> List[SearchHit]:
    """Block-max candidate generation + DAAT's merge (module docstring).

    ``impacts`` keeps the records of terms found in ``index`` under
    ``scorer`` across calls; None builds this query's records afresh.
    """
    memo = {} if impacts is None else impacts
    records: List[_TermImpacts] = []
    for term in query.terms:
        record = memo.get(term)
        if record is None:
            record = _term_impacts(index, scorer, term)
            if record is None:
                continue
            memo[term] = record
        records.append(record)
    if not records:
        return []

    # θ: the k-th largest contribution of the best term.  A term's k-th
    # contribution is at most its M_t, so once M_t <= θ (taking terms
    # by M_t, highest first) no further partition can raise θ.
    threshold = -np.inf
    terms = range(len(records))
    maxima = [record.maximum for record in records]
    by_bound = sorted(terms, key=maxima.__getitem__)
    if all(record.nonnegative for record in records):
        for term in reversed(by_bound):
            if maxima[term] <= threshold:
                break
            threshold = max(threshold, records[term].seed(query.k))

    # Essential split: grow the non-essential set from the lowest M_t
    # while its bounds, summed in query-term order, stay below θ.
    essential = set(terms)
    for term in by_bound:
        rest = essential - {term}
        if not sum(maxima[t] for t in terms if t not in rest) < threshold:
            break
        essential = rest

    # The candidates: the union of the essential lists, from one sort.
    if len(essential) == 1:
        candidates = records[min(essential)].doc_ids
    else:
        candidates = np.sort(
            np.concatenate(
                [records[term].doc_ids for term in sorted(essential)]
            )
        )
        distinct = np.ones(len(candidates), dtype=bool)
        np.not_equal(candidates[1:], candidates[:-1], out=distinct[1:])
        candidates = candidates[distinct]

    # Block-bound filter: each term's bound for the block that could
    # hold the candidate, summed in term order.
    survivors = candidates
    if threshold > -np.inf:
        upper = 0.0
        for record in records:
            upper = upper + record.bounds[
                record.block_ends.searchsorted(candidates)
            ]
        survivors = candidates[upper >= threshold]
    block_skips = len(candidates) - len(survivors)
    truncated = max_docs_scored is not None and len(survivors) > max_docs_scored
    if truncated:
        # Deadline budget: score the first survivors in doc-id order.
        survivors = survivors[:max_docs_scored]

    # Every posting of a surviving document, term by term, into the merge.
    surviving = np.zeros(index.num_documents, dtype=bool)
    surviving[survivors] = True
    hit_ids: List[np.ndarray] = []
    hit_scores: List[np.ndarray] = []
    for record in records:
        kept = surviving[record.doc_ids]
        hit_ids.append(record.doc_ids[kept])
        hit_scores.append(record.scores[kept])
    documents, totals, _ = _merge_postings(hit_ids, hit_scores)

    docs_scored = len(survivors)
    if stats is not None:
        stats.docs_scored += docs_scored
        stats.block_skips += block_skips
        stats.truncated = stats.truncated or truncated
    if metrics is not None:
        metrics.counter("wand.docs_scored").add(docs_scored)
        metrics.counter("wand.pivot_skips").add(0)
        metrics.counter("wand.block_skips").add(block_skips)
    return select_top_k(documents, totals, query.k)


def score_block_max_wand(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Optional[BM25Scorer] = None,
    metrics: Optional["MetricsRegistry"] = None,
    stats: Optional[TraversalStats] = None,
    max_docs_scored: Optional[int] = None,
) -> List[SearchHit]:
    """Evaluate a disjunctive query with Block-Max WAND pruning.

    Only ``QueryMode.OR`` queries are supported, mirroring
    :func:`~repro.search.wand.score_wand`.  With ``metrics``, the
    scored-document, pivot-skip, and block-skip totals are added to the
    registry once per call (same ``wand.*`` counter family as plain
    WAND, plus ``wand.block_skips``); ``stats``, when given, receives
    the same per-query numbers.

    ``max_docs_scored`` is the deadline scheduler's early-termination
    depth: the traversal scores at most that many documents — on a
    resident index the first survivors of the block-bound filter in
    doc-id order, on a tiered one the first the pivot loop reaches —
    and returns the best of them (an *approximate* top-k).  ``None`` —
    the default — keeps the exact traversal, bit identical to
    exhaustive DAAT.  A truncated run sets ``stats.truncated``.
    Every call builds its terms' records afresh.
    """
    return _score_block_max_wand(
        index, query, scorer, metrics, stats, max_docs_scored, None
    )


def _score_block_max_wand(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Optional[BM25Scorer],
    metrics: Optional["MetricsRegistry"],
    stats: Optional[TraversalStats],
    max_docs_scored: Optional[int],
    impacts: Optional[Dict[str, _TermImpacts]],
) -> List[SearchHit]:
    """:func:`score_block_max_wand` reading and filling ``impacts``.

    ``impacts`` belongs to one (``index``, ``scorer``) pair — a
    :class:`~repro.search.executor.Searcher` passes its own dict, built
    beside its one scorer — and a resident evaluation keeps there the
    record of each query term the index holds.  A tiered evaluation
    never touches it.
    """
    if query.mode is not QueryMode.OR:
        raise ValueError("score_block_max_wand supports OR queries only")
    if max_docs_scored is not None and max_docs_scored <= 0:
        raise ValueError("max_docs_scored must be positive when given")
    if query.is_empty or index.num_documents == 0:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )
    if not hasattr(index, "tiered_postings_for_id"):
        return _score_resident(
            index, query, scorer, max_docs_scored, metrics, stats, impacts
        )

    # A tiered index pages postings block-at-a-time: the pivot kernel
    # over paged cursors fetches only the blocks it descends into.
    cursors: List[_Cursor] = []
    stride = len(query.terms)
    for rank, term in enumerate(query.terms):
        info = index.term_info(term)
        if info is None:
            continue
        blocks = index.block_metadata_for_id(info.term_id)
        if blocks.num_blocks == 0:
            continue
        idf = resolve_idf(scorer, term, info.document_frequency)
        # Per (query, term), O(blocks): the summaries the shallow
        # pointer steers by, as Python lists the loop can index cheaply.
        cursors.append(
            _PagedCursor(
                index.tiered_postings_for_id(info.term_id),
                idf,
                scorer.max_score(idf),
                rank,
                stride,
                blocks.last_doc_ids.tolist(),
                blocks.max_scores(scorer, idf).tolist(),
            )
        )
    if not cursors:
        return []
    return _traverse(
        cursors,
        query.k,
        scorer,
        index.doc_lengths,
        block_stage=True,
        max_docs_scored=max_docs_scored,
        metrics=metrics,
        stats=stats,
    )
