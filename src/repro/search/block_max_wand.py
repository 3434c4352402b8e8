"""Block-Max WAND early-terminated disjunctive evaluation.

Block-Max WAND (Ding & Suel, SIGIR 2011) prunes with *per-block* score
upper bounds.  Term-global bounds are hopelessly loose for common
terms — one high-tf posting anywhere in a list inflates the bound for
the entire list — so BMW consults the
:class:`~repro.index.blockmax.BlockMetadata` the index keeps per
postings block (last doc id, max tf, min doc length) instead.

It is a *candidate generator* in front of DAAT's merge: the block
bounds of all query terms are at hand at once (they are resident on
every index) and decide, as arrays, which documents are worth scoring
— a block-max variant of Turtle & Flood's MaxScore and its essential
lists.  One function, :func:`_generate`, runs it on a resident and on a
tiered index alike; the two differ only in the record a term brings:

- **Resident** (:func:`_term_impacts`): every posting's contribution is
  at hand.  For a fixed scorer nothing in the record depends on the
  query — contributions, block bounds, M_t, and the k-th largest
  contribution for a given ``k`` — so a
  :class:`~repro.search.executor.Searcher` keeps every record it built:
  a term's first query pays what every query once paid, later ones
  read arrays, so what it saves depends on how often the traffic
  repeats a term.  Only terms the index holds are kept, one record
  each, at most 8 B per posting plus 8 B per block.
  :func:`score_block_max_wand` keeps nothing: each call builds its
  terms' records afresh.
- **Tiered** (:func:`_paged_impacts`): postings are paged in block by
  block through the index's block cache, so the record holds only the
  resident block summaries, and each step below pages in just the
  blocks it needs — the query's bounds decide what is read.  A block
  is fetched at most once per query, and nothing is kept across
  queries.

1. *Threshold θ* — the k-th largest single-term contribution,
   maximised over the terms.  Contributions are ≥ 0 (BM25, TF-IDF), so
   at least k documents score ≥ θ and a document below θ cannot enter
   the top-k.  With any negative contribution θ is −∞ and nothing is
   pruned.  A tiered term pages its blocks in highest bound first and
   stops once no unread block could change its k-th contribution, so
   θ is the resident θ and a tiered query scores the same documents.
2. *Essential split* — the terms sorted by their largest block bound
   M_t; the largest low-M set whose bounds, summed in query-term order,
   stay strictly below θ is non-essential: a document found only there
   cannot reach θ.  The candidates are the documents of the essential
   lists.  A tiered term pages in only those of its blocks whose own
   bound, plus every other term's largest bound over the block's
   doc-id range, can reach θ; the documents of the others would all
   fail step 3.
3. *Block-bound filter* — each candidate's bound is the sum, in term
   order, of every term's bound for the one block that could hold it;
   a candidate whose bound is below θ is dropped (ties descend).
4. *Scoring* — every posting of every term whose document survived
   goes through :func:`repro.search.daat._merge_postings` and
   :func:`~repro.search.topk.select_top_k`, the kernel exhaustive DAAT
   uses.  A tiered term pages in the blocks that can hold a survivor
   (its resident first doc ids rule out the rest).

Float rounding is monotone, so a bound summed in term order is at
least the document's float score summed in the same order; and the
merge sums each document in term order, so scores are DAAT's bit for
bit.  ``docs_scored`` counts the survivors, ``block_skips`` the
candidates the block bounds dropped; there are no pivots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.daat import _merge_postings
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, _vector_scores, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit, select_top_k

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: The bound a term gives a document past its last block.
_NO_BLOCK = np.zeros(1)

#: What a tiered term holds for a query that needs none of its blocks.
_NO_POSTINGS = (np.empty(0, dtype=np.int64), np.empty(0))


class _TermImpacts:
    """One term's share of resident Block-Max WAND under one scorer.

    Nothing here depends on the query: the postings' doc ids (a view)
    and their number, every posting's contribution, the block ends and
    bounds (0.0 appended: a document past the last block gets nothing
    from the term), M_t, and ``seeds``, the θ seeds the generator keeps
    per ``k`` as queries ask for them.  A concurrent fill of a seed is
    benign — every thread derives the same value from immutable arrays.
    """

    __slots__ = (
        "doc_ids",
        "volume",
        "scores",
        "nonnegative",
        "block_ends",
        "bounds",
        "maximum",
        "seeds",
    )

    def __init__(self, doc_ids, scores, block_ends, bounds):
        self.doc_ids = doc_ids
        self.volume = len(doc_ids)
        self.scores = scores
        self.nonnegative = not scores.min() < 0.0
        self.block_ends = block_ends
        self.bounds = np.concatenate((bounds, _NO_BLOCK))
        self.maximum = float(bounds.max())
        self.seeds: Dict[int, float] = {}

    def seed(self, k: int) -> float:
        """The k-th largest contribution; −∞ when the list is shorter."""
        size = len(self.scores)
        if size < k:
            return -np.inf
        return np.partition(self.scores, size - k)[size - k]


class _PagedImpacts:
    """One term's share of tiered Block-Max WAND, for one query.

    Holds the resident block summaries — first and last doc ids, bounds
    (0.0 appended, as on :class:`_TermImpacts`), M_t and the number of
    postings — and pages postings in through the index's block cache as
    the generator asks for them, each block at most once.
    ``doc_ids``/``scores`` are the postings of the blocks :meth:`cover`
    paged in for the survivors.
    """

    __slots__ = (
        "postings",
        "volume",
        "first_doc_ids",
        "block_ends",
        "bounds",
        "maximum",
        "nonnegative",
        "scorer",
        "idf",
        "doc_lengths",
        "doc_ids",
        "scores",
        "seeds",
        "_blocks",
    )

    def __init__(self, postings, block_ends, bounds, scorer, idf, doc_lengths):
        self.postings = postings
        self.volume = len(postings)
        self.first_doc_ids = postings.info.first_doc_ids
        self.block_ends = block_ends
        self.bounds = np.concatenate((bounds, _NO_BLOCK))
        self.maximum = float(bounds.max())
        # The smallest contribution a monotone scorer can give: tf 1 in
        # the longest document.
        self.nonnegative = (
            not scorer.score(1, int(doc_lengths.max()), idf) < 0.0
        )
        self.scorer = scorer
        self.idf = idf
        self.doc_lengths = doc_lengths
        self.seeds: Dict[int, float] = {}
        self._blocks: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def _read(self, blocks) -> Tuple[np.ndarray, np.ndarray]:
        """Doc ids and contributions of ``blocks`` (ascending), paged in."""
        parts = []
        for block in blocks:
            part = self._blocks.get(block)
            if part is None:
                doc_ids, frequencies = self.postings.block(block)
                part = self._blocks[block] = (
                    doc_ids,
                    _vector_scores(
                        self.scorer,
                        frequencies,
                        self.doc_lengths[doc_ids],
                        self.idf,
                    ),
                )
            parts.append(part)
        if not parts:
            return _NO_POSTINGS
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([doc_ids for doc_ids, _ in parts]),
            np.concatenate([scores for _, scores in parts]),
        )

    def seed(self, k: int) -> float:
        """The k-th largest contribution; −∞ when the list is shorter.

        Pages blocks in highest bound first and stops once the next
        block's bound is at most the k-th largest contribution read so
        far: no unread posting can change it then, so the seed is the
        one the resident record computes from every posting.
        """
        if len(self.postings) < k:
            return -np.inf
        bounds = self.bounds[:-1].tolist()
        order = sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True)
        top = np.empty(0)  # the k largest contributions read so far
        for read, block in enumerate(order, 1):
            top = np.concatenate((top, self._read((block,))[1]))
            if len(top) < k:
                continue
            top = np.partition(top, len(top) - k)[len(top) - k :]
            if read == len(order) or bounds[order[read]] <= top[0]:
                return top[0]

    def essential(self, records, threshold: float) -> np.ndarray:
        """Doc ids of the blocks whose documents could reach θ.

        A block's bound is its own plus, for every other term in query
        order, that term's largest bound over the blocks a document in
        the block's doc-id range could fall in — at least every such
        document's bound in step 3, so no block left out holds a
        survivor.
        """
        blocks = np.arange(len(self.block_ends))
        if threshold > -np.inf:
            upper = 0.0
            for record in records:
                if record is self:
                    upper = upper + self.bounds[:-1]
                    continue
                low = record.block_ends.searchsorted(self.first_doc_ids)
                high = record.block_ends.searchsorted(self.block_ends)
                edges = np.empty(2 * len(blocks), dtype=np.int64)
                edges[0::2] = low
                edges[1::2] = high + 1
                # One more 0.0 so ``high + 1`` past the sentinel is a
                # valid reduceat edge.
                padded = np.concatenate((record.bounds, _NO_BLOCK))
                upper = upper + np.maximum.reduceat(padded, edges)[0::2]
            blocks = blocks[upper >= threshold]
        return self._read(blocks.tolist())[0]

    def cover(self, survivors: np.ndarray) -> None:
        """Page in every block that can hold a survivor."""
        blocks = self.block_ends.searchsorted(survivors)
        inside = blocks < len(self.block_ends)
        blocks = blocks[inside]
        held = survivors[inside] >= self.first_doc_ids[blocks]
        self.doc_ids, self.scores = self._read(np.unique(blocks[held]).tolist())


def _term_impacts(
    index: InvertedIndex, scorer, term: str
) -> Optional[_TermImpacts]:
    """Build ``term``'s resident record; None when the index lacks the term."""
    term_id = index.dictionary.term_ids.get(term)
    if term_id is None:
        return None
    document_frequency = index.dictionary.document_frequencies[term_id]
    idf = resolve_idf(scorer, term, document_frequency)
    doc_ids, frequencies = index.postings_for_id(term_id)
    blocks = index.block_metadata_for_id(term_id)
    return _TermImpacts(
        doc_ids,
        _vector_scores(scorer, frequencies, index.doc_lengths[doc_ids], idf),
        blocks.last_doc_ids,
        blocks.max_scores(scorer, idf),
    )


def _paged_impacts(index, scorer, term: str) -> Optional[_PagedImpacts]:
    """Build ``term``'s tiered record (reads no block); None when absent."""
    info = index.term_info(term)
    if info is None:
        return None
    blocks = index.block_metadata_for_id(info.term_id)
    idf = resolve_idf(scorer, term, info.document_frequency)
    return _PagedImpacts(
        index.tiered_postings_for_id(info.term_id),
        blocks.last_doc_ids,
        blocks.max_scores(scorer, idf),
        scorer,
        idf,
        index.doc_lengths,
    )


def _generate(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer,
    max_docs_scored: Optional[int],
    metrics: Optional["MetricsRegistry"],
    stats: Optional[TraversalStats],
    impacts: Optional[Dict[str, _TermImpacts]],
    global_doc_ids: Optional[np.ndarray] = None,
) -> List[SearchHit]:
    """Block-max candidate generation + DAAT's merge (module docstring).

    On a resident index ``impacts`` keeps the records of terms found in
    ``index`` under ``scorer`` across calls; None builds this query's
    records afresh.  A tiered index builds its records per query and
    never touches ``impacts``.  ``global_doc_ids`` maps the hits' ids.
    """
    paged = hasattr(index, "tiered_postings_for_id")
    if paged:
        build, memo = _paged_impacts, {}
    else:
        build, memo = _term_impacts, {} if impacts is None else impacts
    for term in query.terms:
        if term not in memo:
            record = build(index, scorer, term)
            if record is not None:
                memo[term] = record
    records = [memo[term] for term in query.terms if term in memo]
    if stats is not None:
        stats.matched_volume += sum([record.volume for record in records])
    if not records:
        return []

    # θ: the k-th largest contribution of the best term.  A term's k-th
    # contribution is at most its M_t, so once M_t <= θ (taking terms
    # by M_t, highest first) no further partition can raise θ.
    threshold = -np.inf
    terms = range(len(records))
    maxima = [record.maximum for record in records]
    by_bound = sorted(terms, key=maxima.__getitem__)
    if all([record.nonnegative for record in records]):
        for term in reversed(by_bound):
            if maxima[term] <= threshold:
                break
            seeds = records[term].seeds
            seed = seeds.get(query.k)
            if seed is None:
                seed = seeds[query.k] = records[term].seed(query.k)
            if seed > threshold:
                threshold = seed

    # Essential split: grow the non-essential set from the lowest M_t
    # while its bounds, summed in query-term order, stay below θ.
    essential = set(terms)
    for term in by_bound:
        rest = essential - {term}
        if not sum([maxima[t] for t in terms if t not in rest]) < threshold:
            break
        essential = rest

    # The candidates: the union of the essential lists, from one sort.
    # A resident list is every posting; a tiered one what can reach θ.
    lists = [
        records[term].essential(records, threshold)
        if paged
        else records[term].doc_ids
        for term in sorted(essential)
    ]
    if len(lists) == 1:
        candidates = lists[0]
    else:
        candidates = np.concatenate(lists)
        candidates.sort()
        distinct = np.empty(len(candidates), dtype=bool)
        distinct[:1] = True
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

    # Every posting of a surviving document, in term order, into the merge.
    surviving = np.zeros(index.num_documents, dtype=bool)
    surviving[survivors] = True
    if paged:  # a resident record holds every posting already
        for record in records:
            record.cover(survivors)
    ids = np.concatenate([record.doc_ids for record in records])
    kept = surviving[ids]
    documents, totals, _ = _merge_postings(
        ids[kept],
        np.concatenate([record.scores for record in records])[kept],
        len(records),
    )

    docs_scored = len(survivors)
    if stats is not None:
        stats.docs_scored += docs_scored
        stats.block_skips += block_skips
        stats.truncated = stats.truncated or truncated
    if metrics is not None:
        metrics.counter("wand.docs_scored").add(docs_scored)
        metrics.counter("wand.pivot_skips").add(0)
        metrics.counter("wand.block_skips").add(block_skips)
    return select_top_k(documents, totals, query.k, global_doc_ids)


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
    depth: the generator scores at most that many documents — the
    first survivors of the block-bound filter in doc-id order — and
    returns the best of them (an *approximate* top-k).  ``None`` — the
    default — keeps the exact evaluation, bit identical to exhaustive
    DAAT.  A truncated run sets ``stats.truncated``.  Every call builds
    its terms' records afresh.
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
    global_doc_ids: Optional[np.ndarray] = None,
) -> List[SearchHit]:
    """:func:`score_block_max_wand` reading and filling ``impacts``.

    ``impacts`` belongs to one (``index``, ``scorer``) pair — a
    :class:`~repro.search.executor.Searcher` passes its own dict, built
    beside its one scorer — and a resident evaluation keeps there the
    record of each query term the index holds.  A tiered evaluation
    never touches it.  ``global_doc_ids`` is a shard's local→global id
    map for the hits.
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
    return _generate(
        index, query, scorer, max_docs_scored, metrics, stats, impacts,
        global_doc_ids,
    )
