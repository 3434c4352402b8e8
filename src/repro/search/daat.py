"""Document-at-a-time (DAAT) query evaluation.

DAAT is how Lucene — and hence the benchmark's index serving node —
evaluates ranked boolean queries: one cursor per query term advances in
lock-step over doc-id-sorted postings, scoring each candidate document
completely before moving on.  Service time is proportional to the total
postings volume traversed, which is the work model the paper's
characterization (and our simulator calibration) relies on.

A k-way merge of doc-sorted lists is one stable sort, so the lock-step
runs as array operations: the terms' postings are concatenated in query
order, scored in one pass, and stably sorted by doc id, which is exactly
the order in which a ``(doc_id, cursor_index)`` frontier would pop them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.index.inverted import InvertedIndex
from repro.search.query import ParsedQuery, QueryMode
from repro.search.scoring import BM25Scorer, Scorer, _vector_scores, resolve_idf
from repro.search.strategy import TraversalStats
from repro.search.topk import SearchHit, select_top_k

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry


def _merge_postings(
    ids: np.ndarray, contributions: np.ndarray, lists: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The array merge: every document's score from its terms' postings.

    ``ids``/``contributions`` are ``lists`` doc-sorted postings lists
    and their contributions, concatenated in query-term order.  Returns
    the distinct doc ids (ascending), each one's summed contribution,
    and each posting's document number (in doc-id order; its bincount,
    how many lists matched each document, is for AND mode).  One list
    comes back as it is, with no segments: ``c + 0.0`` is bincount's
    ``0.0 + c`` bit for bit, the sign of zero included.  This is the one
    scoring kernel: exhaustive DAAT feeds it every posting, resident
    Block-Max WAND only those of the documents its bounds let through.
    """
    if lists == 1:
        return ids, contributions + 0.0, None
    order = ids.argsort(kind="stable")
    ids = ids[order]

    # One segment per candidate document, its postings in term order.
    segment = np.empty(len(ids), dtype=np.intp)
    segment[:1] = 0
    np.not_equal(ids[1:], ids[:-1], out=segment[1:])
    segment.cumsum(out=segment)

    # bincount adds each weight into its segment's 0.0 in array order,
    # so every document is summed one term at a time, as a scalar loop
    # would: reduceat may add pairwise, which rounds differently and
    # would break bit-identity with TAAT and the WAND family.
    totals = np.bincount(segment, weights=contributions[order])
    documents = np.empty(len(totals), dtype=ids.dtype)
    documents[segment] = ids
    return documents, totals, segment


def score_daat(
    index: InvertedIndex,
    query: ParsedQuery,
    scorer: Scorer | None = None,
    metrics: Optional["MetricsRegistry"] = None,
    stats: Optional[TraversalStats] = None,
    normalizer: Optional[np.ndarray] = None,
    global_doc_ids: Optional[np.ndarray] = None,
) -> List[SearchHit]:
    """Evaluate ``query`` over ``index`` document-at-a-time.

    Returns the top-k hits (best first).  ``scorer`` defaults to BM25
    with the index's collection statistics.  With ``metrics``, the
    traversal's postings/candidate/heap-offer totals — array lengths of
    the merge — are added to the registry; ``stats``, when given,
    receives the per-query matched volume and scored-document count.
    ``normalizer`` is the scorer's length normaliser of every document
    of ``index`` (a :class:`~repro.search.executor.Searcher` computes
    it once), and ``global_doc_ids`` a shard's local→global id map for
    the hits.
    """
    if query.is_empty:
        return []
    if scorer is None:
        scorer = BM25Scorer(
            num_documents=index.num_documents,
            average_doc_length=index.average_doc_length,
        )

    # Each term is looked up once; the lookups give the matched volume.
    term_ids = index.dictionary.term_ids
    document_frequencies = index.dictionary.document_frequencies
    found = []
    idfs: List[float] = []
    volume = 0
    for term in query.terms:
        term_id = term_ids.get(term)
        if term_id is None:
            continue
        document_frequency = document_frequencies[term_id]
        volume += document_frequency
        found.append(index.postings_for_id(term_id))
        idfs.append(resolve_idf(scorer, term, document_frequency))
    if stats is not None:
        stats.matched_volume += volume
    if not found:
        return []
    if query.mode is QueryMode.AND and len(found) < len(query.terms):
        # A conjunctive query with a term absent from the index matches
        # nothing.
        return []

    # Exhaustive traversal reads every posting, so all of them are
    # scored in one pass, each term's idf repeated over its postings:
    # every element sees the float64 operations of the scalar path, in
    # the same order (score_block's contract); one term, under its idf.
    if len(found) == 1:
        (ids, frequencies), idf = found[0], idfs[0]
    else:
        id_parts, frequency_parts = zip(*found)
        ids = np.concatenate(id_parts)
        frequencies = np.concatenate(frequency_parts)
        idf = np.array(idfs).repeat([part.size for part in id_parts])
    if normalizer is None:
        contributions = _vector_scores(
            scorer, frequencies, index.doc_lengths[ids], idf
        )
    else:
        contributions = scorer.score_normalized(
            frequencies, normalizer[ids], idf
        )

    candidates, totals, segment = _merge_postings(
        ids, contributions, len(found)
    )
    scored = len(candidates)
    if segment is not None and query.mode is QueryMode.AND:
        required = np.bincount(segment) >= len(found)
        candidates, totals = candidates[required], totals[required]

    if stats is not None:
        stats.docs_scored += scored
    if metrics is not None:
        metrics.counter("daat.postings_traversed").add(len(ids))
        metrics.counter("daat.candidates_scored").add(scored)
        metrics.counter("daat.heap_offers").add(len(candidates))
    return select_top_k(candidates, totals, query.k, global_doc_ids)
