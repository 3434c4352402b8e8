"""Index construction from a document collection."""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Tuple

import numpy as np

from repro.corpus.documents import DocumentCollection, TokenIds
from repro.index.blockmax import DEFAULT_BLOCK_SIZE, block_arrays
from repro.index.inverted import InvertedIndex, PostingsLayout
from repro.index.postings import check_postings
from repro.index.stats import IndexStatistics, compute_statistics
from repro.text.analyzer import Analyzer, default_analyzer


class _Numbering(dict):
    """Token -> id, ids handed out in first-seen order."""

    def __missing__(self, token: str) -> int:
        number = self[token] = len(self)
        return number


def token_ids(collection: DocumentCollection, analyzer: Analyzer) -> TokenIds:
    """The raw tokens of every document in ``collection``, as ids.

    A generated collection carries them (``collection.tokens``); any
    other collection (loaded from disk, built by hand) is tokenized here
    into the same form, its table the distinct tokens in first-seen
    order.
    """
    tokens = collection.tokens
    if tokens is not None:
        if tokens.num_documents != len(collection):
            raise ValueError(
                f"token ids cover {tokens.num_documents} documents, "
                f"the collection holds {len(collection)}"
            )
        return tokens
    numbering = _Numbering()
    ids = array("q")
    offsets = [0]
    for document in collection:
        ids.extend(map(numbering.__getitem__, analyzer.tokenize(document.text)))
        offsets.append(len(ids))
    dtype = np.min_scalar_type(max(len(numbering) - 1, 0))
    return TokenIds(
        list(numbering),
        np.frombuffer(ids, np.int64).astype(dtype),
        np.array(offsets, dtype=np.int64),
    )


def term_occurrences(
    collection: DocumentCollection, analyzer: Analyzer
) -> Tuple[Dict[str, int], np.ndarray, np.ndarray]:
    """Every surviving token of ``collection`` as a term number.

    ``Analyzer.normalize`` runs once per table entry that occurs, terms
    numbered in first-seen order; each document's ids are then gathered
    through the mapped table.  Returns the ``term -> number`` map, the
    term numbers of all surviving occurrences (documents back to back,
    each in text order) and the number of them per document.
    """
    tokens = token_ids(collection, analyzer)
    table, ids = tokens.table, tokens.ids
    # Fancy indexing with the compact ids, not bincount: bincount would
    # cast them to a temporary 8 bytes per token.
    occurs = np.zeros(len(table), dtype=bool)
    occurs[ids] = True
    terms: Dict[str, int] = {}
    numbers = np.full(len(table), -1, dtype=np.intc)
    for token in np.flatnonzero(occurs).tolist():
        term = analyzer.normalize(table[token])
        if term:
            numbers[token] = terms.setdefault(term, len(terms))
    # One gather per document: a gather over the whole collection would
    # leave MB-sized transients behind it in the heap, which the index
    # arrays allocated next cannot reuse (peak RSS, not time).
    occurrences = array("i")
    bounds = tokens.offsets.tolist()
    doc_lengths = np.zeros(len(bounds) - 1, dtype=np.int64)
    for doc_id, (start, end) in enumerate(zip(bounds, bounds[1:])):
        found = numbers[ids[start:end]]
        found = found[found >= 0]
        doc_lengths[doc_id] = len(found)
        occurrences.frombytes(found.tobytes())
    return terms, np.frombuffer(occurrences, dtype=np.intc), doc_lengths


def _postings_from_keys(
    keys: np.ndarray, num_docs: int, num_terms: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut sorted ``term_id * num_docs + doc_id`` keys into postings.

    A run of equal keys is one posting, its length the term frequency.
    Returns all lists' doc ids and frequencies back to back in term
    order and the ``num_terms + 1`` offsets between the lists, checked
    by :func:`~repro.index.postings.check_postings`.
    """
    is_start = np.ones(keys.size, dtype=bool)
    is_start[1:] = keys[1:] != keys[:-1]
    run_starts = np.flatnonzero(is_start)
    frequencies = np.diff(run_starts, append=keys.size)
    term_ids, doc_ids = np.divmod(keys[run_starts], num_docs)
    offsets = np.searchsorted(term_ids, np.arange(num_terms + 1))
    check_postings(doc_ids, frequencies, offsets)
    return doc_ids, frequencies, offsets


class IndexBuilder:
    """Builds an :class:`InvertedIndex` from a document collection.

    The builder runs every document through the analyzer chain, then
    assembles per-term postings.  Terms are assigned ids in sorted term
    order (also the order of the serialized format).  Alongside each
    postings list it precomputes the per-block metadata (block last doc
    id, max term frequency, min document length) the block-max traversal
    prunes with; ``block_size`` controls the granularity.  The three
    passes are described in ``docs/architecture.md`` § Index build.
    """

    def __init__(
        self,
        analyzer: Optional[Analyzer] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.analyzer = analyzer or default_analyzer()
        self.block_size = block_size

    def build(self, collection: DocumentCollection) -> InvertedIndex:
        """Analyze and index every document in ``collection``."""
        num_docs = len(collection)

        # Pass 1: every surviving occurrence as a term number, documents
        # back to back (the collection enforces dense ascending ids).
        numbering, occurrences, doc_lengths = term_occurrences(
            collection, self.analyzer
        )
        terms = sorted(numbering)
        term_ids = np.empty(len(terms), dtype=np.int64)
        term_ids[[numbering[term] for term in terms]] = np.arange(len(terms))

        # Pass 2: one sort brings each term's documents together in
        # doc-id order; equal keys are repeats within one document.
        keys = term_ids[occurrences]
        keys *= num_docs
        keys += np.repeat(np.arange(num_docs), doc_lengths)
        keys.sort()
        doc_ids, frequencies, offsets = _postings_from_keys(
            keys, num_docs, len(terms)
        )
        del keys  # the largest transient, before the views are cut

        # Pass 3: every list's block metadata, in one array pass.
        layout = PostingsLayout(
            offsets,
            doc_ids,
            frequencies,
            *block_arrays(
                offsets, doc_ids, frequencies, doc_lengths, self.block_size
            ),
        )
        return InvertedIndex(
            terms, layout, doc_lengths, self.analyzer, self.block_size
        )

    def build_with_stats(
        self, collection: DocumentCollection
    ) -> Tuple[InvertedIndex, IndexStatistics]:
        """Build the index and its size accounting in one call.

        Returns ``(index, stats)`` where ``stats.compressed_sections``
        holds the per-section serialized byte sizes (header,
        doc-length table, dictionary, postings, block metadata) whose
        sum equals the exact v3 segment length — per-shard storage cost
        alongside the usual characterization numbers.
        """
        index = self.build(collection)
        return index, compute_statistics(index, include_sections=True)
