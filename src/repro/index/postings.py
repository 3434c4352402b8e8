"""Postings lists: the invariant each one obeys, and its one check.

A term's postings list is a pair of parallel int64 arrays: doc ids,
strictly increasing and non-negative, and positive term frequencies.
An index holds every list back to back in its
:class:`~repro.index.inverted.PostingsLayout`;
:func:`check_postings` is the one check of that invariant, run where
lists are made (the builder) or read from bytes (the codec).
"""

from __future__ import annotations

import numpy as np


def check_postings(
    doc_ids: np.ndarray, frequencies: np.ndarray, offsets: np.ndarray
) -> None:
    """Raise ``ValueError`` unless every list is a valid postings list.

    List ``i`` is ``doc_ids[offsets[i]:offsets[i + 1]]`` with its parallel
    ``frequencies``: one pass checks one list (the codec) or all lists
    of an index laid out back to back (the builder).
    """
    if doc_ids.shape != frequencies.shape:
        raise ValueError(
            f"doc_ids and frequencies must have equal length, got "
            f"{doc_ids.shape} vs {frequencies.shape}"
        )
    if doc_ids.ndim != 1:
        raise ValueError("postings arrays must be one-dimensional")
    increasing = doc_ids[1:] > doc_ids[:-1]
    increasing[offsets[1:-1] - 1] = True  # a new list may start lower
    if not increasing.all():
        raise ValueError("doc_ids must be strictly increasing")
    if doc_ids.size and doc_ids.min() < 0:
        raise ValueError("doc_ids must be non-negative")
    if np.any(frequencies <= 0):
        raise ValueError("term frequencies must be positive")
