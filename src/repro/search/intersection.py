"""List intersection algorithms for conjunctive queries.

Conjunctive (AND) evaluation reduces to intersecting doc-id lists, and
the algorithm matters when list lengths are skewed — which, under a
Zipfian vocabulary, they almost always are.  Two classic algorithms:

- :func:`intersect_merge` — linear merge, O(n + m); best for lists of
  similar length;
- :func:`intersect_gallop` — small-vs-large galloping (exponential
  probe + binary search), O(n log(m/n)); best when one list is much
  shorter.

The phrase/snippet bench compares their throughput on skewed lists.
"""

from __future__ import annotations

from typing import List

import numpy as np


def intersect_merge(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Linear two-pointer merge intersection of sorted unique arrays."""
    out: List[int] = []
    i = j = 0
    n, m = first.size, second.size
    while i < n and j < m:
        a, b = first[i], second[j]
        if a == b:
            out.append(int(a))
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return np.asarray(out, dtype=np.int64)


def gallop_to(haystack: np.ndarray, target: int, low: int) -> int:
    """First index ≥ ``low`` with ``haystack[index] >= target``.

    Exponential probing from ``low`` then binary search within the
    bracket — the "galloping" primitive.
    """
    n = haystack.size
    if low >= n:
        return n
    bound = 1
    while low + bound < n and haystack[low + bound] < target:
        bound <<= 1
    high = min(low + bound, n)
    return int(np.searchsorted(haystack[low:high], target) + low)


def intersect_gallop(small: np.ndarray, large: np.ndarray) -> np.ndarray:
    """Small-vs-large intersection: gallop through the long list."""
    out: List[int] = []
    position = 0
    for value in small:
        position = gallop_to(large, int(value), position)
        if position >= large.size:
            break
        if large[position] == value:
            out.append(int(value))
            position += 1
    return np.asarray(out, dtype=np.int64)
