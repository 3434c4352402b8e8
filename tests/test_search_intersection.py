"""Tests for the intersection algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.intersection import (
    gallop_to,
    intersect_gallop,
    intersect_merge,
)

sorted_unique = st.lists(
    st.integers(min_value=0, max_value=500), max_size=80, unique=True
).map(lambda values: np.asarray(sorted(values), dtype=np.int64))


class TestGallopTo:
    def test_finds_first_geq(self):
        haystack = np.array([2, 4, 6, 8, 10])
        assert gallop_to(haystack, 5, 0) == 2
        assert gallop_to(haystack, 6, 0) == 2
        assert gallop_to(haystack, 1, 0) == 0
        assert gallop_to(haystack, 11, 0) == 5

    def test_respects_low(self):
        haystack = np.array([2, 4, 6, 8, 10])
        assert gallop_to(haystack, 4, 2) == 2  # search starts past it
        assert gallop_to(haystack, 10, 3) == 4

    def test_low_past_end(self):
        assert gallop_to(np.array([1, 2]), 1, 5) == 2


class TestPairwiseIntersections:
    def test_merge_basic(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5, 8])
        assert list(intersect_merge(a, b)) == [3, 5]

    def test_gallop_basic(self):
        small = np.array([3, 5, 9])
        large = np.array([1, 2, 3, 4, 5, 6, 7, 8, 10])
        assert list(intersect_gallop(small, large)) == [3, 5]

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.array([1, 2])
        assert intersect_merge(empty, some).size == 0
        assert intersect_gallop(empty, some).size == 0
        assert intersect_gallop(some, empty).size == 0

    @settings(max_examples=60)
    @given(sorted_unique, sorted_unique)
    def test_all_algorithms_agree_with_numpy(self, a, b):
        expected = list(np.intersect1d(a, b))
        assert list(intersect_merge(a, b)) == expected
        assert list(intersect_gallop(a, b)) == expected
        assert list(intersect_gallop(b, a)) == expected
