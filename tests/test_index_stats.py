"""Unit tests for index statistics."""

import pytest

from repro.corpus.documents import Document, DocumentCollection
from repro.index.builder import IndexBuilder
from repro.index.partitioner import partition_index
from repro.index.serialization import serialize_index
from repro.index.stats import (
    SECTION_NAMES,
    compressed_section_sizes,
    compute_statistics,
    shard_compressed_sizes,
)
from repro.text.analyzer import Analyzer, AnalyzerConfig


def build_index(texts):
    collection = DocumentCollection()
    for doc_id, text in enumerate(texts):
        collection.add(Document(doc_id, f"u{doc_id}", "", text))
    return IndexBuilder(
        Analyzer(AnalyzerConfig(remove_stopwords=False, stem=False))
    ).build(collection)


class TestIndexStatistics:
    def test_counts(self):
        stats = compute_statistics(build_index(["aa bb", "aa"]))
        assert stats.num_documents == 2
        assert stats.num_terms == 2
        assert stats.total_postings == 3

    def test_posting_length_percentiles_ordered(self, small_index):
        stats = compute_statistics(small_index, include_compressed_size=False)
        assert (
            stats.median_posting_length
            <= stats.p90_posting_length
            <= stats.p99_posting_length
            <= stats.max_posting_length
        )

    def test_skew_present_in_zipfian_corpus(self, small_index):
        stats = compute_statistics(small_index, include_compressed_size=False)
        # Zipfian vocabularies produce a long posting-length tail.
        assert stats.max_posting_length > 5 * stats.median_posting_length

    def test_compressed_size_positive(self):
        stats = compute_statistics(build_index(["aa bb cc"]))
        assert stats.compressed_size_bytes > 0

    def test_compressed_size_skippable(self):
        stats = compute_statistics(
            build_index(["aa bb cc"]), include_compressed_size=False
        )
        assert stats.compressed_size_bytes == 0

    def test_empty_index(self):
        stats = compute_statistics(build_index([]))
        assert stats.num_documents == 0
        assert stats.num_terms == 0
        assert stats.max_posting_length == 0

    def test_as_rows_contains_all_labels(self, small_index):
        rows = compute_statistics(small_index, include_compressed_size=False).as_rows()
        assert "documents" in rows
        assert "p99 posting length" in rows
        assert rows["documents"] == small_index.num_documents


class TestCompressedSections:
    def test_sections_sum_to_exact_segment_length(self, small_index):
        """The accounting mirrors the serializer byte for byte — the
        regression that keeps the two from drifting apart."""
        sections = compressed_section_sizes(small_index)
        assert set(sections) == set(SECTION_NAMES)
        assert sum(sections.values()) == len(
            serialize_index(small_index, version=3)
        )

    def test_sections_sum_holds_on_tiny_and_empty_indexes(self):
        for texts in ([], ["aa"], ["aa bb", "aa", "cc cc cc"]):
            index = build_index(texts)
            sections = compressed_section_sizes(index)
            assert sum(sections.values()) == len(
                serialize_index(index, version=3)
            )

    def test_postings_dominate_on_real_corpus(self, small_index):
        sections = compressed_section_sizes(small_index)
        assert sections["postings"] == max(sections.values())
        assert all(size > 0 for size in sections.values())

    def test_compute_statistics_surfaces_sections(self, small_index):
        stats = compute_statistics(small_index, include_sections=True)
        assert stats.compressed_sections == compressed_section_sizes(
            small_index
        )
        rows = stats.as_rows()
        assert rows["compressed segment total (bytes)"] == sum(
            stats.compressed_sections.values()
        )
        assert rows["compressed postings (bytes)"] > 0

    def test_sections_off_by_default(self, small_index):
        stats = compute_statistics(small_index)
        assert stats.compressed_sections is None
        assert "compressed postings (bytes)" not in stats.as_rows()

    def test_per_shard_sizes(self, small_collection):
        partitioned = partition_index(small_collection, 3)
        per_shard = shard_compressed_sizes(partitioned)
        assert len(per_shard) == 3
        for shard, sections in zip(partitioned, per_shard):
            assert sum(sections.values()) == len(
                serialize_index(shard.index, version=3)
            )
