"""Tests for the service-time characterization study (F1/F2/T2)."""

import pytest

from repro.core.characterization import (
    characterize_service_times,
    index_scaling_study,
    service_time_by_term_count,
    service_time_by_volume,
)
from repro.corpus.generator import CorpusConfig
from repro.corpus.vocabulary import VocabularyConfig
from repro.engine.isn import IndexServingNode
from repro.index.partitioner import partition_index


@pytest.fixture(scope="module")
def characterization(timing_isn, small_query_log):
    return characterize_service_times(
        timing_isn, small_query_log, num_queries=150, repeats=5, seed=0
    )


class TestCharacterizeServiceTimes:
    def test_summary_populated(self, characterization):
        assert characterization.summary.count == 150
        assert characterization.summary.mean > 0

    def test_distribution_right_skewed(self, characterization):
        # The paper's F1 shape: mean above median, fat upper tail.
        assert characterization.summary.mean > characterization.summary.p50
        assert characterization.tail_ratio > 1.5

    def test_lognormal_fits_better_than_exponential(self, characterization):
        assert characterization.lognormal_fits_better

    def test_samples_accessor(self, characterization):
        samples = characterization.samples()
        assert samples.size == 150
        assert (samples > 0).all()

    def test_invalid_num_queries(self, small_collection, small_query_log):
        with IndexServingNode(partition_index(small_collection, 1)) as isn:
            with pytest.raises(ValueError):
                characterize_service_times(isn, small_query_log, num_queries=0)


class TestBucketing:
    def test_by_term_count(self, characterization):
        rows = service_time_by_term_count(characterization.measurements)
        assert rows, "expected at least one term-count bucket"
        term_counts = [row.term_count for row in rows]
        assert term_counts == sorted(term_counts)
        assert sum(row.num_queries for row in rows) == 150
        # More terms -> more postings traversed on average.
        if len(rows) >= 3:
            assert rows[-1].mean_volume > rows[0].mean_volume

    def test_by_volume_monotone_service_time(self, characterization):
        rows = service_time_by_volume(characterization.measurements, 4)
        assert len(rows) == 4
        assert sum(row.num_queries for row in rows) == 150
        # The top-volume quartile must cost more than the bottom one.
        assert rows[-1].mean_seconds > rows[0].mean_seconds
        assert rows[-1].high_volume >= rows[0].low_volume

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError):
            service_time_by_term_count([])
        with pytest.raises(ValueError):
            service_time_by_volume([])

    def test_invalid_bucket_count(self, characterization):
        with pytest.raises(ValueError):
            service_time_by_volume(characterization.measurements, 0)


class TestIndexScaling:
    def test_service_time_grows_with_corpus(self):
        vocabulary = VocabularyConfig(size=1_500, seed=4)
        configs = [
            CorpusConfig(
                num_documents=size,
                vocabulary=vocabulary,
                mean_length=50,
                seed=17,
            )
            # 25x apart: the extra postings must rise above the fixed
            # per-query cost, which 100 vs 400 documents no longer do.
            for size in (200, 5_000)
        ]
        rows = index_scaling_study(
            configs, queries_per_size=40, repeats=3, seed=0
        )
        assert [row.num_documents for row in rows] == [200, 5_000]
        assert (
            rows[1].index_stats.total_postings
            > rows[0].index_stats.total_postings
        )
        assert rows[1].service_summary.mean > rows[0].service_summary.mean

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            index_scaling_study([])
