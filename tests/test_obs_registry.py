"""Tests for the metrics registry: counters, gauges, histograms, export."""

import csv
import threading

import numpy as np
import pytest

from repro.obs.export import REGISTRY_COLUMNS, export_registry_csv
from repro.metrics.histogram import Histogram
from repro.obs.registry import (
    Counter,
    FixedBucketHistogram,
    Gauge,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_add_default_and_amount(self):
        counter = Counter("c")
        counter.add()
        counter.add(41)
        assert counter.value == 42

    def test_negative_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError, match="gauge"):
            counter.add(-1)
        assert counter.value == 0

    def test_zero_allowed(self):
        counter = Counter("c")
        counter.add(0)
        assert counter.value == 0

    def test_thread_safe_increments(self):
        counter = Counter("c")

        def bump():
            for _ in range(1000):
                counter.add()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_last_value_wins(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_add_may_go_negative(self):
        gauge = Gauge("g")
        gauge.add(2.0)
        gauge.add(-5.0)
        assert gauge.value == -3.0


class TestFixedBucketHistogram:
    def test_edges_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            FixedBucketHistogram("h", [0.0, 1.0, 1.0])

    def test_needs_two_edges(self):
        with pytest.raises(ValueError, match="two bucket edges"):
            FixedBucketHistogram("h", [1.0])

    def test_observe_places_in_half_open_buckets(self):
        histogram = FixedBucketHistogram("h", [0.0, 1.0, 2.0, 4.0])
        for value in (0.0, 0.5, 1.0, 3.9):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]
        assert histogram.total == 4
        assert histogram.sum == pytest.approx(5.4)

    def test_below_range_clamps_to_first_bucket(self):
        histogram = FixedBucketHistogram("h", [1.0, 2.0, 3.0])
        histogram.observe(-10.0)
        assert histogram.counts == [1, 0]

    def test_at_or_above_last_edge_clamps_to_last_bucket(self):
        histogram = FixedBucketHistogram("h", [1.0, 2.0, 3.0])
        histogram.observe(3.0)
        histogram.observe(1e9)
        assert histogram.counts == [0, 2]
        assert histogram.total == 2

    def test_log_buckets_layout(self):
        edges = FixedBucketHistogram.log_buckets(1e-3, 1.0, 3)
        assert len(edges) == 4
        assert edges[0] == pytest.approx(1e-3)
        assert edges[-1] == pytest.approx(1.0)
        # Log-spaced: constant ratio between consecutive edges.
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert ratios == pytest.approx([ratios[0]] * len(ratios))

    def test_log_buckets_validation(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram.log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            FixedBucketHistogram.log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            FixedBucketHistogram.log_buckets(1e-3, 1.0, 0)

    def test_to_histogram_roundtrip(self):
        histogram = FixedBucketHistogram("h", [0.0, 1.0, 2.0])
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(1.6)
        converted = histogram.to_histogram()
        assert isinstance(converted, Histogram)
        np.testing.assert_allclose(converted.bin_edges, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(converted.counts, [1, 2])


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")
        registry.histogram("h")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("h")

    def test_len_and_contains(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert len(registry) == 2
        assert "a" in registry
        assert "missing" not in registry

    def test_histogram_custom_edges_only_on_first_registration(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", bin_edges=[0.0, 1.0, 2.0])
        second = registry.histogram("h", bin_edges=[5.0, 6.0])
        assert second is first
        assert first.bin_edges == (0.0, 1.0, 2.0)

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("z.count").add(7)
        registry.gauge("a.level").set(2.5)
        registry.histogram("m.lat", bin_edges=[0.0, 1.0, 2.0]).observe(0.5)
        snapshot = registry.snapshot()
        # Sorted by name.
        assert list(snapshot) == ["a.level", "m.lat", "z.count"]
        assert snapshot["z.count"] == {"type": "counter", "value": 7}
        assert snapshot["a.level"] == {"type": "gauge", "value": 2.5}
        assert snapshot["m.lat"] == {
            "type": "histogram",
            "total": 1,
            "sum": 0.5,
            "bin_edges": [0.0, 1.0, 2.0],
            "counts": [1, 0],
        }

    def test_as_rows_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.counter("hits").add(3)
        histogram = registry.histogram("lat", bin_edges=[0.0, 1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        rows = registry.as_rows()
        assert ("hits", "counter", "value", 3) in rows
        histogram_rows = [row for row in rows if row[0] == "lat"]
        assert histogram_rows == [
            ("lat", "histogram", "count", 4),
            ("lat", "histogram", "sum", pytest.approx(8.5)),
            ("lat", "histogram", "le_1", 1),
            ("lat", "histogram", "le_2", 2),
            ("lat", "histogram", "le_4", 4),
        ]

    def test_reset_frees_names(self):
        registry = MetricsRegistry()
        registry.counter("x").add(1)
        registry.reset()
        assert len(registry) == 0
        # Name is reusable as a different kind after reset.
        registry.gauge("x")


class TestRegistryCsvExport:
    def test_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("cache.hits").add(5)
        registry.gauge("pool.size").set(4)
        registry.histogram("lat", bin_edges=[0.0, 1.0, 2.0]).observe(0.25)
        path = tmp_path / "metrics.csv"
        rows_written = export_registry_csv(registry, path)

        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            body = list(reader)
        assert tuple(header) == REGISTRY_COLUMNS
        assert len(body) == rows_written == len(registry.as_rows())
        by_key = {(row[0], row[2]): row for row in body}
        assert by_key[("cache.hits", "value")][1] == "counter"
        assert by_key[("cache.hits", "value")][3] == "5"
        assert by_key[("pool.size", "value")][3] == "4.0"
        assert by_key[("lat", "count")][3] == "1"

    def test_empty_registry_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert export_registry_csv(MetricsRegistry(), path) == 0
        with open(path, newline="") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1


class TestGlobalRegistry:
    def test_global_always_present(self):
        assert isinstance(get_registry(), MetricsRegistry)

    def test_set_and_replace(self):
        original = get_registry()
        mine = MetricsRegistry()
        try:
            assert set_registry(mine) is mine
            assert get_registry() is mine
        finally:
            set_registry(original)
        assert get_registry() is original
