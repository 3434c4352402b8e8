"""Tests for corpus/query-log persistence."""

import json

import numpy as np
import pytest

from repro.corpus.io import (
    load_collection,
    load_query_log,
    save_collection,
    save_query_log,
)
from repro.index.builder import IndexBuilder
from repro.index.serialization import serialize_index


class TestCollectionIO:
    def test_roundtrip(self, small_collection, tmp_path):
        path = tmp_path / "corpus.jsonl"
        written = save_collection(small_collection, path)
        assert written == len(small_collection)
        loaded = load_collection(path)
        assert len(loaded) == len(small_collection)
        for original, restored in zip(small_collection, loaded):
            assert original == restored

    def test_roundtrip_produces_identical_index(
        self, small_collection, tmp_path
    ):
        path = tmp_path / "corpus.jsonl"
        save_collection(small_collection, path)
        loaded = load_collection(path)
        original_index = serialize_index(IndexBuilder().build(small_collection))
        restored_index = serialize_index(IndexBuilder().build(loaded))
        assert original_index == restored_index

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"doc_id": 0, "url": "u"}) + "\n")
        with pytest.raises(ValueError, match="missing field"):
            load_collection(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps(
                {"doc_id": 0, "url": "u", "title": "t", "body": "b"}
            )
            + "\n\n"
        )
        assert len(load_collection(path)) == 1


class TestQueryLogIO:
    def test_roundtrip(self, small_query_log, tmp_path):
        path = tmp_path / "queries.jsonl"
        written = save_query_log(small_query_log, path)
        assert written == len(small_query_log)
        loaded = load_query_log(path)
        assert len(loaded) == len(small_query_log)
        assert loaded.popularity_exponent == small_query_log.popularity_exponent
        assert [q.text for q in loaded] == [q.text for q in small_query_log]

    def test_popularity_model_restored(self, small_query_log, tmp_path):
        path = tmp_path / "queries.jsonl"
        save_query_log(small_query_log, path)
        loaded = load_query_log(path)
        rng = np.random.default_rng(0)
        original_stream = small_query_log.sample_stream(50, np.random.default_rng(0))
        loaded_stream = loaded.sample_stream(50, rng)
        assert [q.query_id for q in original_stream] == [
            q.query_id for q in loaded_stream
        ]

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro query log"):
            load_query_log(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "repro-querylog", "version": 99, "num_queries": 0,
                 "popularity_exponent": 0.85}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            load_query_log(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"format": "repro-querylog", "version": 1, "num_queries": 2,
                 "popularity_exponent": 0.85}
            )
            + "\n"
            + json.dumps({"query_id": 0, "text": "only one"})
            + "\n"
        )
        with pytest.raises(ValueError, match="promises 2"):
            load_query_log(path)
