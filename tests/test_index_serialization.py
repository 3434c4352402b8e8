"""Unit tests for index (de)serialization."""

import numpy as np
import pytest

from repro.index.serialization import deserialize_index, serialize_index
from repro.text.analyzer import Analyzer, AnalyzerConfig
from tests.conftest import postings_pairs


class TestSerialization:
    def test_roundtrip_preserves_structure(self, small_index):
        restored = deserialize_index(serialize_index(small_index))
        assert restored.num_documents == small_index.num_documents
        assert restored.num_terms == small_index.num_terms
        assert restored.dictionary.terms() == small_index.dictionary.terms()
        assert np.array_equal(restored.doc_lengths, small_index.doc_lengths)

    def test_roundtrip_preserves_postings(self, small_index):
        restored = deserialize_index(serialize_index(small_index))
        for term in list(small_index.dictionary)[:100]:
            assert postings_pairs(restored, term) == postings_pairs(
                small_index, term
            )

    def test_roundtrip_preserves_analyzer_config(self, small_index):
        restored = deserialize_index(serialize_index(small_index))
        original = small_index.analyzer.config
        loaded = restored.analyzer.config
        assert loaded.lowercase == original.lowercase
        assert loaded.remove_stopwords == original.remove_stopwords
        assert loaded.stem == original.stem
        assert loaded.max_token_length == original.max_token_length

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_index(b"XXXX" + b"\x00" * 10)

    def test_bad_version_rejected(self, small_index):
        data = bytearray(serialize_index(small_index))
        data[4] = 99
        with pytest.raises(ValueError, match="version"):
            deserialize_index(bytes(data))

    def test_trailing_bytes_rejected(self, small_index):
        data = serialize_index(small_index) + b"junk"
        with pytest.raises(ValueError, match="trailing"):
            deserialize_index(data)

    def test_custom_stopwords_not_persistable(self, small_collection):
        from repro.index.builder import IndexBuilder

        analyzer = Analyzer(
            AnalyzerConfig(stopwords=frozenset({"custom"}))
        )
        index = IndexBuilder(analyzer).build(small_collection)
        with pytest.raises(ValueError, match="stopword"):
            serialize_index(index)

    def test_loaded_index_searchable(self, small_index, small_query_log):
        from repro.search.executor import Searcher

        restored = deserialize_index(serialize_index(small_index))
        original_searcher = Searcher(small_index)
        restored_searcher = Searcher(restored)
        for query in list(small_query_log)[:10]:
            original = original_searcher.search(query.text)
            loaded = restored_searcher.search(query.text)
            assert original.doc_ids() == loaded.doc_ids()


class TestChecksum:
    """Version-2+ integrity verification (corrupted-postings detection)."""

    def _v1_payload(self, index) -> bytes:
        """A genuine version-1 payload (no checksum, no block section)."""
        return serialize_index(index, version=1)

    def test_current_version_is_three(self, small_index):
        assert serialize_index(small_index)[4] == 3

    def test_flipped_postings_byte_detected(self, small_index):
        from repro.index.serialization import CorruptedIndexError

        data = bytearray(serialize_index(small_index))
        data[-10] ^= 0x40
        with pytest.raises(CorruptedIndexError):
            deserialize_index(bytes(data))

    def test_flipped_header_adjacent_byte_detected(self, small_index):
        from repro.index.serialization import CorruptedIndexError

        data = bytearray(serialize_index(small_index))
        data[15] ^= 0x01  # early in the body (doc-length table)
        with pytest.raises(CorruptedIndexError):
            deserialize_index(bytes(data))

    def test_truncated_payload_detected(self, small_index):
        from repro.index.serialization import CorruptedIndexError

        data = serialize_index(small_index)
        with pytest.raises((CorruptedIndexError, ValueError)):
            deserialize_index(data[: len(data) // 2])

    def test_corruption_error_is_a_value_error(self):
        from repro.index.serialization import CorruptedIndexError

        assert issubclass(CorruptedIndexError, ValueError)

    def test_version1_payload_still_loads(self, small_index):
        restored = deserialize_index(self._v1_payload(small_index))
        assert restored.num_terms == small_index.num_terms
        assert restored.dictionary.terms() == small_index.dictionary.terms()

    def test_version1_corruption_not_reported_as_corrupt(self, small_index):
        """v1 has no checksum: a bad byte may parse or fail either way,

        but a clean parse is accepted (no integrity guarantee)."""
        from repro.index.serialization import CorruptedIndexError

        data = bytearray(self._v1_payload(small_index))
        data[-1] ^= 0x01
        try:
            deserialize_index(bytes(data))
        except CorruptedIndexError:
            pytest.fail("v1 payloads must not raise CorruptedIndexError")
        except ValueError:
            pass  # an unparseable v1 payload is a plain format error

    def test_version1_zero_frequency_posting_rejected(self):
        """Loading validates what it reads: a hand-built v1 payload (no
        checksum to fail first) whose one posting has frequency 0."""
        from repro.index.compression import encode_varint_stream

        def payload(frequency):
            header = b"RIDX" + bytes([1, 0]) + encode_varint_stream([20])
            # 1 document of length 1; 1 term "alpha": 1 posting, doc 0.
            body = encode_varint_stream([1, 1, 1, 5]) + b"alpha"
            return header + body + encode_varint_stream([1, 0, frequency])

        assert deserialize_index(payload(1)).num_terms == 1
        with pytest.raises(ValueError, match="frequencies must be positive"):
            deserialize_index(payload(0))

class TestFormatVersions:
    """Version-3 block metadata plus v1/v2 backward compatibility."""

    def _block_index(self, small_collection, block_size=4):
        from repro.index.builder import IndexBuilder

        return IndexBuilder(block_size=block_size).build(small_collection)

    def test_unsupported_write_version_rejected(self, small_index):
        with pytest.raises(ValueError, match="version"):
            serialize_index(small_index, version=4)

    def test_version2_payload_still_loads(self, small_index):
        data = serialize_index(small_index, version=2)
        assert data[4] == 2
        restored = deserialize_index(data)
        assert restored.num_terms == small_index.num_terms
        assert restored.dictionary.terms() == small_index.dictionary.terms()

    def test_version2_corruption_still_detected(self, small_index):
        from repro.index.serialization import CorruptedIndexError

        data = bytearray(serialize_index(small_index, version=2))
        data[-10] ^= 0x40
        with pytest.raises(CorruptedIndexError):
            deserialize_index(bytes(data))

    def test_v3_roundtrip_preserves_block_metadata(self, small_collection):
        index = self._block_index(small_collection)
        restored = deserialize_index(serialize_index(index))
        assert restored.block_size == index.block_size
        for term_id in range(index.num_terms):
            original = index.block_metadata_for_id(term_id)
            loaded = restored.block_metadata_for_id(term_id)
            assert np.array_equal(original.last_doc_ids, loaded.last_doc_ids)
            assert np.array_equal(
                original.max_frequencies, loaded.max_frequencies
            )
            assert np.array_equal(
                original.min_doc_lengths, loaded.min_doc_lengths
            )

    def test_legacy_payloads_derive_block_metadata_lazily(
        self, small_collection
    ):
        index = self._block_index(small_collection, block_size=128)
        for version in (1, 2):
            restored = deserialize_index(
                serialize_index(index, version=version)
            )
            for term_id in range(min(index.num_terms, 50)):
                original = index.block_metadata_for_id(term_id)
                derived = restored.block_metadata_for_id(term_id)
                assert np.array_equal(
                    original.last_doc_ids, derived.last_doc_ids
                )
                assert np.array_equal(
                    original.max_frequencies, derived.max_frequencies
                )

    def test_every_version_searches_identically(
        self, small_index, small_query_log
    ):
        from repro.search.executor import Searcher

        searchers = {
            version: Searcher(
                deserialize_index(serialize_index(small_index, version=version)),
                algorithm="block_max_wand",
            )
            for version in (1, 2, 3)
        }
        baseline = Searcher(small_index)
        for query in list(small_query_log)[:10]:
            expected = baseline.search(query.text)
            for version, searcher in searchers.items():
                result = searcher.search(query.text)
                assert result.doc_ids() == expected.doc_ids(), version
                assert result.scores() == expected.scores(), version
