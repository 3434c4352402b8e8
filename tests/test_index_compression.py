"""Unit + property tests for the varint/delta postings codec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.compression import (
    compressed_size,
    decode_postings,
    decode_varint,
    decode_varint_stream,
    encode_postings,
    encode_varint,
    encode_varint_stream,
)
from tests.test_index_postings import from_pairs


class TestVarint:
    def test_small_values_one_byte(self):
        for value in (0, 1, 127):
            assert len(encode_varint(value)) == 1

    def test_larger_values_multi_byte(self):
        assert len(encode_varint(128)) == 2
        assert len(encode_varint(1 << 21)) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_decode_rejected(self):
        data = encode_varint(300)[:1]  # drop the final byte
        with pytest.raises(ValueError):
            decode_varint(data)

    @given(st.integers(min_value=0, max_value=2**62))
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=50))
    def test_stream_roundtrip(self, values):
        data = encode_varint_stream(values)
        assert decode_varint_stream(data, len(values)) == values

    def test_stream_trailing_bytes_rejected(self):
        data = encode_varint_stream([1, 2, 3])
        with pytest.raises(ValueError):
            decode_varint_stream(data, 2)


def same(decoded, postings):
    """``decode_postings`` output equals the ``(doc_ids, frequencies)`` pair."""
    doc_ids, frequencies = postings
    return (
        np.array_equal(decoded[0], doc_ids)
        and np.array_equal(decoded[1], frequencies)
        and decoded[0].dtype == decoded[1].dtype == np.int64
    )


class TestPostingsCodec:
    def test_empty_roundtrip(self):
        encoded = encode_postings(*from_pairs([]))
        doc_ids, frequencies, consumed = decode_postings(encoded)
        assert doc_ids.size == frequencies.size == 0
        assert consumed == len(encoded)

    def test_simple_roundtrip(self):
        postings = from_pairs([(0, 1), (1, 2), (100, 3)])
        decoded = decode_postings(encode_postings(*postings))
        assert same(decoded, postings)

    def test_dense_ids_compress_well(self):
        # Consecutive ids have gap 0 after biasing: 2 bytes per posting.
        postings = from_pairs([(i, 1) for i in range(1000)])
        assert compressed_size(*postings) <= 2 * 1000 + 3

    def test_decode_reports_consumed_bytes(self):
        postings = from_pairs([(3, 1), (9, 2)])
        encoded = encode_postings(*postings) + b"extra"
        decoded = decode_postings(encoded)
        assert same(decoded, postings)
        assert encoded[decoded[2]:] == b"extra"

    def test_decodes_in_place_at_an_offset(self):
        """A list decoded at a non-zero offset equals the list decoded
        from the slice, and the returned offset is absolute."""
        first = encode_postings(*from_pairs([(2, 1), (7, 3)]))
        second = encode_postings(*from_pairs([(0, 4), (5, 1), (300, 2)]))
        data = b"\x99" + first + second + b"tail"
        at_offset = decode_postings(data, 1 + len(first))
        from_slice = decode_postings(data[1 + len(first):])
        assert same(at_offset, from_slice[:2])
        assert at_offset[2] == 1 + len(first) + from_slice[2]
        assert data[at_offset[2]:] == b"tail"

    def test_decode_validates(self):
        # Frequency 0 breaks the postings invariant, not the varints.
        with pytest.raises(ValueError, match="frequencies must be positive"):
            decode_postings(bytes([1, 0, 0]))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100_000),
                st.integers(min_value=1, max_value=1_000),
            ),
            max_size=80,
            unique_by=lambda pair: pair[0],
        ).map(sorted)
    )
    def test_roundtrip_property(self, pairs):
        postings = from_pairs(pairs)
        decoded = decode_postings(encode_postings(*postings))
        assert same(decoded, postings)
        assert decoded[2] == len(encode_postings(*postings))
