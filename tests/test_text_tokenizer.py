"""Unit tests for the tokenizer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenizer import Tokenizer, tokenize


class TestTokenizer:
    def test_splits_on_whitespace_and_punctuation(self):
        assert tokenize("Hello, world! foo-bar") == ["Hello", "world", "foo", "bar"]

    def test_keeps_digits(self):
        assert tokenize("top10 results 2015") == ["top10", "results", "2015"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_only_punctuation(self):
        assert tokenize("... --- !!!") == []

    def test_unicode_non_ascii_is_separator(self):
        # The letter tokenizer is ASCII-alphanumeric: other chars split.
        assert tokenize("café rocks") == ["caf", "rocks"]

    def test_long_tokens_dropped_not_truncated(self):
        tokenizer = Tokenizer(max_token_length=5)
        assert tokenizer.tokenize("short toolongtoken ok") == ["short", "ok"]

    def test_max_token_length_boundary(self):
        tokenizer = Tokenizer(max_token_length=5)
        assert tokenizer.tokenize("abcde abcdef") == ["abcde"]

    def test_invalid_max_token_length(self):
        with pytest.raises(ValueError):
            Tokenizer(max_token_length=0)

    def test_tokenize_matches_a_match_by_match_scan(self):
        """The over-long filter only runs when a token needs it."""
        import re

        for text in (
            "The quick, brown fox! Jumps over 2 lazy dogs.",
            "tiny enormously big words interleaved",
            "",
        ):
            for limit in (3, 5, 255):
                scanned = [
                    match.group(0)
                    for match in re.finditer(r"[0-9A-Za-z]+", text)
                    if len(match.group(0)) <= limit
                ]
                assert Tokenizer(limit).tokenize(text) == scanned

    @given(st.text(max_size=200))
    def test_tokens_are_always_alphanumeric(self, text):
        for token in tokenize(text):
            assert token.isalnum()

    @given(st.text(alphabet=st.characters(whitelist_categories=["Ll"]), max_size=50))
    def test_tokenization_is_idempotent(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
