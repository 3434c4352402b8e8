"""Tokenization of raw document and query text.

The benchmark's index serving node tokenizes text into maximal runs of
alphanumeric characters, which is what ``Tokenizer`` implements.  Tokens
longer than ``max_token_length`` are discarded rather than truncated,
matching Lucene's ``StandardTokenizer`` default behaviour of dropping
pathological tokens (e.g. base64 blobs in crawled pages).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

_TOKEN_PATTERN = re.compile(r"[0-9A-Za-z]+")

#: Default maximum token length, matching Lucene's ``maxTokenLength``.
DEFAULT_MAX_TOKEN_LENGTH = 255


@dataclass(frozen=True)
class Tokenizer:
    """Splits text into alphanumeric tokens.

    Parameters
    ----------
    max_token_length:
        Tokens strictly longer than this are dropped.  Must be positive.
    """

    max_token_length: int = DEFAULT_MAX_TOKEN_LENGTH

    def __post_init__(self) -> None:
        if self.max_token_length <= 0:
            raise ValueError(
                f"max_token_length must be positive, got {self.max_token_length}"
            )

    def tokenize(self, text: str) -> List[str]:
        """Return the list of tokens in ``text``, in order of appearance."""
        tokens = _TOKEN_PATTERN.findall(text)
        limit = self.max_token_length
        if tokens and max(map(len, tokens)) > limit:
            tokens = [token for token in tokens if len(token) <= limit]
        return tokens


def tokenize(text: str) -> List[str]:
    """Tokenize ``text`` with default settings (module-level convenience)."""
    return Tokenizer().tokenize(text)
