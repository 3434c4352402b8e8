"""Document model for the synthetic web corpus."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Document:
    """A single synthetic web page.

    Attributes
    ----------
    doc_id:
        Dense integer id, unique within a collection.
    url:
        Synthetic URL, unique within a collection.
    title:
        Short title text (raw, un-analyzed).
    body:
        Main page text (raw, un-analyzed).
    """

    doc_id: int
    url: str
    title: str
    body: str

    @property
    def text(self) -> str:
        """Full indexable text (title + body)."""
        return f"{self.title}\n{self.body}"


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Every document's raw tokens as ids into one token table.

    ``ids[offsets[d]:offsets[d + 1]]`` are document ``d``'s raw tokens
    (the alphanumeric runs of its text, title then body, in order), each
    an index into ``table``; a token the analyzer's length limit drops
    may be among them, since ``normalize`` drops it again.  The index
    builder analyzes each table entry once instead of every token.
    ``ids`` has the smallest unsigned dtype that holds an index into the
    table.
    """

    table: Sequence[str]
    ids: np.ndarray
    offsets: np.ndarray

    @property
    def num_documents(self) -> int:
        """Number of documents covered."""
        return len(self.offsets) - 1

    def take(self, doc_ids: Sequence[int]) -> "TokenIds":
        """The token ids of ``doc_ids``, renumbered ``0..len-1``."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        if np.array_equal(doc_ids, np.arange(self.num_documents)):
            return self  # one partition: nothing to copy
        starts = self.offsets[doc_ids]
        ends = self.offsets[doc_ids + 1]
        offsets = np.concatenate(([0], np.cumsum(ends - starts)))
        pieces = map(self.ids.__getitem__, map(slice, starts, ends))
        ids = np.concatenate([self.ids[:0], *pieces])
        return TokenIds(self.table, ids, offsets)


@dataclass
class DocumentCollection:
    """An ordered collection of documents with dense ids.

    The index builder consumes a collection; the partitioner splits one
    into shards.  Ids must be dense ``0..len-1`` in order, which
    :meth:`add` enforces — dense ids are what lets postings use array
    offsets instead of hash lookups.  ``tokens``, when set, holds the
    raw tokens of exactly these documents' text as ids (the corpus
    generator hands them over); :meth:`add` drops them.
    """

    documents: List[Document] = field(default_factory=list)
    tokens: Optional[TokenIds] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __getitem__(self, doc_id: int) -> Document:
        return self.documents[doc_id]

    def add(self, document: Document) -> None:
        """Append ``document``; its id must equal the current length."""
        expected = len(self.documents)
        if document.doc_id != expected:
            raise ValueError(
                f"document ids must be dense: expected {expected}, "
                f"got {document.doc_id}"
            )
        self.documents.append(document)
        self.tokens = None

    def get(self, doc_id: int) -> Optional[Document]:
        """Return the document with ``doc_id`` or None if out of range."""
        if 0 <= doc_id < len(self.documents):
            return self.documents[doc_id]
        return None

    def slice(self, doc_ids: List[int]) -> List[Document]:
        """Return the documents for the given ids (order preserved)."""
        return [self.documents[doc_id] for doc_id in doc_ids]
