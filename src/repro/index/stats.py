"""Index statistics for the characterization tables.

The paper's Table-1-style characterization reports collection and index
statistics (documents, terms, postings, posting-length skew, compressed
size).  :func:`compute_statistics` derives them all from an
:class:`~repro.index.inverted.InvertedIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.index.compression import compressed_size, encode_varint
from repro.index.inverted import InvertedIndex

#: Sections of the v3 on-disk layout, in file order.
SECTION_NAMES = (
    "header",
    "doc_lengths",
    "dictionary",
    "postings",
    "block_metadata",
)


@dataclass(frozen=True)
class IndexStatistics:
    """Summary statistics of one inverted index.

    Posting-length percentiles expose the Zipfian skew: with a crawl-like
    corpus the p99 posting length is orders of magnitude above the median,
    which is why some queries are intrinsically far more expensive than
    others.

    ``compressed_sections``, when present, splits the serialized (v3)
    byte count by file section — header, doc-length table, dictionary,
    postings, block metadata — closing the gap where the repo measured
    latency but never bytes: storage cost per shard is now reportable
    alongside service time, and the sections sum to the exact
    ``serialize_index(index, version=3)`` length.
    """

    num_documents: int
    num_terms: int
    total_postings: int
    average_doc_length: float
    mean_posting_length: float
    median_posting_length: float
    p90_posting_length: float
    p99_posting_length: float
    max_posting_length: int
    compressed_size_bytes: int
    compressed_sections: Optional[Dict[str, int]] = None

    def as_rows(self) -> Dict[str, float]:
        """Return the table rows (label -> value) for reporting."""
        rows = {
            "documents": self.num_documents,
            "distinct terms": self.num_terms,
            "total postings": self.total_postings,
            "avg document length (terms)": round(self.average_doc_length, 1),
            "mean posting length": round(self.mean_posting_length, 2),
            "median posting length": self.median_posting_length,
            "p90 posting length": self.p90_posting_length,
            "p99 posting length": self.p99_posting_length,
            "max posting length": self.max_posting_length,
            "compressed index size (bytes)": self.compressed_size_bytes,
        }
        if self.compressed_sections is not None:
            for section in SECTION_NAMES:
                rows[f"compressed {section} (bytes)"] = (
                    self.compressed_sections[section]
                )
            rows["compressed segment total (bytes)"] = sum(
                self.compressed_sections.values()
            )
        return rows


def compressed_section_sizes(index: InvertedIndex) -> Dict[str, int]:
    """Per-section byte sizes of ``index``'s v3 serialized form.

    Mirrors :func:`repro.index.serialization.serialize_index` section by
    section without materializing the payload twice; the values sum to
    exactly ``len(serialize_index(index, version=3))`` (a regression
    test pins this).  Sections:

    - ``header`` — magic, version, flags, max token length, checksum,
      block size;
    - ``doc_lengths`` — document count + per-document length varints;
    - ``dictionary`` — term count + per-term length-prefixed UTF-8;
    - ``postings`` — the compressed (delta-gap varint) postings;
    - ``block_metadata`` — the per-block skip/max-tf/min-dl triples.
    """
    config = index.analyzer.config
    header = (
        4  # magic
        + 1  # version
        + 1  # flags
        + len(encode_varint(config.max_token_length))
        + 4  # crc32 (v2+)
        + len(encode_varint(index.block_size))  # v3
    )
    doc_lengths = len(encode_varint(index.num_documents)) + sum(
        len(encode_varint(int(length))) for length in index.doc_lengths
    )
    dictionary = len(encode_varint(index.num_terms))
    postings = 0
    block_metadata = 0
    for term_id in range(index.num_terms):
        term_bytes = index.dictionary.term_for_id(term_id).encode("utf-8")
        dictionary += len(encode_varint(len(term_bytes))) + len(term_bytes)
        postings += compressed_size(*index.postings_for_id(term_id))
        blocks = index.block_metadata_for_id(term_id)
        previous = -1
        for position in range(blocks.num_blocks):
            last_doc_id = int(blocks.last_doc_ids[position])
            block_metadata += len(encode_varint(last_doc_id - previous))
            block_metadata += len(
                encode_varint(int(blocks.max_frequencies[position]))
            )
            block_metadata += len(
                encode_varint(int(blocks.min_doc_lengths[position]))
            )
            previous = last_doc_id
    return {
        "header": header,
        "doc_lengths": doc_lengths,
        "dictionary": dictionary,
        "postings": postings,
        "block_metadata": block_metadata,
    }


def shard_compressed_sizes(partitioned) -> List[Dict[str, int]]:
    """Per-shard section sizes of a partitioned index.

    Accepts anything iterable over shards with an ``index`` attribute
    (:class:`~repro.index.partitioner.PartitionedIndex` included); one
    dict per shard, in shard order — the storage-cost side of the
    partitioning study.
    """
    return [compressed_section_sizes(shard.index) for shard in partitioned]


def compute_statistics(
    index: InvertedIndex,
    include_compressed_size: bool = True,
    include_sections: bool = False,
) -> IndexStatistics:
    """Compute :class:`IndexStatistics` for ``index``.

    ``include_compressed_size=False`` skips the (relatively expensive)
    varint encoding pass and reports 0 for the size.
    ``include_sections=True`` additionally reports the per-section
    serialized sizes (implies a second encoding pass for the
    non-postings sections).
    """
    lengths = np.array(
        index.dictionary.document_frequencies or [0], dtype=np.int64
    )
    size = 0
    if include_compressed_size:
        size = sum(
            compressed_size(*index.postings_for_id(term_id))
            for term_id in range(index.num_terms)
        )
    sections = compressed_section_sizes(index) if include_sections else None
    return IndexStatistics(
        num_documents=index.num_documents,
        num_terms=index.num_terms,
        total_postings=index.total_postings,
        average_doc_length=index.average_doc_length,
        mean_posting_length=float(lengths.mean()),
        median_posting_length=float(np.percentile(lengths, 50)),
        p90_posting_length=float(np.percentile(lengths, 90)),
        p99_posting_length=float(np.percentile(lengths, 99)),
        max_posting_length=int(lengths.max()),
        compressed_size_bytes=size,
        compressed_sections=sections,
    )
