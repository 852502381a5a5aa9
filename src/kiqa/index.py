"""Inverted index with BM25 ranking over a knowledge corpus.

Scores follow the classic Okapi form.  With ``N`` documents, document
frequency ``df``, term frequency ``tf`` and length normalizer
``len/avg_len``::

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d, q) = sum over q of idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg))

Queries are bags: a term contributes once per occurrence.  Documents with
zero score are omitted; ties are broken by sentence id ascending.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import KnowledgeCorpus
from .textnorm import word_tokens

_MAGIC = b"KIIX"
_VERSION = 1


class IndexFormatError(ValueError):
    """Raised when an index file is unreadable or malformed."""


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75


@dataclass(frozen=True)
class SearchHit:
    sentence_id: str
    score: float
    rank: int  # 1-based


@dataclass
class InvertedIndex:
    params: Bm25Params
    doc_ids: list[str]
    doc_lengths: list[int]
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc position, tf)]
    avg_doc_length: float = field(init=False)

    def __post_init__(self):
        n = len(self.doc_lengths)
        self.avg_doc_length = sum(self.doc_lengths) / n if n else 0.0

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def build_index(corpus: KnowledgeCorpus, params: Bm25Params = Bm25Params()) -> InvertedIndex:
    doc_ids = []
    doc_lengths = []
    postings: dict[str, list[tuple[int, int]]] = {}
    for pos, sent in enumerate(corpus.sentences):
        tokens = word_tokens(sent.text)
        doc_ids.append(sent.id)
        doc_lengths.append(len(tokens))
        for term, tf in sorted(Counter(tokens).items()):
            postings.setdefault(term, []).append((pos, tf))
    return InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths, postings=postings)


def search(index: InvertedIndex, query_terms: Sequence[str], k: int = 10) -> list[SearchHit]:
    """Top-``k`` documents by BM25 score for a tokenized query."""
    if k <= 0:
        raise ValueError("k must be positive")
    k1, b = index.params.k1, index.params.b
    avg = index.avg_doc_length
    scores: dict[int, float] = {}
    for term, count in Counter(query_terms).items():
        plist = index.postings.get(term)
        if not plist:
            continue
        w_idf = index.idf(term) * count
        for pos, tf in plist:
            ratio = index.doc_lengths[pos] / avg if avg > 0 else 0.0
            contrib = w_idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * ratio))
            scores[pos] = scores.get(pos, 0.0) + contrib
    ranked = sorted(
        ((index.doc_ids[pos], s) for pos, s in scores.items() if s != 0.0),
        key=lambda item: (-item[1], item[0]),
    )
    return [
        SearchHit(sentence_id=i, score=s, rank=r)
        for r, (i, s) in enumerate(ranked[:k], start=1)
    ]


# ---------------------------------------------------------------------------
# Binary serialization (little-endian, length-prefixed sections)
# ---------------------------------------------------------------------------

def save_index(index: InvertedIndex, path: str | Path) -> None:
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    out += struct.pack("<dd", index.params.k1, index.params.b)
    out += struct.pack("<I", index.doc_count)
    for doc_id, length in zip(index.doc_ids, index.doc_lengths):
        raw = doc_id.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw + struct.pack("<I", length)
    terms = sorted(index.postings)
    out += struct.pack("<I", len(terms))
    for term in terms:
        raw = term.encode("utf-8")
        plist = index.postings[term]
        out += struct.pack("<I", len(raw)) + raw + struct.pack("<I", len(plist))
        for pos, tf in plist:
            out += struct.pack("<II", pos, tf)
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise IndexFormatError(f"{self.path}: truncated index file")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def load_index(path: str | Path) -> InvertedIndex:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IndexFormatError(f"cannot read {path}: {exc}") from exc
    r = _Reader(data, path)
    if r.take(4) != _MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    version = r.u32()
    if version != _VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {version}")
    params = Bm25Params(k1=r.f64(), b=r.f64())
    doc_count = r.u32()
    doc_ids = []
    doc_lengths = []
    for _ in range(doc_count):
        doc_ids.append(r.string())
        doc_lengths.append(r.u32())
    postings: dict[str, list[tuple[int, int]]] = {}
    for _ in range(r.u32()):
        term = r.string()
        plist = [struct.unpack("<II", r.take(8)) for _ in range(r.u32())]
        for pos, tf in plist:
            if pos >= doc_count or tf < 1:
                raise IndexFormatError(
                    f"{path}: posting ({pos}, {tf}) of term {term!r} is out of range "
                    f"for {doc_count} documents"
                )
        postings[term] = plist
    if r.offset != len(data):
        raise IndexFormatError(f"{path}: trailing bytes after index data")
    return InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths, postings=postings)
