"""Inverted index with BM25 ranking over a knowledge corpus.

Scores follow the classic Okapi form.  With ``N`` documents, document
frequency ``df``, term frequency ``tf`` and length normalizer
``len/avg_len``::

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d, q) = sum over q of idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg))

Queries are bags: each distinct term is added once, weighted by its count,
in first-occurrence order.  Documents with zero score are omitted; ties
are broken by sentence id ascending.

Postings live in one flat array of little-endian ``(pos <u4, tf <u4)``
records sorted by (term, document position); ``postings[term]`` is a view
of that term's block, so its length is the term's document frequency.
The records are the bytes a KIIX v1 file stores for each term, so saving
writes each block with one ``tobytes`` and loading reads all of them with
one ``frombuffer``.
"""

from __future__ import annotations

import math
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import KnowledgeCorpus
from .textnorm import word_tokens

_MAGIC = b"KIIX"
_VERSION = 1
POSTING = np.dtype([("pos", "<u4"), ("tf", "<u4")])


class IndexFormatError(ValueError):
    """Raised when an index file is unreadable or malformed."""


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        # Outside these ranges a denominator tf + k1*(1 - b + b*len/avg) can
        # reach zero or go negative, and scores turn NaN or change sign.
        if not (0.0 <= self.k1 < math.inf and 0.0 <= self.b <= 1.0):
            raise ValueError(f"BM25 needs k1 >= 0 and 0 <= b <= 1, got k1={self.k1}, b={self.b}")


@dataclass(frozen=True)
class SearchHit:
    sentence_id: str
    score: float
    rank: int  # 1-based


@dataclass
class InvertedIndex:
    params: Bm25Params
    doc_ids: list[str]
    doc_lengths: np.ndarray  # int64, one token count per document
    postings: dict[str, np.ndarray]  # term -> block of POSTING records, by position
    avg_doc_length: float = field(init=False)
    length_norm: np.ndarray = field(init=False, repr=False)  # k1*(1 - b + b*len/avg)

    def __post_init__(self):
        self.doc_lengths = np.asarray(self.doc_lengths, dtype=np.int64)
        n = len(self.doc_lengths)
        self.avg_doc_length = int(self.doc_lengths.sum()) / n if n else 0.0
        k1, b = self.params.k1, self.params.b
        avg = self.avg_doc_length
        ratio = self.doc_lengths / avg if avg > 0 else np.zeros(n)
        self.length_norm = k1 * (1.0 - b + b * ratio)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        n = self.doc_count
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def _blocks(terms: list[str], counts: Sequence[int], records: np.ndarray) -> dict[str, np.ndarray]:
    """Split a (term, pos)-sorted record array into one view per term."""
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    starts = [0, *ends[:-1]]
    return {t: records[lo:hi] for t, lo, hi in zip(terms, starts, ends)}


def build_index(corpus: KnowledgeCorpus, params: Bm25Params = Bm25Params()) -> InvertedIndex:
    doc_ids = []
    doc_lengths = []
    term_ids: defaultdict[str, int] = defaultdict(count().__next__)  # a new term gets the next id
    token_col: list[int] = []  # the term id of every token, sentence after sentence
    for sent in corpus.sentences:
        tokens = word_tokens(sent.text)
        doc_ids.append(sent.id)
        doc_lengths.append(len(tokens))
        token_col += map(term_ids.__getitem__, tokens)
    terms = sorted(term_ids)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[term_ids[t] for t in terms]] = np.arange(len(terms))
    n = len(doc_ids)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
    # One key per token, ordered by (term, position); each distinct key is a
    # posting and its multiplicity the term frequency.
    keys, tf = np.unique(rank[np.array(token_col, dtype=np.int64)] * n + doc_of,
                         return_counts=True)
    records = np.empty(len(keys), dtype=POSTING)
    records["pos"] = keys % n
    records["tf"] = tf
    df = np.bincount(keys // n, minlength=len(terms))
    return InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths,
                         postings=_blocks(terms, df, records))


def search(index: InvertedIndex, query_terms: Sequence[str], k: int = 10) -> list[SearchHit]:
    """Top-``k`` documents by BM25 score for a tokenized query.

    Each term's contributions are scatter-added into a dense score vector,
    term by term, so every document's sum takes the same float operations
    in the same order as a per-document loop would.  The top ``k`` come
    from a partition; every document tied with the k-th score is kept and
    only those are sorted by (-score, sentence id).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    k1 = index.params.k1
    scores = np.zeros(index.doc_count)
    for term, count in Counter(query_terms).items():
        block = index.postings.get(term)
        if block is None:
            continue
        w_idf = index.idf(term) * count
        pos, tf = block["pos"], block["tf"]
        scores[pos] += w_idf * tf * (k1 + 1.0) / (tf + index.length_norm[pos])
    hit = np.flatnonzero(scores)
    vals = scores[hit]
    if len(hit) > k:
        kth = np.partition(vals, len(vals) - k)[len(vals) - k]
        keep = vals >= kth
        hit, vals = hit[keep], vals[keep]
    ranked = sorted(
        ((index.doc_ids[p], s) for p, s in zip(hit.tolist(), vals.tolist())),
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
    for doc_id, length in zip(index.doc_ids, index.doc_lengths.tolist()):
        raw = doc_id.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw + struct.pack("<I", length)
    terms = sorted(index.postings)
    out += struct.pack("<I", len(terms))
    for term in terms:
        raw = term.encode("utf-8")
        block = index.postings[term]
        out += struct.pack("<I", len(raw)) + raw + struct.pack("<I", len(block))
        out += block.tobytes()
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
    try:
        params = Bm25Params(k1=r.f64(), b=r.f64())
    except ValueError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
    doc_count = r.u32()
    doc_ids = []
    doc_lengths = []
    for _ in range(doc_count):
        doc_ids.append(r.string())
        doc_lengths.append(r.u32())
    terms = []
    counts = []
    blocks = []  # each term's (pos, tf) records, as the file stores them
    for _ in range(r.u32()):
        terms.append(r.string())
        counts.append(r.u32())
        blocks.append(r.take(counts[-1] * POSTING.itemsize))
    if r.offset != len(data):
        raise IndexFormatError(f"{path}: trailing bytes after index data")
    if len(set(terms)) != len(terms):
        raise IndexFormatError(f"{path}: a term has more than one posting list")
    records = np.frombuffer(b"".join(blocks), POSTING)
    _check_postings(records, counts, terms, doc_count, path)
    postings = _blocks(terms, counts, records)
    return InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths, postings=postings)


def _check_postings(records, counts, terms, doc_count, path) -> None:
    """Every position is in range and ascends within its block; every tf >= 1."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    pos = records["pos"].astype(np.int64)
    bad = (pos >= doc_count) | (records["tf"] < 1)
    first = np.zeros(len(records), dtype=bool)
    first[starts[counts > 0]] = True
    bad[1:] |= ~first[1:] & (pos[1:] <= pos[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        term = terms[int(np.searchsorted(starts, i, side="right")) - 1]
        raise IndexFormatError(
            f"{path}: posting ({records['pos'][i]}, {records['tf'][i]}) of term {term!r} "
            f"is out of range or out of order for {doc_count} documents"
        )
