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
A search hit carries the document's position, so a caller reads the
corpus's columns by position and needs no id lookup.

A KIIX v2 file is little-endian and columnar::

    "KIIX"  version u32 (2)  k1 f64  b f64  corpus sha256 (32 bytes)
    doc count u32   doc id column       doc lengths <u4[doc count]
    term count u32  term column         dfs <u4[term count]
    postings: sum(dfs) (pos, tf) records, term after term

A string column is the ``<u4`` UTF-8 byte length of every string followed
by the strings' concatenated UTF-8 bytes; terms are sorted.  Saving and
loading thus take a few array calls per column.  The sha256 is the corpus's
:attr:`~kiqa.corpus.KnowledgeCorpus.digest` over its id and text
columns: an index pins the corpus it was built over, and attaching with
any other corpus, even one with the same ids, is rejected.  Version 1
files are rejected with a request to rebuild the index.
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
_VERSION = 2
POSTING = np.dtype([("pos", "<u4"), ("tf", "<u4")])
_U4 = np.dtype("<u4")


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
    pos: int  # the document's position in the corpus and in ``doc_ids``


@dataclass
class InvertedIndex:
    params: Bm25Params
    doc_ids: list[str]
    doc_lengths: np.ndarray  # int64, one token count per document
    postings: dict[str, np.ndarray]  # term -> block of POSTING records, by position
    corpus_digest: bytes  # KnowledgeCorpus.digest of the corpus it was built over
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
    doc_lengths = []
    term_ids: defaultdict[str, int] = defaultdict(count().__next__)  # a new term gets the next id
    token_col: list[int] = []  # the term id of every token, sentence after sentence
    for text in corpus.texts:
        tokens = word_tokens(text)
        doc_lengths.append(len(tokens))
        token_col += map(term_ids.__getitem__, tokens)
    terms = sorted(term_ids)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[term_ids[t] for t in terms]] = np.arange(len(terms))
    n = len(corpus)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
    # One key per token, ordered by (term, position); each distinct key is a
    # posting and its multiplicity the term frequency.
    keys, tf = np.unique(rank[np.array(token_col, dtype=np.int64)] * n + doc_of,
                         return_counts=True)
    records = np.empty(len(keys), dtype=POSTING)
    records["pos"] = keys % n
    records["tf"] = tf
    df = np.bincount(keys // n, minlength=len(terms))
    return InvertedIndex(params=params, doc_ids=list(corpus.ids), doc_lengths=doc_lengths,
                         postings=_blocks(terms, df, records), corpus_digest=corpus.digest)


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
    doc_ids = index.doc_ids
    ranked = sorted(zip(hit.tolist(), vals.tolist()), key=lambda ps: (-ps[1], doc_ids[ps[0]]))
    return [
        SearchHit(sentence_id=doc_ids[p], score=s, rank=r, pos=p)
        for r, (p, s) in enumerate(ranked[:k], start=1)
    ]


# ---------------------------------------------------------------------------
# Binary serialization (KIIX v2, see the module docstring)
# ---------------------------------------------------------------------------

def _string_column(strings: Sequence[str]) -> bytes:
    raw = [s.encode("utf-8", "surrogatepass") for s in strings]
    return np.array(list(map(len, raw)), dtype=_U4).tobytes() + b"".join(raw)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    terms = sorted(index.postings)
    blocks = [index.postings[t] for t in terms]
    parts = [
        _MAGIC,
        struct.pack("<Idd", _VERSION, index.params.k1, index.params.b),
        index.corpus_digest,
        struct.pack("<I", index.doc_count),
        _string_column(index.doc_ids),
        index.doc_lengths.astype(_U4).tobytes(),
        struct.pack("<I", len(terms)),
        _string_column(terms),
        np.array(list(map(len, blocks)), dtype=_U4).tobytes(),
        *(block.tobytes() for block in blocks),
    ]
    Path(path).write_bytes(b"".join(parts))


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

    def u32s(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(n * _U4.itemsize), _U4)

    def strings(self, n: int) -> list[str]:
        """A string column of ``n`` entries."""
        ends = np.cumsum(self.u32s(n), dtype=np.int64).tolist()
        blob = self.take(ends[-1] if ends else 0)
        starts = [0, *ends[:-1]]
        try:
            text = blob.decode("utf-8", "surrogatepass")
            if len(text) == len(blob):  # all ASCII: byte offsets are character offsets
                return list(map(text.__getitem__, map(slice, starts, ends)))
            return [blob[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip(starts, ends)]
        except UnicodeDecodeError:
            raise IndexFormatError(f"{self.path}: a string column is not valid UTF-8") from None


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
        raise IndexFormatError(
            f"{path}: unsupported index version {version} (this version reads {_VERSION}); "
            f"rebuild the index with index-build"
        )
    k1, b = struct.unpack("<dd", r.take(16))
    try:
        params = Bm25Params(k1=k1, b=b)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: {exc}") from None
    corpus_digest = r.take(32)
    doc_count = r.u32()
    doc_ids = r.strings(doc_count)
    doc_lengths = r.u32s(doc_count)
    term_count = r.u32()
    terms = r.strings(term_count)
    counts = r.u32s(term_count)
    records = np.frombuffer(r.take(int(counts.sum(dtype=np.int64)) * POSTING.itemsize), POSTING)
    if r.offset != len(data):
        raise IndexFormatError(f"{path}: trailing bytes after index data")
    if len(set(terms)) != len(terms):
        raise IndexFormatError(f"{path}: a term has more than one posting list")
    _check_postings(records, counts, terms, doc_count, path)
    return InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths,
                         postings=_blocks(terms, counts, records), corpus_digest=corpus_digest)


def _check_postings(records, counts, terms, doc_count, path) -> None:
    """Every position is in range and ascends within its block; every tf >= 1."""
    counts = counts.astype(np.int64)
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
