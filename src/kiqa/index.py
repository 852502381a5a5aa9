"""Inverted index with BM25 ranking over a knowledge corpus.

Scores follow the classic Okapi form.  With ``N`` documents, document
frequency ``df``, term frequency ``tf`` and length normalizer
``len/avg_len``::

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d, q) = sum over q of idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg))

Queries are bags: each distinct term is added once, weighted by its count,
in first-occurrence order.  Documents with zero score are omitted; ties
are broken by sentence id ascending.  Searching an index fills two lazy
caches on it: each queried term's positions as ``intp`` and, when the ids
do not already ascend by position, each document's place in id order.

Postings live in one flat array of little-endian ``(pos <u4, tf <u4)``
records sorted by (term, document position); ``postings[term]`` is a view
of that term's block, so its length is the term's document frequency.
A search hit carries the document's position, so a caller reads the
corpus's columns by position and needs no id lookup.

An index file is a :mod:`kiqa.binfmt` frame, magic ``KIIX``, version 3,
whose payload is columnar::

    k1 f64  b f64  corpus sha256 u1[32]
    doc id strings    doc lengths <u4[doc count]
    term strings      dfs <u4[term count]
    postings: sum(dfs) (pos, tf) records, term after term

Terms are sorted, so saving and loading take a few array calls per column.
The sha256 is the corpus's :attr:`~kiqa.corpus.KnowledgeCorpus.digest`
over its id and text columns: an index pins the corpus it was built over,
and attaching with any other corpus, even one with the same ids, is
rejected.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Sequence

import numpy as np

from . import binfmt
from .corpus import KnowledgeCorpus
from .textnorm import word_tokens

POSTING = np.dtype([("pos", "<u4"), ("tf", "<u4")])
_U4 = np.dtype("<u4")


class IndexFormatError(ValueError):
    """Raised when an index file is unreadable or malformed."""


KIIX = binfmt.Kind(b"KIIX", 3, "index", "index-build", IndexFormatError)


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
    _positions: dict[str, np.ndarray] = field(init=False, repr=False, default_factory=dict)

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

    def positions(self, term: str) -> np.ndarray | None:
        """The term's posting positions as ``intp``, converted on first use; None if unseen."""
        pos = self._positions.get(term)
        if pos is None and term in self.postings:
            pos = self._positions[term] = self.postings[term]["pos"].astype(np.intp)
        return pos

    @cached_property
    def id_rank(self) -> np.ndarray | None:
        """Each document's place in sentence-id order; None when that is its position.

        Ids that ascend by position (every corpus ``corpus-prep`` writes) need
        no sort.  Equal ids keep position order, as a stable sort by id would.
        """
        ids = self.doc_ids
        if all(map(operator.le, ids, ids[1:])):
            return None
        rank = np.empty(len(ids), dtype=np.intp)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return rank


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
    from a partition of that vector; every document tied with the k-th
    score is kept, and one ``np.lexsort`` on (-score,
    :attr:`~InvertedIndex.id_rank`) orders them, so equal scores go to
    the smaller sentence id.  Hits are made for the ``k`` returned only.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    k1 = index.params.k1
    scores = np.zeros(index.doc_count)
    for term, count in Counter(query_terms).items():
        pos = index.positions(term)
        if pos is None:
            continue
        w_idf = index.idf(term) * count
        tf = index.postings[term]["tf"]
        scores[pos] += w_idf * tf * (k1 + 1.0) / (tf + index.length_norm[pos])
    # No score is negative, so a positive k-th largest score keeps at least
    # k documents with every tie of the k-th; a zero one keeps every hit.
    n = index.doc_count
    kth = np.partition(scores, n - k)[n - k] if n > k else 0.0
    hit = np.flatnonzero(scores >= kth) if kth > 0 else np.flatnonzero(scores)
    vals = scores[hit]
    rank = index.id_rank
    order = np.lexsort((hit if rank is None else rank[hit], -vals))[:k]
    doc_ids = index.doc_ids
    return [
        SearchHit(sentence_id=doc_ids[p], score=s, rank=r, pos=p)
        for r, (p, s) in enumerate(zip(hit[order].tolist(), vals[order].tolist()), start=1)
    ]


# ---------------------------------------------------------------------------
# Binary serialization (the KIIX v3 payload, see the module docstring)
# ---------------------------------------------------------------------------

def save_index(index: InvertedIndex, path: str | Path) -> None:
    terms = sorted(index.postings)
    blocks = [index.postings[t] for t in terms]
    w = binfmt.Writer()
    w.f64(index.params.k1)
    w.f64(index.params.b)
    w.array(np.frombuffer(index.corpus_digest, np.uint8), np.uint8)
    w.strings(index.doc_ids)
    w.array(index.doc_lengths, _U4)
    w.strings(terms)
    w.array(list(map(len, blocks)), _U4)
    for block in blocks:
        w.array(block, POSTING)
    binfmt.save(path, KIIX, w)


def load_index(path: str | Path) -> InvertedIndex:
    r = binfmt.load(path, KIIX)
    try:
        params = Bm25Params(k1=r.f64(), b=r.f64())
    except ValueError as exc:
        raise r.error(str(exc)) from None
    corpus_digest = r.array(np.uint8, 32).tobytes()
    doc_ids = r.strings()
    doc_lengths = r.array(_U4, len(doc_ids))
    terms = r.strings()
    counts = r.array(_U4, len(terms))
    records = r.array(POSTING, int(counts.sum(dtype=np.int64)))
    r.done()
    if len(set(terms)) != len(terms):
        raise r.error("a term has more than one posting list")
    _check_postings(records, counts, terms, len(doc_ids), r)
    return InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths,
                         postings=_blocks(terms, counts, records), corpus_digest=corpus_digest)


def _check_postings(records, counts, terms, doc_count, r: binfmt.Reader) -> None:
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
        raise r.error(
            f"posting ({records['pos'][i]}, {records['tf'][i]}) of term {term!r} "
            f"is out of range or out of order for {doc_count} documents"
        )
