"""Inverted index with BM25 ranking over a knowledge corpus.

Scores follow the classic Okapi form.  With ``N`` documents, document
frequency ``df``, term frequency ``tf`` and length normalizer
``len/avg_len``::

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(d, q) = sum over q of idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*len/avg))

Queries are bags: each distinct term is added once, weighted by its count,
in first-occurrence order.  Documents with zero score are omitted; ties
are broken by sentence id ascending.  A search hit carries the document's
position, so a caller reads the corpus by position and needs no id lookup.

An index holds its postings as its file lays them out: one ``records``
array of little-endian ``(pos <u4, tf <u4)`` records sorted by (term,
document position), and ``postings``, which maps each term, ascending, to
its ``range`` of rows, whose length is the term's document frequency.
The first search of a built index makes one position column
(``records["pos"]`` as ``intp``; :func:`load_index` hands over the one its
order check made), and searches fill two memos that live as long as the index:
each queried ``(term, count)``'s BM25 contributions by posting (8 bytes a
posting for each count the term is queried with), so a term that many
queries share is scored once; and, when the ids do not ascend by
position, each document's place in id order.

The doc ids are a :class:`kiqa.binfmt.StringColumn`: the id column's text
and each id's bounds in it, so an id is made when a hit or a pinned row
reads it, and a search makes its ``k`` ids in one call.  Whether the ids
ascend by position is decided from that column: one numpy comparison when
the ids are ASCII of one width, else by decoding and comparing them all.

An index file is a :mod:`kiqa.binfmt` frame, magic ``KIIX``, version 4,
whose payload is columnar::

    k1 f64  b f64  corpus sha256 u1[32]  corpus file sha256 u1[32]
    doc id strings    doc lengths <u4[doc count]
    term strings      dfs <u4[term count]
    postings: sum(dfs) (pos, tf) records, term after term

The corpus sha256 is the corpus's :attr:`~kiqa.corpus.KnowledgeCorpus.digest`
over its id and text columns: an index pins the corpus it was built over,
and attaching with any other corpus, even one with the same ids, is
rejected.  The file sha256 is the corpus's
:attr:`~kiqa.corpus.KnowledgeCorpus.file_sha256`, the sha256 of the
prepared corpus file's bytes when its first lines are the rows, else
zeros.  A stage given that very file checks it with one hash and parses
only the rows it reads (:func:`kiqa.corpus.load_jsonl`).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import binfmt
from .corpus import KnowledgeCorpus
from .textnorm import word_tokens

POSTING = np.dtype([("pos", "<u4"), ("tf", "<u4")])
_U4 = np.dtype("<u4")


KIIX = binfmt.Kind(b"KIIX", 4, "index", "index-build")


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        # Outside these ranges a denominator tf + k1*(1 - b + b*len/avg) can
        # reach zero or go negative, and scores turn NaN or change sign.
        if not (0.0 <= self.k1 < math.inf and 0.0 <= self.b <= 1.0):
            raise ValueError(f"BM25 needs k1 >= 0 and 0 <= b <= 1, got k1={self.k1}, b={self.b}")


class SearchHit(NamedTuple):
    sentence_id: str
    score: float
    pos: int  # the document's position in the corpus and in ``doc_ids``


@dataclass
class InvertedIndex:
    params: Bm25Params
    doc_ids: binfmt.StringColumn
    doc_lengths: np.ndarray  # int64, one token count per document
    records: np.ndarray  # POSTING records, each term's block in turn, by position
    postings: dict[str, range]  # term -> its rows of records, terms ascending
    corpus_digest: bytes  # KnowledgeCorpus.digest of the corpus it was built over
    corpus_file_sha256: bytes  # and its KnowledgeCorpus.file_sha256
    avg_doc_length: float = field(init=False)
    length_norm: np.ndarray = field(init=False, repr=False)  # k1*(1 - b + b*len/avg)
    _contributions: dict[tuple[str, int], np.ndarray] = field(
        init=False, repr=False, default_factory=dict)

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

    @cached_property
    def record_pos(self) -> np.ndarray:
        """Each record's document position as ``intp``, made on first use."""
        return self.records["pos"].astype(np.intp)

    def contributions(self, term: str, count: int) -> np.ndarray:
        """BM25 contributions of ``count`` uses of a seen ``term`` to the documents
        at its positions, computed on first use."""
        out = self._contributions.get((term, count))
        if out is None:
            w_idf, k1 = self.idf(term) * count, self.params.k1
            rows = self.postings[term]
            tf = self.records["tf"][rows.start:rows.stop]
            pos = self.record_pos[rows.start:rows.stop]
            out = self._contributions[term, count] = (
                w_idf * tf * (k1 + 1.0) / (tf + self.length_norm[pos]))
        return out

    @cached_property
    def id_rank(self) -> np.ndarray | None:
        """Each document's place in sentence-id order; None when that is its position.

        Ids that ascend by position (every corpus ``corpus-prep`` writes) need
        no sort.  Equal ids keep position order, as a stable sort by id would.
        """
        if self.doc_ids.ascending():
            return None
        ids = list(self.doc_ids)
        rank = np.empty(len(ids), dtype=np.intp)
        rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return rank


def _term_rows(terms: list[str], counts: np.ndarray) -> tuple[dict[str, range], np.ndarray]:
    """Each term's rows of a record array whose blocks follow in ``terms``
    order, ``counts`` records each; and the blocks' starts."""
    ends = np.cumsum(counts, dtype=np.int64)
    starts = ends - counts
    return dict(zip(terms, map(range, starts.tolist(), ends.tolist()))), starts


def build_index(corpus: KnowledgeCorpus, params: Bm25Params = Bm25Params()) -> InvertedIndex:
    """The BM25 index of ``corpus``: each text tokenized once by ``word_tokens``,
    then one ``np.unique`` of (term rank, position) keys over every token gives
    the postings in file order and each one's term frequency."""
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
    return InvertedIndex(params=params, doc_ids=binfmt.StringColumn.encode(corpus.ids),
                         doc_lengths=doc_lengths,
                         records=records, postings=_term_rows(terms, df)[0],
                         corpus_digest=corpus.digest, corpus_file_sha256=corpus.file_sha256)


def search(index: InvertedIndex, query_terms: Sequence[str], k: int = 10) -> list[SearchHit]:
    """Top-``k`` documents by BM25 score for a tokenized query.

    Each term's contributions (cached on the index per term and count) are
    scatter-added into a dense score vector, term by term, so every
    document's sum takes the same float operations in the same order as a
    per-document loop would.  The top ``k`` come
    from a partition of that vector; every document tied with the k-th
    score is kept, and one ``np.lexsort`` on (-score,
    :attr:`~InvertedIndex.id_rank`) orders them, so equal scores go to
    the smaller sentence id.  Hits are made for the ``k`` returned only.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    scores = np.zeros(index.doc_count)
    for term, count in Counter(query_terms).items():
        rows = index.postings.get(term)
        if rows is not None:
            scores[index.record_pos[rows.start:rows.stop]] += index.contributions(term, count)
    # No score is negative, so a positive k-th largest score keeps at least
    # k documents with every tie of the k-th; a zero one keeps every hit.
    n = index.doc_count
    kth = np.partition(scores, n - k)[n - k] if n > k else 0.0
    hit = np.flatnonzero(scores >= kth) if kth > 0 else np.flatnonzero(scores)
    vals = scores[hit]
    rank = index.id_rank
    order = np.lexsort((hit if rank is None else rank[hit], -vals))[:k]
    pos = hit[order].tolist()
    return list(map(SearchHit, index.doc_ids.take(pos), vals[order].tolist(), pos))


# ---------------------------------------------------------------------------
# Binary serialization (the KIIX v4 payload, see the module docstring)
# ---------------------------------------------------------------------------

def save_index(index: InvertedIndex, path: str | Path) -> None:
    w = binfmt.Writer()
    w.f64(index.params.k1)
    w.f64(index.params.b)
    w.array(np.frombuffer(index.corpus_digest, np.uint8), np.uint8)
    w.array(np.frombuffer(index.corpus_file_sha256, np.uint8), np.uint8)
    w.string_column(index.doc_ids)
    w.array(index.doc_lengths, _U4)
    w.strings(list(index.postings))
    w.array(list(map(len, index.postings.values())), _U4)
    w.array(index.records, POSTING)
    binfmt.save(path, KIIX, w)


def load_index(path: str | Path) -> InvertedIndex:
    r = binfmt.load(path, KIIX)
    try:
        params = Bm25Params(k1=r.f64(), b=r.f64())
    except ValueError as exc:
        raise r.error(str(exc)) from None
    corpus_digest = r.array(np.uint8, 32).tobytes()
    corpus_file_sha256 = r.array(np.uint8, 32).tobytes()
    doc_ids = r.string_column()
    doc_lengths = r.array(_U4, len(doc_ids))
    terms = r.strings()
    counts = r.array(_U4, len(terms))
    records = r.array(POSTING, int(counts.sum(dtype=np.int64)))
    r.done()
    postings, starts = _term_rows(terms, counts)
    if len(postings) < len(terms):
        raise r.error("a term has more than one posting list")
    # Every position is in range and ascends within its block; every tf >= 1.
    pos = records["pos"].astype(np.int64)
    bad = (pos >= len(doc_ids)) | (records["tf"] < 1)
    first = np.zeros(len(records), dtype=bool)
    first[starts[counts > 0]] = True
    bad[1:] |= ~first[1:] & (pos[1:] <= pos[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        term = terms[int(np.searchsorted(starts, i, side="right")) - 1]
        raise r.error(
            f"posting ({records['pos'][i]}, {records['tf'][i]}) of term {term!r} "
            f"is out of range or out of order for {len(doc_ids)} documents"
        )
    tokens = np.bincount(pos, weights=records["tf"], minlength=len(doc_ids))
    if (tokens != doc_lengths).any():
        d = int(np.argmax(tokens != doc_lengths))
        raise r.error(f"document {doc_ids[d]!r} has length {doc_lengths[d]} but its postings "
                      f"hold {tokens[d]:.0f} tokens")
    index = InvertedIndex(params=params, doc_ids=doc_ids, doc_lengths=doc_lengths,
                          records=records, postings=postings, corpus_digest=corpus_digest,
                          corpus_file_sha256=corpus_file_sha256)
    index.record_pos = pos.astype(np.intp, copy=False)  # the first search makes no other
    return index
