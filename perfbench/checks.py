"""Output checks; each returns (name, ok, detail) and counts as one operation.

The BM25 oracle scores every document of the corpus from its own token
list, with no index, using the same float operations in the same order
as ``kiqa.index.search`` documents, so its ids and scores must equal the
search results bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from kiqa.corpus import load_jsonl
from kiqa.datasets import load_mcq
from kiqa.querygen import EmptyQueryError, QueryGenConfig, generate_query
from kiqa.textnorm import word_tokens

ACCURACY_FLOOR = 0.95
ORACLE_QUERIES = 12


class BruteBm25:
    """Exhaustive BM25 over a corpus: one dense score per document."""

    def __init__(self, corpus, k1: float, b: float):
        self.ids = [s.id for s in corpus.sentences]
        tokens = [word_tokens(s.text) for s in corpus.sentences]
        self.lengths = np.array([len(t) for t in tokens], dtype=np.float64)
        self.n = len(tokens)
        self.avg = sum(len(t) for t in tokens) / self.n
        vocab: dict[str, int] = {}
        self.term_ids = np.array(
            [vocab.setdefault(t, len(vocab)) for toks in tokens for t in toks], dtype=np.int64
        )
        self.doc_of = np.repeat(np.arange(self.n), [len(t) for t in tokens])
        self.vocab = vocab
        self.k1, self.b = k1, b

    def scores(self, query_terms) -> np.ndarray:
        k1, b = self.k1, self.b
        ratio = self.lengths / self.avg if self.avg > 0 else np.zeros(self.n)
        scores = np.zeros(self.n)
        counts: dict[str, int] = {}
        for term in query_terms:  # first-occurrence order, as a Counter keeps it
            counts[term] = counts.get(term, 0) + 1
        for term, count in counts.items():
            tid = self.vocab.get(term)
            if tid is None:
                continue
            tf = np.bincount(self.doc_of[self.term_ids == tid], minlength=self.n)
            df = int(np.count_nonzero(tf))
            w_idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5)) * count
            tf = tf.astype(np.float64)
            scores = scores + w_idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * ratio))
        return scores

    def top(self, query_terms, k: int) -> list[tuple[str, float]]:
        scores = self.scores(query_terms)
        hits = [(self.ids[i], float(scores[i])) for i in np.flatnonzero(scores != 0.0)]
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]


def _query(item, option, config):
    try:
        return generate_query(item, option, config).terms
    except EmptyQueryError:
        try:
            return generate_query(item, option, replace(config, pos_filter=False)).terms
        except EmptyQueryError:
            return None


def _queries(dataset):
    config = QueryGenConfig()
    return [(item, i, _query(item, i, config)) for item in dataset.items for i in range(item.n)]


def bm25_oracle(oracle: BruteBm25, index, dataset_path: Path, k: int):
    """``search`` ids and scores equal the brute-force oracle's, bit for bit."""
    from kiqa.index import search

    sample = [q for _, _, q in _queries(load_mcq(dataset_path, "generic")) if q][:ORACLE_QUERIES]
    bad = 0
    for terms in sample:
        got = [(h.sentence_id, h.score) for h in search(index, terms, k=k)]
        bad += got != oracle.top(terms, k)
    return "bm25-oracle", bad == 0, f"{len(sample) - bad}/{len(sample)} queries match"


def premises(oracle: BruteBm25, corpus, pairs, m: int, k: int):
    """Every premise id is in the corpus; each option has min(m, hits) of them.

    ``pairs`` lists (raw dataset, attached dataset) paths; hits is the
    number of documents the oracle gives a non-zero score, capped at k.
    """
    bad, options = [], 0
    for raw_path, attached_path in pairs:
        attached = {it.id: it for it in load_mcq(attached_path, "generic").items}
        for item, i, terms in _queries(load_mcq(raw_path, "generic")):
            options += 1
            got = attached[item.id].premises[i] if item.id in attached else None
            hits = 0 if terms is None else min(k, int(np.count_nonzero(oracle.scores(terms))))
            if got is None or len(got) != min(m, hits) or any(p.id not in corpus for p in got):
                bad.append(f"{item.id}/{i}")
    return "premises", not bad, f"{options - len(bad)}/{options} options ok {bad[:3]}"


def accuracy_floor(report_path: Path):
    accuracy = json.loads(report_path.read_text(encoding="utf-8"))["accuracy"]
    detail = f"accuracy {accuracy} (floor {ACCURACY_FLOOR})"
    return "accuracy-floor", accuracy >= ACCURACY_FLOOR, detail


def revision_loss(corpus_path: Path, heldout_path: Path, encoder_path: Path, d: int,
                  mask_prob: float):
    """Held-out masked-token loss is finite and lower after revision than at init.

    The init model is rebuilt the way ``kiqa revise`` builds it (corpus
    vocabulary, seed 0), so both losses see the same vocabulary and mask.
    """
    from kiqa.encoder import (
        SEP, START, EncoderConfig, EncoderModel, Vocab, encoder_tokens, load_encoder,
        mlm_batch_loss, pad_batch,
    )

    corpus = load_jsonl(corpus_path)
    init = EncoderModel.init(Vocab.from_texts(s.text for s in corpus.sentences),
                             EncoderConfig(d=d), seed=0)
    revised = load_encoder(encoder_path)
    if revised.vocab.tokens != init.vocab.tokens:
        return "revision-loss", False, "revised vocabulary differs from the corpus vocabulary"
    lines = heldout_path.read_text(encoding="utf-8").splitlines()
    vocab = revised.vocab
    ids = pad_batch([vocab.encode([START, *encoder_tokens(t), SEP]) for t in lines], vocab.pad_id)
    mask = (np.random.default_rng(0).random(ids.shape) < mask_prob) & (ids >= vocab.first_word_id)
    before = mlm_batch_loss(init, ids, mask).item()
    after = mlm_batch_loss(revised, ids, mask).item()
    ok = math.isfinite(before) and math.isfinite(after) and after < before
    return "revision-loss", ok, f"held-out masked-token loss {before:.4f} -> {after:.4f}"
