"""Marginal-gain re-ranking of retrieved knowledge sentences.

Retrieval optimizes query match alone, so the top hits are often
near-duplicates.  The re-ranker greedily picks the sentence with the best
``sim(s, query) - lambda * max_selected sim(s, t)`` trade-off until m
sentences are chosen, trading relevance against redundancy with what is
already selected.

Features are prepared once per distinct text and then compared for every
pair scored: a token set for token overlap, a mean word vector for
embedding cosine.  A similarity called on two strings is the same
comparison of the two texts' prepared features.  One call prepares its
query and candidates, deduplicated by text; :func:`kiqa.datasets.attach_premises`
passes one memo of prepared features to every call it makes, so a corpus
sentence retrieved by many queries is prepared once per attach.  The memo
lives only as long as that attach.

A call of ``m`` picks from ``n`` candidates makes ``n`` query compares, and
at lambda > 0, after each pick but the last, one redundancy compare per
candidate left: ``n + sum(n - j for j in 1..min(m, n) - 1)`` in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import KnowledgeSentence
from .textio import read_text
from .textnorm import token_set, word_tokens


def token_jaccard(a: str | set[str], b: str | set[str]) -> float:
    """Jaccard overlap of lowercase token sets; two empty sets count as equal.

    Each argument is a text or its ``token_set``.
    """
    sa = token_set(a) if isinstance(a, str) else a
    sb = token_set(b) if isinstance(b, str) else b
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


class EmbeddingTableError(ValueError):
    pass


def load_embedding_table(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Text format: ``word v1 v2 ... vd`` per line, one fixed dimension.

    A table needs at least one vector, and its components must be finite:
    with no vectors every cosine would be 0, and one NaN would make every
    cosine with its word NaN, so either way the re-rank would silently fall
    back to retrieval order.
    """
    table: dict[str, tuple[float, ...]] = {}
    dim: int | None = None
    lines = read_text(path, EmbeddingTableError).split("\n")
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        word = parts[0].lower()
        try:
            vec = tuple(float(x) for x in parts[1:])
        except ValueError as exc:
            raise EmbeddingTableError(f"{path}:{lineno}: bad vector component") from exc
        if not vec:
            raise EmbeddingTableError(f"{path}:{lineno}: no vector components")
        if not all(map(math.isfinite, vec)):
            raise EmbeddingTableError(f"{path}:{lineno}: non-finite vector component")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise EmbeddingTableError(f"{path}:{lineno}: dimension {len(vec)} != {dim}")
        if word in table:
            raise EmbeddingTableError(f"{path}:{lineno}: duplicate word {word!r}")
        table[word] = vec
    if not table:
        raise EmbeddingTableError(f"{path}: no vectors")
    return table


def _vector_cosine(va: list[float] | None, vb: list[float] | None) -> float:
    if va is None or vb is None:
        return 0.0
    dot = sum(x * y for x, y in zip(va, vb))
    na = math.sqrt(sum(x * x for x in va))
    nb = math.sqrt(sum(y * y for y in vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _mean_vector(text: str, table: dict[str, tuple[float, ...]]) -> list[float] | None:
    vecs = [table[t] for t in word_tokens(text) if t in table]
    if not vecs:
        return None
    return [sum(col) / len(vecs) for col in zip(*vecs)]


@dataclass(frozen=True)
class SimilarityFn:
    """Sentence similarity: token overlap without a word-embedding table, else
    the cosine of mean word vectors (0 for a text with no word in the table)."""

    table: dict[str, tuple[float, ...]] | None = None

    def prepare(self, text: str):
        """The feature of one text that ``compare`` takes."""
        if self.table is None:
            return token_set(text)
        return _mean_vector(text, self.table)

    def compare(self, fa, fb) -> float:
        if self.table is None:
            return token_jaccard(fa, fb)
        return _vector_cosine(fa, fb)

    def __call__(self, a: str, b: str) -> float:
        return self.compare(self.prepare(a), self.prepare(b))


@dataclass
class RerankConfig:
    m: int = 10
    lambda_: float = 1.0
    similarity: SimilarityFn = field(default_factory=SimilarityFn)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lambda_}")


def rerank(
    candidates: Sequence[KnowledgeSentence],
    query_text: str,
    config: RerankConfig,
    prepared: dict[str, object] | None = None,
) -> list[KnowledgeSentence]:
    """Greedy diverse selection of min(m, n) sentences, in pick order.

    Ties go to the earlier candidate in the input order.  ``prepared`` maps
    a text to its feature under ``config.similarity``; texts missing from it
    are prepared and added, so calls that share one dict (and one
    similarity) prepare each distinct text once between them.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    sim = config.similarity
    if prepared is None:
        prepared = {}
    for text in (query_text, *(c.text for c in candidates)):
        if text not in prepared:  # a None mean vector is a prepared feature too
            prepared[text] = sim.prepare(text)
    features = [prepared[c.text] for c in candidates]
    query_sim = [sim.compare(f, prepared[query_text]) for f in features]
    n = len(candidates)
    picks = min(config.m, n)
    selected: list[int] = []
    # redundancy[i] tracks max similarity to anything already selected
    redundancy = [0.0] * n
    remaining = list(range(n))
    while True:
        best = remaining[0]
        best_gain = query_sim[best] - config.lambda_ * redundancy[best]
        for i in remaining[1:]:
            gain = query_sim[i] - config.lambda_ * redundancy[i]
            if gain > best_gain:
                best, best_gain = i, gain
        selected.append(best)
        if len(selected) == picks:
            return [candidates[i] for i in selected]
        remaining.remove(best)
        if not config.lambda_:
            continue  # the gain is the query similarity alone
        for i in remaining:
            s = sim.compare(features[i], features[best])
            if s > redundancy[i]:
                redundancy[i] = s
