"""Marginal-gain re-ranking of retrieved knowledge sentences.

Retrieval optimizes query match alone, so the top hits are often
near-duplicates.  The re-ranker greedily picks the sentence with the best
``sim(s, query) - lambda * max_selected sim(s, t)`` trade-off until m
sentences are chosen, trading relevance against redundancy with what is
already selected.

Features are prepared once per distinct text and then compared for every
pair scored: a token set for token overlap, a mean word vector for
embedding cosine; a similarity compares prepared features, never two
strings.  One call prepares its query and candidates, deduplicated by
text; :func:`kiqa.datasets.attach_premises` passes one memo of prepared
features to every call it makes, so a corpus sentence retrieved by many
queries is prepared once per attach.  The memo lives only as long as
that attach.

The greedy is evaluated lazily (Minoux 1978): redundancy only grows as
picks are added, so a gain computed against fewer picks is an upper bound
of the current one.  Candidates wait in a heap keyed by (-gain, candidate
index); the top one is compared only with the picks it has not yet been
compared with and pushed back, and it is picked once it is up to date.
No other candidate can then beat it, or tie it from an earlier index, so
the picks and their order are those of the eager loop that re-scores
every candidate after every pick, for any similarity that is never NaN:
token overlap never is, and :func:`load_embedding_table` refuses the
tables whose cosines could be.  At lambda = 0 the gain is the query
similarity, and a stable sort by it gives the picks.

A call of ``m`` picks from ``n`` candidates makes ``n`` query compares; at
lambda > 0 it adds redundancy compares, at least each pick's compares
with the picks before it and at most the eager loop's one compare per
candidate left after each pick but the last,
``n + sum(n - j for j in 1..min(m, n) - 1)`` in all.  None is made after
the last pick, and none at all at lambda = 0.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import KnowledgeSentence
from .textio import InputError, read_text
from .textnorm import token_set, word_tokens


def token_jaccard(sa: set[str], sb: set[str]) -> float:
    """Jaccard overlap of two texts' ``token_set``s; two empty sets count as equal."""
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def load_embedding_table(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Text format: ``word v1 v2 ... vd`` per line, one fixed dimension.

    A table needs at least one vector, and its components must be finite:
    with no vectors every cosine would be 0, and one NaN would make every
    cosine with its word NaN, so either way the re-rank would silently fall
    back to retrieval order.  Each vector's squared length must also be
    below half the largest float: no mean of vectors is longer than the
    longest, so no cosine's dot product or norms overflow to a NaN, which
    would leave the greedy's picks undefined.
    """
    table: dict[str, tuple[float, ...]] = {}
    dim: int | None = None
    lines = read_text(path).split("\n")
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        word = parts[0].lower()
        try:
            vec = tuple(float(x) for x in parts[1:])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad vector component") from exc
        if not vec:
            raise InputError(f"{path}:{lineno}: no vector components")
        if not all(map(math.isfinite, vec)):
            raise InputError(f"{path}:{lineno}: non-finite vector component")
        if not math.isfinite(2.0 * sum(x * x for x in vec)):
            raise InputError(f"{path}:{lineno}: vector too long: its squared length overflows")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise InputError(f"{path}:{lineno}: dimension {len(vec)} != {dim}")
        if word in table:
            raise InputError(f"{path}:{lineno}: duplicate word {word!r}")
        table[word] = vec
    if not table:
        raise InputError(f"{path}: no vectors")
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
    lam, picks = config.lambda_, min(config.m, len(candidates))
    if not lam:  # the gain is the query similarity alone; the sort is stable
        order = sorted(range(len(candidates)), key=query_sim.__getitem__, reverse=True)
        return [candidates[i] for i in order[:picks]]
    # The heap holds (-gain, i) of each candidate not yet picked; gain was
    # computed against the first seen[i] picks and, as redundancy only
    # grows, it is an upper bound of i's current gain.
    heap = [(-s, i) for i, s in enumerate(query_sim)]
    heapq.heapify(heap)
    redundancy, seen = [0.0] * len(candidates), [0] * len(candidates)
    selected: list[int] = []
    while True:
        i = heap[0][1]
        if seen[i] < len(selected):
            for j in selected[seen[i]:]:
                s = sim.compare(features[i], features[j])
                if s > redundancy[i]:
                    redundancy[i] = s
            seen[i] = len(selected)
            heapq.heapreplace(heap, (-(query_sim[i] - lam * redundancy[i]), i))
            continue
        heapq.heappop(heap)
        selected.append(i)
        if len(selected) == picks:
            return [candidates[i] for i in selected]
