"""Each fast path's oracle check is shown to catch a fault.

A row names a fast path, a small wrong variant of it and the oracle check
that must catch it.  The variant is the function's own source with a few
literal edits, compiled in its module's namespace and swapped in for the
test; each edit must match the source exactly once, so a row whose code
has moved fails loudly instead of testing nothing.  The variant replaces
the function on its owner and in every module that imported it by name.
The check must fail under the variant (an assertion, or a ``pytest.raises``
that sees no error) and pass on the unchanged code.  A later fast path adds
its row here.
"""

import inspect
import random
import sys
import textwrap
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import kiqa.corpus
import kiqa.fusion
import kiqa.index
import kiqa.rerank
from kiqa import autodiff, binfmt
from kiqa.fusion import HEADS
from kiqa.rerank import SimilarityFn

from test_autodiff import assert_gather_gradient_is_add_at
from test_corpus import BAD_PINNED_ROWS, assert_bad_pinned_row_is_named
from test_fusion import assert_batch_loss_is_the_oracles
from test_index import (assert_bad_postings_rejected, assert_ids_round_trip,
                        assert_search_is_brute_force_bit_for_bit)
from test_rerank import (LAZY_COMPARES, LAZY_LAMBDAS, _TABLE, _WORDS,
                         assert_picks_are_the_eager_loops, lazy_compare_count)


def rerank_check(tmp_path):
    """The lazy re-rank against the eager loop and the string-level oracle on
    seeded calls: few words and repeated texts, so gains tie, and at lambda > 0."""
    rng = random.Random(0)
    pool = [" ".join(rng.choices(_WORDS[:6], k=rng.randint(1, 3))) for _ in range(8)]
    for case in range(120):
        fn = SimilarityFn() if case % 2 else SimilarityFn(_TABLE)
        texts = rng.choices(pool, k=rng.randint(2, 12))
        assert_picks_are_the_eager_loops(texts, rng.choice(pool), rng.randint(2, 12),
                                         rng.choice([0.3, 1.0, 2.0]), fn)


def compare_count_check(tmp_path):
    """The lazy re-rank's pinned compare count on every seeded retrieval-sized call."""
    for (n, m), counts in LAZY_COMPARES.items():
        for lam, count in zip(LAZY_LAMBDAS, counts):
            assert lazy_compare_count(n, m, lam) == count


def ids_check(tmp_path):
    """Id columns of every kind through save, load and a search where every
    score ties, so the id order alone ranks the hits."""
    columns = [
        ["aaa", "aab", "aba", "abb", "baa"],  # ASCII of one width, ascending
        ["aaa", "aab", "aba", "bab", "baa"],  # ... that descends at the last pair only
        ["b\x00", "a\x00", "a\x01", "ab"],  # NUL bytes, one width
        ["c", "ab", "", "abc", "b"],  # several widths
        ["é-0", "日", "a😀", "\x00é", "e"],  # non-ASCII
    ]
    for n, ids in enumerate(columns):
        assert_ids_round_trip(ids, ["cat"] * len(ids), ["cat"], tmp_path / f"{n}.kiix")


def search_bits_check(tmp_path):
    """Search on fresh and memo-warmed indexes against brute-force BM25, bit
    for bit, on seeded corpora of few words, so terms repeat within a query."""
    rng = random.Random(0)
    words = ["cat", "dog", "fish", "bird", "the", "tree"]
    for _ in range(10):
        docs = [" ".join(rng.choices(words, k=rng.randint(1, 12)))
                for _ in range(rng.randint(1, 40))]
        queries = [rng.choices(words, k=rng.randint(0, 6)) for _ in range(rng.randint(1, 12))]
        assert_search_is_brute_force_bit_for_bit(docs, queries)


def posting_order_check(tmp_path):
    """Postings out of order, and one document twice, each in a file whose
    document lengths agree with its postings, so only the order check rejects it."""
    for cat_postings in ([(1, 1), (0, 1)], [(0, 1), (0, 2)]):
        assert_bad_postings_rejected(tmp_path, cat_postings)


def gather_gradient_check(tmp_path):
    """The gather gradient against np.add.at for seeded keys that repeat indices."""
    rng = np.random.default_rng(0)
    keys = [
        ((6,), np.array([0, 2, 2, 5, 0, 2])),
        ((4, 3), np.array([[1, 1], [3, 0]])),
        ((3, 5, 2), (slice(None), np.array([4, 0, 4, 4]))),
        ((3, 4), (np.arange(3)[:, None], np.array([[0, 0], [3, 1], [2, 2]]))),
    ]
    for shape, key in keys:
        assert_gather_gradient_is_add_at(shape, key, lambda out_shape: rng.normal(size=out_shape))


def pinned_row_check(tmp_path):
    """Every bad row of a pinned corpus file fails with its path:line when read."""
    for line, message in BAD_PINNED_ROWS:
        assert_bad_pinned_row_is_named(tmp_path, line, message)


def ragged_batch_check(tmp_path):
    """The batched loss against per-item definitions, every head, on seeded
    batches whose options have from one to four passages."""
    rng = random.Random(0)
    for head in HEADS:
        for tied in (False, True) if head == "weighted-sum" else (False,):
            d, n = rng.randint(2, 3), rng.randint(2, 4)
            batch = [([[[rng.uniform(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, 4))]
                       for _ in range(n)], rng.randrange(n)) for _ in range(rng.randint(2, 5))]
            assert_batch_loss_is_the_oracles(batch, head, tied)


@dataclass(frozen=True)
class Mutant:
    name: str
    owner: object  # a module or a class
    attr: str
    edits: tuple[tuple[str, str], ...]
    check: Callable


MUTANTS = [
    Mutant("rerank never refreshes a stale gain", kiqa.rerank, "rerank",
           (("if seen[i] < len(selected):", "if False:"),), rerank_check),
    Mutant("rerank orders equal gains by heap insertion, not candidate index",
           kiqa.rerank, "rerank",
           (("heap = [(-s, i) for i, s in enumerate(query_sim)]",
             "tick = __import__('itertools').count()\n"
             "    heap = [(-s, next(tick), i) for i, s in enumerate(query_sim)]"),
            ("i = heap[0][1]", "i = heap[0][2]"),
            ("(-(query_sim[i] - lam * redundancy[i]), i)",
             "(-(query_sim[i] - lam * redundancy[i]), next(tick), i)")),
           rerank_check),
    Mutant("rerank measures redundancy against the first pick only", kiqa.rerank, "rerank",
           (("selected[seen[i]:]", "selected[:1]"),), rerank_check),
    Mutant("rerank compares once more after the last pick", kiqa.rerank, "rerank",
           (("        if len(selected) == picks:\n",
             "        if len(selected) == picks:\n"
             "            if heap:\n"
             "                sim.compare(features[heap[0][1]], features[i])\n"),),
           compare_count_check),
    Mutant("id column offsets shifted by one", binfmt.StringColumn, "__init__",
           (("np.cumsum(self.lengths, out=bounds[1:])",
             "np.cumsum(self.lengths, out=bounds[:-1])"),), ids_check),
    Mutant("id column iteration runs each string into the next", binfmt.StringColumn,
           "__iter__",
           (("self.starts, self.ends", "self.starts, self.ends[1:] + self.ends[-1:]"),), ids_check),
    Mutant("fixed-width ascending check skips the last pair", binfmt.StringColumn, "ascending",
           (("fixed[:-1] <= fixed[1:]", "fixed[:-2] <= fixed[1:-1]"),), ids_check),
    Mutant("search orders ties by position, not by id rank", kiqa.index, "search",
           (("hit if rank is None else rank[hit]", "hit"),), ids_check),
    Mutant("BM25 contributions one ulp high", kiqa.index.InvertedIndex, "contributions",
           (("w_idf * tf * (k1 + 1.0) / (tf + self.length_norm[pos]))",
             "np.nextafter(w_idf * tf * (k1 + 1.0) / (tf + self.length_norm[pos]), np.inf))"),),
           search_bits_check),
    Mutant("load_index skips the posting order check", kiqa.index, "load_index",
           (("bad[1:] |= ~first[1:] & (pos[1:] <= pos[:-1])", "pass"),), posting_order_check),
    Mutant("take's backward drops duplicate indices", autodiff, "take",
           (("full = np.bincount(flat, weights=grad.ravel(), minlength=a.data.size)",
             "full = np.zeros(a.data.size); full[flat] = grad.ravel()"),), gather_gradient_check),
    Mutant("pinned rows skip the id check", kiqa.corpus._PinnedRows, "_parse_row",
           (("if sid != self._ids[pos]:", "if False:"),), pinned_row_check),
    Mutant("batched heads leave padded passage slots unmasked", kiqa.fusion, "_batch_scores",
           (("    vecs = pooled[rows] *", "    mask[:] = True\n    vecs = pooled[rows] *"),),
           ragged_batch_check),
]


def mutated(mutant: Mutant):
    fn = inspect.unwrap(vars(mutant.owner)[mutant.attr])
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in mutant.edits:
        assert source.count(old) == 1, f"{mutant.name}: {old!r} is not in the source once"
        source = source.replace(old, new)
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(source, f"<mutant: {mutant.name}>", "exec"), namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("check", sorted({m.check for m in MUTANTS}, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_the_unmutated_code_passes_each_check(tmp_path, check):
    check(tmp_path)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_fails_its_check(monkeypatch, tmp_path, mutant):
    original, variant = vars(mutant.owner)[mutant.attr], mutated(mutant)
    monkeypatch.setattr(mutant.owner, mutant.attr, variant)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(mutant.attr) is original:
            monkeypatch.setattr(module, mutant.attr, variant)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        mutant.check(tmp_path)
