"""Constructed diagnostic tasks with controlled evidence placement.

Real MCQA benchmarks entangle retrieval quality, encoder capacity, and
head behaviour; these generators isolate one mechanism each so a claim
about the pipeline can be tested as a measurable accuracy contrast:

* :func:`make_planted_evidence_task` — the gold option is decidable only
  from a planted corpus sentence (a per-option verdict token), never from
  the question/option text itself.  Contrast: any open-book head vs. the
  knowledge-free baseline.
* :func:`make_scattered_evidence_task` — the decisive signal is an
  evidence *count* split across two passages whose per-passage content
  distributions are identical for gold and wrong options.  Contrast:
  aggregating heads (simple/weighted sum) vs. per-passage max, and m=2
  vs. m=1.
* :func:`make_paraphrase_transfer_task` — evaluation items are phrased
  with verdict synonyms that never occur in the supervised split but do
  occur, interchangeably with the supervised phrasings, in the knowledge
  corpus.  Contrast: masked-token revision on the corpus vs. none.

Every sentence follows ``clue <key> <option-word> ...`` so the default
query generator routes each (question, option) pair to its own planted
sentences: the question contributes ``clue <key>``, the option its word.
All generators are pure functions of their seed.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .corpus import KnowledgeCorpus, KnowledgeSentence
from .datasets import McqDataset, McqItem, attach_premises
from .encoder import Vocab
from .fusion import question_text
from .index import build_index
from .rerank import RerankConfig

# Surface word pool for answer options; two-digit forms keep them distinct
# from every structural token (clue/aid/pad/end and the verdict words).
OPTION_WORDS = tuple(f"w{n:02d}" for n in range(40))

# Verdict pairs, (gold, wrong) surface forms.  The planted task and the
# paraphrase task's supervised split use the first pair; the transfer
# pairs occur in the corpus and in evaluation items but never with a label.
SUPERVISED_VERDICTS = ("indeed", "hardly")
TRANSFER_VERDICTS = (
    ("truly", "barely"),
    ("surely", "rarely"),
    ("plainly", "faintly"),
    ("clearly", "dimly"),
    ("fully", "thinly"),
)


def _corpus(texts: list[str]) -> KnowledgeCorpus:
    """The sentences ``texts`` in order, with ids numbered from 0."""
    return KnowledgeCorpus(KnowledgeSentence(f"{n:08d}", text) for n, text in enumerate(texts))


def _verdict_items(rng: np.random.Generator, texts: list[str], n: int, id_prefix: str,
                   key_prefix: str, phrasings: Callable[[], tuple]) -> list[McqItem]:
    """``n`` items of two option words, each appending to ``texts`` one ``clue
    <key> <word> <verdict>`` sentence per verdict pair of ``phrasings()``:
    the pair's first verdict for the gold option, its second for the other."""
    items = []
    for k in range(n):
        key = f"{key_prefix}{k:04d}"
        gold = int(rng.integers(2))
        options = [str(w) for w in rng.choice(OPTION_WORDS, size=2, replace=False)]
        pairs = phrasings()
        for i, word in enumerate(options):
            texts.extend(f"clue {key} {word} {pair[0] if i == gold else pair[1]}" for pair in pairs)
        items.append(McqItem(id=f"{id_prefix}{k:04d}", question=f"clue {key}", options=options,
                             gold=gold))
    return items


def make_planted_evidence_task(
    n_items: int = 500, seed: int = 0
) -> tuple[KnowledgeCorpus, McqDataset]:
    """Task where only retrieved knowledge identifies the gold option.

    Each item plants one sentence per option: ``clue <key> <word>
    indeed`` for the gold option, ``... hardly`` for the others.  The
    question is ``clue <key>`` and the options are bare surface words, so
    without knowledge the best any model can do is the class prior; with
    the planted sentence attached the verdict token decides the answer
    linearly.
    """
    texts: list[str] = []
    items = _verdict_items(
        np.random.default_rng(seed), texts, n_items, "i", "k", lambda: (SUPERVISED_VERDICTS,)
    )
    return _corpus(texts), McqDataset(items=items)


def make_scattered_evidence_task(
    n_items: int = 400, seed: int = 0
) -> tuple[KnowledgeCorpus, McqDataset]:
    """Task decidable only by aggregating evidence across two passages.

    Every option gets two planted sentences of identical length carrying
    ``aid`` tokens padded to three filler slots: the gold option's pair
    is (3, 3) aid-tokens, a wrong option's is (3, 1).  Consequences, by
    construction:

    * the multiset of per-passage *types* is {strong, strong} for gold
      and {strong, weak} for wrong, so any scorer applied passage-by-
      passage and combined with max sees the same best passage for both
      options — ties, at chance;
    * the total aid count (6 vs. 4) separates the options linearly, so
      heads that sum per-passage representations solve the task;
    * the strong sentence always precedes the weak one in the corpus, so
      m=1 retrieval (a BM25 tie broken by id) attaches only strong
      passages and remains at chance for every head.
    """
    rng = np.random.default_rng(seed)
    texts: list[str] = []
    items: list[McqItem] = []
    for k in range(n_items):
        key = f"k{k:04d}"
        gold = int(rng.integers(2))
        options = ["alpha", "beta"]
        for i, word in enumerate(options):
            for count in (3, 3) if i == gold else (3, 1):
                fill = " ".join(["aid"] * count + ["pad"] * (3 - count))
                texts.append(f"clue {key} {word} {fill} end")
        items.append(
            McqItem(id=f"i{k:04d}", question=f"clue {key}", options=options, gold=gold)
        )
    return _corpus(texts), McqDataset(items=items)


def make_paraphrase_transfer_task(
    n_train: int = 40, n_eval: int = 100, seed: int = 0
) -> tuple[KnowledgeCorpus, McqDataset, McqDataset]:
    """Task whose evaluation phrasings occur only in the knowledge corpus.

    Train-split facts are stated in the corpus once per verdict pair —
    the supervised pair first, then every transfer pair — while each
    eval-split fact exists only in a single randomly chosen transfer
    phrasing.  The supervised-phrasing sentence precedes its paraphrases,
    so m=1 retrieval (BM25 tie broken by id) attaches supervised
    phrasings for training items and transfer phrasings for eval items.
    A model trained only on attached premises never observes a transfer
    verdict with a label; masked-token pretraining on the corpus sees
    all phrasings of one fact in identical contexts and can align them.
    Several transfer pairs are used so that an unpretrained model's luck
    on any one pair's random geometry averages out near chance.
    """
    rng = np.random.default_rng(seed)
    texts: list[str] = []
    train_items = _verdict_items(
        rng, texts, n_train, "t", "t", lambda: (SUPERVISED_VERDICTS,) + TRANSFER_VERDICTS
    )
    eval_items = _verdict_items(
        rng, texts, n_eval, "e", "e",
        lambda: (TRANSFER_VERDICTS[int(rng.integers(len(TRANSFER_VERDICTS)))],),
    )
    return _corpus(texts), McqDataset(items=train_items), McqDataset(items=eval_items)


def route_premises(
    dataset: McqDataset,
    corpus: KnowledgeCorpus,
    m: int,
    retrieve_k: int = 20,
) -> McqDataset:
    """Attach the top-``m`` planted sentences per option.

    The diagnostic tasks plant non-redundant evidence, so the re-rank
    diversity penalty is disabled (``lambda_=0``): with a positive
    penalty, a second supporting sentence that restates the first would
    lose to an unrelated one, which is exactly what these tasks must not
    measure.
    """
    index = build_index(corpus)
    return attach_premises(
        dataset, corpus, index, RerankConfig(m=m, lambda_=0.0), retrieve_k=retrieve_k
    )


def training_vocab(dataset: McqDataset, corpus: KnowledgeCorpus | None = None) -> Vocab:
    """Vocabulary over a training split (and optionally the corpus).

    Built from question, options, and attached premise texts so that
    evaluation-only surface forms fall back to the unknown token —
    generalisation across item keys is part of what the tasks measure.
    Pass ``corpus`` when the encoder is revised on it first: revision can
    only align phrasings that are in the vocabulary.
    """
    texts: list[str] = []
    for item in dataset.items:
        texts.append(question_text(item))
        texts.extend(item.options)
        for plist in item.premises or []:
            texts.extend(p.text for p in plist)
    if corpus is not None:
        texts.extend(corpus.texts)
    return Vocab.from_texts(texts)
