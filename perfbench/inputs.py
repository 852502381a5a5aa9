"""Seeded, vectorised input generators, cached per (workload, seed).

Each workload's inputs are a pure function of the seed.  They are written
once into ``<cache>/<workload>-seed<seed>/`` and reused by later runs with
the same seed; generating them is never inside a timed region.

Zipf text draws every token by inverse-CDF lookup over the whole batch at
once (a per-sentence ``rng.choice`` loop is ~50x slower at 50k
sentences).  Question and option texts use stratified draws: the k
tokens of one text take one uniform from each of k equal slices of the
CDF, in shuffled order.  Each token is still Zipf-distributed, but every
query mixes frequent and rare words in the same proportion, which keeps
the work per seed close: over seeds 1-8 the mean postings scanned per
query stayed within 6% of 96k.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# retrieval-zipf
ZIPF_SENTENCES = 50_000
ZIPF_VOCAB = 20_000
ZIPF_EXPONENT = 1.1
SENTENCE_TOKENS = (6, 20)  # inclusive range
ZIPF_ITEMS = 16
QUESTION_TOKENS = 8
OPTION_TOKENS = 4
N_OPTIONS = 4
ATTACH_M, ATTACH_LAMBDA, ATTACH_K = 10, 1.0, 50  # openbook-train keeps the default k, 50

# openbook-train
OPENBOOK_TRAIN_ITEMS = 128
OPENBOOK_DEV_ITEMS = 64
OPENBOOK_M, OPENBOOK_LAMBDA = 2, 0.0
OPENBOOK_EPOCHS = 10
OPENBOOK_D = 16
OPENBOOK_BATCH = 32
OPENBOOK_SWEEP_M = (1, 2)

# revision-wide-vocab
REVISION_SENTENCES = 2_000
REVISION_VOCAB = 8_000  # Zipf ranks; ~3.6k distinct words occur in 2k sentences
REVISION_HELDOUT = 64
REVISION_D = 32
REVISION_BATCH = 32
REVISION_EPOCHS = 1
REVISION_MASK_PROB = 0.15

_DONE = ".complete"


def zipf_cdf(vocab_size: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def zipf_words(vocab_size: int) -> np.ndarray:
    """Rank r's surface form: ``z`` plus the zero-padded rank."""
    width = len(str(vocab_size - 1))
    return np.char.add("z", np.char.zfill(np.arange(vocab_size).astype(str), width))


def zipf_lines(rng, n: int, vocab_size: int, exponent: float) -> str:
    """``n`` newline-terminated sentences of i.i.d. Zipf tokens."""
    lo, hi = SENTENCE_TOKENS
    lengths = rng.integers(lo, hi + 1, size=n)
    ranks = np.searchsorted(zipf_cdf(vocab_size, exponent), rng.random(int(lengths.sum())))
    seps = np.full(ranks.size, " ", dtype="<U1")
    seps[np.cumsum(lengths) - 1] = "\n"
    return "".join(np.char.add(zipf_words(vocab_size)[ranks], seps).tolist())


def stratified_texts(rng, n: int, k: int, cdf: np.ndarray, words: np.ndarray) -> list[str]:
    """``n`` texts of ``k`` tokens, one token per equal CDF slice."""
    slots = np.argsort(rng.random((n, k)), axis=1)
    ranks = np.searchsorted(cdf, (slots + rng.random((n, k))) / k)
    return [" ".join(row) for row in words[ranks].tolist()]


def _write_cfg(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in values.items()),
                    encoding="utf-8")


def _write_items(path: Path, items: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in items:
            fh.write(json.dumps(rec) + "\n")


def make_retrieval_zipf(out: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    (out / "corpus.txt").write_text(
        zipf_lines(rng, ZIPF_SENTENCES, ZIPF_VOCAB, ZIPF_EXPONENT), encoding="utf-8"
    )
    cdf, words = zipf_cdf(ZIPF_VOCAB, ZIPF_EXPONENT), zipf_words(ZIPF_VOCAB)
    questions = stratified_texts(rng, ZIPF_ITEMS, QUESTION_TOKENS, cdf, words)
    options = stratified_texts(rng, ZIPF_ITEMS * N_OPTIONS, OPTION_TOKENS, cdf, words)
    golds = rng.integers(N_OPTIONS, size=ZIPF_ITEMS)
    _write_items(out / "items.jsonl", [
        {"id": f"q{i:05d}", "question": q,
         "options": options[i * N_OPTIONS:(i + 1) * N_OPTIONS], "gold": int(golds[i])}
        for i, q in enumerate(questions)
    ])
    _write_cfg(out / "attach.cfg", {"m": ATTACH_M, "lambda": ATTACH_LAMBDA,
                                    "retrieve_k": ATTACH_K})
    return {"items": ZIPF_ITEMS}


def make_openbook_train(out: Path, seed: int) -> dict:
    from kiqa.datasets import McqDataset, save_mcq_jsonl
    from kiqa.toytasks import make_scattered_evidence_task

    corpus, dataset = make_scattered_evidence_task(
        n_items=OPENBOOK_TRAIN_ITEMS + OPENBOOK_DEV_ITEMS, seed=seed
    )
    # plain lines get ids 00000000, 00000001, ... in file order: the task's own ids
    (out / "corpus.txt").write_text("".join(s.text + "\n" for s in corpus.sentences),
                                    encoding="utf-8")
    items = dataset.items
    save_mcq_jsonl(McqDataset(items=items[:OPENBOOK_TRAIN_ITEMS]), out / "train.jsonl")
    save_mcq_jsonl(McqDataset(items=items[OPENBOOK_TRAIN_ITEMS:]), out / "dev.jsonl")
    _write_cfg(out / "attach.cfg", {"m": OPENBOOK_M, "lambda": OPENBOOK_LAMBDA})
    sgd = {"epochs": OPENBOOK_EPOCHS, "batch_size": OPENBOOK_BATCH}
    _write_cfg(out / "train.cfg", {"head": "weighted-sum", "d": OPENBOOK_D, **sgd})
    _write_cfg(out / "sweep.cfg", {"m_values": list(OPENBOOK_SWEEP_M), "retrain": True,
                                   "lambda": OPENBOOK_LAMBDA, **sgd})
    return {"train_items": OPENBOOK_TRAIN_ITEMS, "dev_items": OPENBOOK_DEV_ITEMS,
            "epochs": OPENBOOK_EPOCHS}


def make_revision_wide_vocab(out: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    text = zipf_lines(rng, REVISION_SENTENCES, REVISION_VOCAB, ZIPF_EXPONENT)
    (out / "corpus.txt").write_text(text, encoding="utf-8")
    (out / "heldout.txt").write_text(
        zipf_lines(rng, REVISION_HELDOUT, REVISION_VOCAB, ZIPF_EXPONENT), encoding="utf-8"
    )
    _write_cfg(out / "revise.cfg", {"d": REVISION_D, "batch_size": REVISION_BATCH,
                                    "epochs": REVISION_EPOCHS,
                                    "mask_prob": REVISION_MASK_PROB})
    return {"tokens": len(text.split()), "epochs": REVISION_EPOCHS}


MAKERS = {
    "retrieval-zipf": make_retrieval_zipf,
    "openbook-train": make_openbook_train,
    "revision-wide-vocab": make_revision_wide_vocab,
}


@dataclass(frozen=True)
class Inputs:
    dir: Path
    facts: dict  # sizes the throughput figures divide by


def ensure_inputs(cache: Path, workload: str, seed: int) -> Inputs:
    """Generate the inputs unless a complete copy for this seed exists."""
    out = cache / f"{workload}-seed{seed}"
    done = out / _DONE
    if done.is_file():
        return Inputs(out, json.loads(done.read_text(encoding="utf-8")))
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    facts = MAKERS[workload](out, seed)
    done.write_text(json.dumps(facts), encoding="utf-8")
    return Inputs(out, facts)
