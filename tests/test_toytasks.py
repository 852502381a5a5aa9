"""Structural checks for the constructed diagnostic tasks.

Routing checks assert the property the tasks are built around: the
default query generator must attach exactly the planted sentences, since
every accuracy contrast downstream is meaningless if retrieval strays.
"""

import hashlib

import numpy as np
import pytest

from kiqa.corpus import save_jsonl
from kiqa.datasets import save_mcq_jsonl
from kiqa.encoder import SPECIAL_TOKENS
from kiqa.toytasks import (
    OPTION_WORDS,
    SUPERVISED_VERDICTS,
    TRANSFER_VERDICTS,
    make_paraphrase_transfer_task,
    make_planted_evidence_task,
    make_scattered_evidence_task,
    route_premises,
    training_vocab,
)


# ---------------------------------------------------------------- planted


def test_planted_structure():
    corpus, ds = make_planted_evidence_task(n_items=50, seed=0)
    assert len(ds.items) == 50
    assert len(corpus.sentences) == 100  # one sentence per option
    assert len({s.id for s in corpus.sentences}) == 100
    for item in ds.items:
        assert len(item.options) == 2
        assert item.gold in (0, 1)
        assert item.question.startswith("clue k")
        assert all(w in OPTION_WORDS for w in item.options)
        assert item.options[0] != item.options[1]


def test_planted_verdicts_encode_gold():
    corpus, ds = make_planted_evidence_task(n_items=40, seed=3)
    by_id = {s.id: s for s in corpus.sentences}
    attached = route_premises(ds, corpus, m=1)
    for item in attached.items:
        for i, plist in enumerate(item.premises):
            assert len(plist) == 1
            tokens = plist[0].text.split()
            assert item.options[i] in tokens
            assert item.question.split()[1] in tokens  # the item key
            expected = "indeed" if i == item.gold else "hardly"
            assert tokens[-1] == expected
            assert plist[0].id in by_id


def test_planted_gold_is_balanced():
    _, ds = make_planted_evidence_task(n_items=400, seed=0)
    golds = [item.gold for item in ds.items]
    assert 0.4 < np.mean(golds) < 0.6


def test_planted_deterministic():
    c1, d1 = make_planted_evidence_task(n_items=30, seed=7)
    c2, d2 = make_planted_evidence_task(n_items=30, seed=7)
    assert [s.text for s in c1.sentences] == [s.text for s in c2.sentences]
    assert [i.gold for i in d1.items] == [i.gold for i in d2.items]
    _, d3 = make_planted_evidence_task(n_items=30, seed=8)
    assert [i.gold for i in d1.items] != [i.gold for i in d3.items] or [
        i.options for i in d1.items
    ] != [i.options for i in d3.items]


# -------------------------------------------------------------- scattered


def test_scattered_structure():
    corpus, ds = make_scattered_evidence_task(n_items=30, seed=0)
    assert len(corpus.sentences) == 30 * 4
    lengths = {len(s.text.split()) for s in corpus.sentences}
    assert len(lengths) == 1  # equal length kills length-normalisation cues
    for item in ds.items:
        assert item.options == ["alpha", "beta"]


def test_scattered_aid_counts():
    corpus, ds = make_scattered_evidence_task(n_items=60, seed=1)
    attached = route_premises(ds, corpus, m=2)
    for item in attached.items:
        for i, plist in enumerate(item.premises):
            texts = [p.text for p in plist]
            assert len(texts) == 2
            assert all(item.options[i] in t.split() for t in texts)
            counts = sorted(t.split().count("aid") for t in texts)
            if i == item.gold:
                assert counts == [3, 3]
            else:
                assert counts == [1, 3]


def test_scattered_top1_is_always_strong():
    corpus, ds = make_scattered_evidence_task(n_items=60, seed=1)
    attached = route_premises(ds, corpus, m=1)
    for item in attached.items:
        for plist in item.premises:
            assert len(plist) == 1
            assert plist[0].text.split().count("aid") == 3


def test_scattered_strong_precedes_weak_in_corpus():
    corpus, _ = make_scattered_evidence_task(n_items=20, seed=2)
    # sentences come in per-option pairs; within a pair the stronger
    # (higher aid count) sentence must carry the lower id
    for a, b in zip(corpus.sentences[::2], corpus.sentences[1::2]):
        assert a.text.split().count("aid") >= b.text.split().count("aid")
        assert a.id < b.id


# ------------------------------------------------------------- paraphrase


def test_paraphrase_corpus_composition():
    corpus, train_ds, eval_ds = make_paraphrase_transfer_task(
        n_train=8, n_eval=6, seed=0
    )
    n_pairs = 1 + len(TRANSFER_VERDICTS)
    assert len(corpus.sentences) == 8 * 2 * n_pairs + 6 * 2
    assert len(train_ds.items) == 8
    assert len(eval_ds.items) == 6


def test_paraphrase_routing_split():
    corpus, train_ds, eval_ds = make_paraphrase_transfer_task(
        n_train=8, n_eval=8, seed=0
    )
    supervised = set(SUPERVISED_VERDICTS)
    transfer = {v for pair in TRANSFER_VERDICTS for v in pair}
    attached_train = route_premises(train_ds, corpus, m=1)
    for item in attached_train.items:
        for i, plist in enumerate(item.premises):
            verdict = plist[0].text.split()[-1]
            assert verdict in supervised
            assert verdict == SUPERVISED_VERDICTS[0 if i == item.gold else 1]
    attached_eval = route_premises(eval_ds, corpus, m=1)
    gold_class = {pair[0] for pair in TRANSFER_VERDICTS}
    for item in attached_eval.items:
        for i, plist in enumerate(item.premises):
            verdict = plist[0].text.split()[-1]
            assert verdict in transfer
            assert (verdict in gold_class) == (i == item.gold)


def test_paraphrase_eval_uses_multiple_pairs():
    corpus, _, eval_ds = make_paraphrase_transfer_task(n_train=4, n_eval=40, seed=0)
    attached = route_premises(eval_ds, corpus, m=1)
    pairs_seen = set()
    for item in attached.items:
        verdict = item.premises[item.gold][0].text.split()[-1]
        pairs_seen.add(verdict)
    assert len(pairs_seen) >= 3  # luck on one pair cannot dominate


# ------------------------------------------------------------------ bytes

TASKS = {
    "planted": make_planted_evidence_task,
    "scattered": make_scattered_evidence_task,
    "paraphrase": make_paraphrase_transfer_task,
}

# sha256 of a default-size task's corpus (save_jsonl) followed by its
# datasets (save_mcq_jsonl): a change to any generated byte shows here.
TASK_SHA256 = {
    ("planted", 0): "adc4ae25483bd496cc7f6561acc96660c18e3e1f64953469a010fd8ee2bda44c",
    ("planted", 1): "f7dd1af6d610ab581ac2ea395f540f88219520b200e0680932c88033fd8af38b",
    ("planted", 2): "722c04a3bc27c3f9e3d75d59cb2d705b0cbd65d089d298031b8751dc38a0dcd1",
    ("scattered", 0): "37c690a68f1f4bed992c3ff6e62bd8398bcafe4ce25319309cd23503b628308e",
    ("scattered", 1): "59029bb9350e7eb59b997d6ebb40f4c68f5a9d704c27d04bbf18fde087511f48",
    ("scattered", 2): "f95abd76cf9d52b2ca9eb7d3288aafbda7360d20871a46294d9aa936b94e53cd",
    ("paraphrase", 0): "b43d24a8c9473f5f14b0674bb0ca7bf50d4acb4cb67e81f3178adf431902c2b6",
    ("paraphrase", 1): "dfde59b57ee3759aceb3d520c11556facc810030973d423935f361f0a7b6ff6b",
    ("paraphrase", 2): "0f8eb6b78a9f25aa0e80e0acde7990c51dedd6e64c37d5c9c3b0158e452d4d13",
}


@pytest.mark.parametrize("task, seed", sorted(TASK_SHA256))
def test_task_bytes_are_pinned(tmp_path, task, seed):
    corpus, *datasets = TASKS[task](seed=seed)
    save_jsonl(corpus, tmp_path / "corpus.jsonl")
    blob = (tmp_path / "corpus.jsonl").read_bytes()
    for n, dataset in enumerate(datasets):
        save_mcq_jsonl(dataset, tmp_path / f"{n}.jsonl")
        blob += (tmp_path / f"{n}.jsonl").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == TASK_SHA256[task, seed]


# ------------------------------------------------------------------ vocab


def test_training_vocab_excludes_eval_keys():
    corpus, ds = make_planted_evidence_task(n_items=20, seed=0)
    attached = route_premises(ds, corpus, m=1)
    train = attached.items[:10]
    from kiqa.datasets import McqDataset

    vocab = training_vocab(McqDataset(items=train))
    assert all(t in vocab.tokens for t in SPECIAL_TOKENS)
    assert "clue" in vocab.tokens and "indeed" in vocab.tokens
    assert train[0].question.split()[1] in vocab.tokens
    eval_key = attached.items[-1].question.split()[1]
    assert eval_key not in vocab.tokens


def test_training_vocab_with_corpus_covers_transfer_verdicts():
    corpus, train_ds, _ = make_paraphrase_transfer_task(n_train=6, n_eval=6, seed=0)
    attached = route_premises(train_ds, corpus, m=1)
    without = training_vocab(attached)
    with_corpus = training_vocab(attached, corpus)
    for pair in TRANSFER_VERDICTS:
        for verdict in pair:
            assert verdict not in without.tokens
            assert verdict in with_corpus.tokens


def test_route_premises_rejects_bad_m():
    corpus, ds = make_planted_evidence_task(n_items=5, seed=0)
    with pytest.raises(Exception):
        route_premises(ds, corpus, m=0)
