"""Release gates: nine end-to-end acceptance checks with stated tolerances.

Each check prints one ``criterion N: PASS — detail`` line on success (run
with ``pytest tests/test_acceptance.py -v -s`` to see them live); on
failure the assertion message carries the matching FAIL line.  The checks
exercise the whole pipeline — retrieval, re-ranking, gradients, head
algebra, the constructed diagnostic tasks, corpus pretraining, the
synthetic family-QA generator, and byte-level determinism of every
command-line stage.
"""

import itertools
import json
import multiprocessing
import os
import random
import re
import string
from time import perf_counter

import numpy as np
import pytest

from test_fusion import store_model
from test_index import bm25_brute_force
from test_pfqa import levenshtein_oracle
from test_rerank import jaccard, on_texts, rerank_oracle

from kiqa.cli import main as cli_main
from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence
from kiqa.datasets import McqDataset, McqItem
from kiqa.encoder import (
    SEP,
    START,
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    Vocab,
    encoder_tokens,
    mlm_batch_loss,
    pad_batch,
    revision_train,
)
from kiqa.evalreport import evaluate
from kiqa.fusion import HEADS, FusionModel, grad_check, score_item, train
from kiqa.index import Bm25Params, build_index, search
from kiqa.pfqa import assign_splits, edit_distance, generate_questions, load_facts
from kiqa.rerank import RerankConfig, SimilarityFn, rerank
from kiqa.toytasks import (
    make_paraphrase_transfer_task,
    make_planted_evidence_task,
    make_scattered_evidence_task,
    route_premises,
    training_vocab,
)

HEAD_VARIANTS = [(h, False) for h in HEADS] + [("weighted-sum", True)]


def check(n, ok, detail):
    assert ok, f"criterion {n}: FAIL — {detail}"
    print(f"criterion {n}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. Ranked retrieval matches brute force
# ---------------------------------------------------------------------------

def test_criterion_1_bm25_matches_brute_force():
    rng = np.random.default_rng(101)
    words = [f"t{i:02d}" for i in range(30)]
    start = perf_counter()
    worst = 0.0
    for _ in range(500):
        n_docs = int(rng.integers(1, 51))
        docs = []
        for i in range(n_docs):
            text = " ".join(map(str, rng.choice(words, size=int(rng.integers(1, 9)))))
            docs.append((f"{i:08d}", text))
        k1 = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        corpus = KnowledgeCorpus([KnowledgeSentence(id=i, text=t) for i, t in docs])
        index = build_index(corpus, Bm25Params(k1=k1, b=b))
        query = [str(w) for w in rng.choice(words, size=int(rng.integers(1, 5)))]
        hits = search(index, query, k=n_docs)
        expected = bm25_brute_force(docs, query, k1=k1, b=b)
        assert [h.sentence_id for h in hits] == [doc_id for doc_id, _ in expected]
        if hits:
            worst = max(worst, max(abs(h.score - s) for h, (_, s) in zip(hits, expected)))
    elapsed = perf_counter() - start
    check(1, worst <= 1e-9 and elapsed < 10.0,
          f"500 random corpora, max |Δscore| = {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Greedy re-ranking matches the naive oracle
# ---------------------------------------------------------------------------

def test_criterion_2_rerank_matches_oracle():
    rng = np.random.default_rng(202)
    words = [f"w{i}" for i in range(12)]
    table = {w: tuple(rng.normal(size=3)) for w in words}
    start = perf_counter()
    for trial in range(500):
        n = int(rng.integers(1, 13))
        candidates = [
            KnowledgeSentence(
                id=f"{i:08d}",
                text=" ".join(map(str, rng.choice(words, size=int(rng.integers(1, 7))))),
            )
            for i in range(n)
        ]
        query = " ".join(map(str, rng.choice(words, size=int(rng.integers(1, 5)))))
        m = int(rng.integers(1, 13))
        lam = float(rng.uniform(0.0, 2.0))
        if trial % 2 == 0:
            fn, oracle_sim = SimilarityFn(), jaccard
        else:
            fn = SimilarityFn(table)
            oracle_sim = on_texts(SimilarityFn(table))
        got = rerank(candidates, query, RerankConfig(m=m, lambda_=lam, similarity=fn))
        want = rerank_oracle(candidates, query, m, lam, oracle_sim)
        assert [s.id for s in got] == [s.id for s in want]
    elapsed = perf_counter() - start
    check(2, elapsed < 5.0, f"500 random instances match the oracle, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. Analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def _spawn_pool(monkeypatch):
    """A pool of up to two spawned processes, each started with one BLAS thread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1))


def _grad_check_run(vocab, head, tied, item, d, encoder_seed, head_seed):
    """One of test 3's gradient checks: a tiny model's worst relative error."""
    encoder = EncoderModel.init(vocab, EncoderConfig(d=d, max_len=24), seed=encoder_seed)
    model = FusionModel(encoder, head, seed=head_seed, tied=tied)
    return grad_check(model, item, step=1e-6)


@pytest.mark.slow
def test_criterion_3_gradient_checks(monkeypatch):
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    vocab = Vocab.from_texts([" ".join(words)])
    rng = np.random.default_rng(303)

    def random_text():
        return " ".join(map(str, rng.choice(words, size=int(rng.integers(1, 4)))))

    start = perf_counter()
    specs = []  # every check's arguments, drawn here in one order from one rng
    for head, tied in HEAD_VARIANTS:
        for trial in range(20):
            d = int(rng.integers(3, 5))
            n_options = int(rng.integers(2, 4))
            m = 0 if head == "baseline" else int(rng.integers(1, 4))
            premises = None
            if m:
                premises = [
                    [KnowledgeSentence(id=f"{i}{j}", text=random_text()) for j in range(m)]
                    for i in range(n_options)
                ]
            item = McqItem(
                id=f"it-{trial}",
                question=random_text(),
                options=[random_text() for _ in range(n_options)],
                gold=int(rng.integers(n_options)),
                premises=premises,
            )
            specs.append((vocab, head, tied, item, d,
                          int(rng.integers(2**31)), int(rng.integers(2**31))))
    with _spawn_pool(monkeypatch) as pool:  # the checks share nothing
        errs = pool.starmap(_grad_check_run, specs, chunksize=1)
    worst = {variant: max(errs[20 * i:20 * (i + 1)]) for i, variant in enumerate(HEAD_VARIANTS)}
    elapsed = perf_counter() - start
    top = max(worst.values())
    check(3, top < 1e-5 and elapsed < 60.0,
          f"6 head variants x 20 tiny models, max rel err = {top:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. Head algebra
# ---------------------------------------------------------------------------

def test_criterion_4_head_algebra():
    rng = np.random.default_rng(404)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        pooled_m1 = [[list(rng.normal(size=d))] for _ in range(3)]
        item1 = _plain_item(pooled_m1)
        # m=1: Parallel-Max and Simple-Sum collapse to the same linear score
        score_w = list(rng.normal(size=d))
        mx = store_model("parallel-max", pooled_m1, score_w=score_w, score_b=0.3)
        sm = store_model("simple-sum", pooled_m1, score_w=score_w, score_b=0.3)
        assert score_item(mx, item1).scores == score_item(sm, item1).scores

        pooled = [[list(rng.normal(size=d)) for _ in range(4)] for _ in range(3)]
        item = _plain_item(pooled)
        # weighted-sum attention weights are a probability distribution
        for tied in (False, True):
            ws = store_model("weighted-sum", pooled, tied=tied)
            for option_weights in score_item(ws, item).weights:
                assert abs(sum(option_weights) - 1.0) <= 1e-9

        # passage order cannot matter for the per-passage heads
        perm = list(rng.permutation(4))
        shuffled = [[vecs[p] for p in perm] for vecs in pooled]
        for head in ("parallel-max", "simple-sum", "weighted-sum"):
            a = store_model(head, pooled, score_w=score_w)
            b = store_model(head, shuffled, score_w=score_w, item_id="it-1")
            sa = score_item(a, item).scores
            sb = score_item(b, _plain_item(shuffled, item_id="it-1")).scores
            assert max(abs(x - y) for x, y in zip(sa, sb)) < 1e-9

        # shifting the scoring bias moves every score, never the argmax
        for head in HEADS:
            vecs = pooled if head not in ("baseline", "concat") else pooled_m1
            base = store_model(head, vecs, score_w=score_w, score_b=0.0)
            shifted = store_model(head, vecs, score_w=score_w, score_b=7.5)
            probe = _plain_item(vecs)
            assert score_item(base, probe).predicted == score_item(shifted, probe).predicted
    check(4, True, "m=1 head equality, weight normalization, permutation and bias-shift invariance")


def _plain_item(pooled, item_id="it-0"):
    premises = [
        [KnowledgeSentence(id=f"{i}{j}", text=f"passage {i} {j}") for j in range(len(vecs))]
        for i, vecs in enumerate(pooled)
    ]
    return McqItem(
        id=item_id,
        question="which one?",
        options=[f"opt{i}" for i in range(len(pooled))],
        gold=0,
        premises=premises,
    )


# ---------------------------------------------------------------------------
# 5. Knowledge helps: planted-evidence task
# ---------------------------------------------------------------------------

def test_criterion_5_knowledge_helps():
    start = perf_counter()
    corpus, dataset = make_planted_evidence_task(n_items=500, seed=0)
    attached = route_premises(dataset, corpus, m=1)
    train_set = McqDataset(items=attached.items[:300])
    eval_set = McqDataset(items=attached.items[300:])
    vocab = training_vocab(attached)
    config = TrainConfig(seed=2, lr=0.3, epochs=15, batch_size=32)

    accs = {}
    for head in HEADS:
        encoder = EncoderModel.init(vocab, EncoderConfig(d=16), seed=0)
        model = FusionModel(encoder, head, seed=1)
        train(model, train_set, config)
        accs[head] = evaluate(model, eval_set).accuracy
    elapsed = perf_counter() - start

    open_book = {h: a for h, a in accs.items() if h != "baseline"}
    ok = accs["baseline"] <= 0.60 and all(a >= 0.95 for a in open_book.values())
    detail = ", ".join(f"{h} {a:.3f}" for h, a in accs.items())
    check(5, ok and elapsed < 300.0, f"{detail} ({elapsed:.0f} s)")


# ---------------------------------------------------------------------------
# 6. Scattered evidence: sum heads beat max at m=2
# ---------------------------------------------------------------------------

def test_criterion_6_scattered_evidence():
    corpus, dataset = make_scattered_evidence_task(n_items=400, seed=0)
    attached = route_premises(dataset, corpus, m=2)
    train_set = McqDataset(items=attached.items[:240])
    eval_set = McqDataset(items=attached.items[240:])
    vocab = training_vocab(attached)
    config = TrainConfig(seed=2, lr=0.1, epochs=30, batch_size=32)

    accs = {}
    for head in ("parallel-max", "simple-sum", "weighted-sum"):
        encoder = EncoderModel.init(vocab, EncoderConfig(d=16), seed=0)
        model = FusionModel(encoder, head, seed=1)
        train(model, train_set, config)
        accs[head] = evaluate(model, eval_set).accuracy

    margin = min(accs["simple-sum"], accs["weighted-sum"]) - accs["parallel-max"]
    detail = (f"simple-sum {accs['simple-sum']:.3f}, weighted-sum {accs['weighted-sum']:.3f}, "
              f"parallel-max {accs['parallel-max']:.3f}, margin {margin:+.3f}")
    check(6, margin >= 0.10, detail)


# ---------------------------------------------------------------------------
# 7. Revision: masked-token loss halves; pretraining transfers
# ---------------------------------------------------------------------------

def _masked_eval_loss(model, corpus, mask_seed=0, mask_prob=0.15):
    """Masked-token loss over the whole corpus under one fixed mask draw."""
    vocab = model.vocab
    sequences = [
        vocab.encode([START, *encoder_tokens(s.text), SEP][: model.config.max_len])
        for s in corpus.sentences
    ]
    ids = pad_batch(sequences, vocab.pad_id)
    maskable = ids >= vocab.first_word_id
    mask = (np.random.default_rng(mask_seed).random(ids.shape) < mask_prob) & maskable
    return mlm_batch_loss(model, ids, mask).item()


def _revision_loss_ratio():
    """(a) pretraining halves the masked-token loss on a 100-sentence KB."""
    kb, _ = make_planted_evidence_task(n_items=50, seed=1)
    assert len(kb) == 100
    vocab = Vocab.from_texts(s.text for s in kb.sentences)
    encoder = EncoderModel.init(vocab, EncoderConfig(d=32), seed=0)
    before = _masked_eval_loss(encoder, kb)
    revision_train(
        encoder, kb,
        TrainConfig(seed=3, lr=0.05, epochs=1000, batch_size=32, mask_prob=0.3),
    )
    after = _masked_eval_loss(encoder, kb)
    return after / before


def _revision_gap(seed):
    """(b) revised-then-trained minus unrevised accuracy on verdict paraphrase transfer."""
    corpus, train_raw, eval_raw = make_paraphrase_transfer_task(seed=0)
    train_set = route_premises(train_raw, corpus, m=1)
    eval_set = route_premises(eval_raw, corpus, m=1)
    shared_vocab = training_vocab(train_set, corpus)
    accs = {}
    for revised in (False, True):
        enc = EncoderModel.init(shared_vocab, EncoderConfig(d=24), seed=seed)
        if revised:
            revision_train(
                enc, corpus,
                TrainConfig(seed=3000 + seed, lr=0.05, epochs=200,
                            batch_size=32, mask_prob=0.3),
            )
        model = FusionModel(enc, "concat", seed=1000 + seed)
        train(
            model, train_set,
            TrainConfig(seed=2000 + seed, lr=0.3, epochs=30, batch_size=32),
            freeze_encoder=True,
        )
        accs[revised] = evaluate(model, eval_set).accuracy
    return accs[True] - accs[False]


def _revision_run(seed):
    """One of test 7's six independent runs: None is (a), a seed one run of (b)."""
    return _revision_loss_ratio() if seed is None else _revision_gap(seed)


@pytest.mark.slow
def test_criterion_7_revision(monkeypatch):
    with _spawn_pool(monkeypatch) as pool:  # the six runs share nothing
        ratio, *gaps = pool.map(_revision_run, [None, *range(5)], chunksize=1)
    mean_gap = sum(gaps) / len(gaps)

    ok = ratio <= 0.5 and mean_gap >= 0.05
    check(7, ok, f"loss ratio {ratio:.3f} (≤ 0.5), "
                 f"revised-minus-unrevised mean gap {mean_gap:+.3f} over 5 seeds (≥ +0.05)")


# ---------------------------------------------------------------------------
# 8. Synthetic family-QA generator on a 200-person fact file
# ---------------------------------------------------------------------------

def _derived_first_names(person, qtype, facts):
    """Independent relation closure from (child, parent) pairs."""
    parents, children = {}, {}
    for child, parent in facts:
        parents.setdefault(child, set()).add(parent)
        children.setdefault(parent, set()).add(child)
    if qtype == "parent":
        answers = parents.get(person, set())
    elif qtype == "grandparent":
        answers = {g for p in parents.get(person, set()) for g in parents.get(p, set())}
    else:
        answers = {
            c for p in parents.get(person, set()) for c in children.get(p, set())
        } - {person}
    return {a.split()[0] for a in answers}


def test_criterion_8_pfqa_generator(tmp_path):
    consonants1, vowels, consonants2 = "bdfgk", "aeiou", "lmnprstz"
    persons = ["".join(p) for p in itertools.product(consonants1, vowels, consonants2)]
    assert len(persons) == 200
    rng = random.Random(8)
    edges = []
    for i in range(1, len(persons)):
        edges.append((persons[i], persons[rng.randrange(i)]))
    for _ in range(120):  # second parents create grandparent/sibling structure
        i = rng.randrange(1, len(persons))
        parent = persons[rng.randrange(i)]
        if parent != persons[i] and (persons[i], parent) not in edges:
            edges.append((persons[i], parent))
    facts_path = tmp_path / "facts.tsv"
    facts_path.write_text(
        "".join(f"{c}\t{p}\n" for c, p in edges), encoding="utf-8"
    )

    facts = load_facts(facts_path)
    fact_pairs = [(f.child, f.parent) for f in facts]
    questions = generate_questions(facts, seed=0)
    assert len(questions) >= 200

    fact_re = re.compile(r"^The parent of (.+) is (.+)\.$")
    pool = {p.split()[0] for p in persons}
    for q in questions:
        truth = _derived_first_names(q.person, q.qtype, fact_pairs)
        gold_name = q.options[q.gold]
        # option invariants
        assert len(set(q.options)) == 4 and set(q.options) <= pool
        assert gold_name in truth
        distractors = [o for i, o in enumerate(q.options) if i != q.gold]
        assert not (set(distractors) & truth)  # no other true answer leaks in
        # distractors are the nearest available names by edit distance
        available = sorted(pool - truth - {gold_name})
        chosen_max = max(edit_distance(d2, gold_name) for d2 in distractors)
        unchosen = [n for n in available if n not in distractors]
        assert chosen_max <= min(edit_distance(n, gold_name) for n in unchosen)
        # the emitted knowledge alone supports the gold answer
        parsed = [fact_re.match(s).groups() for s in q.knowledge]
        assert gold_name in _derived_first_names(q.person, q.qtype, parsed)

    splits = assign_splits(questions, seed=0)
    persons_by_split = [{q.person for q in s} for s in splits]
    assert persons_by_split[0] and sum(map(len, splits)) == len(questions)
    for a, b in itertools.combinations(persons_by_split, 2):
        assert not (a & b)

    rng2 = random.Random(88)
    for _ in range(10_000):
        a = "".join(rng2.choices(string.ascii_lowercase[:5], k=rng2.randrange(11)))
        b = "".join(rng2.choices(string.ascii_lowercase[:5], k=rng2.randrange(11)))
        assert edit_distance(a, b) == levenshtein_oracle(a, b)

    check(8, True,
          f"{len(questions)} questions over 200 persons: option/distractor/closure/"
          f"split invariants hold; edit distance matches the DP oracle on 10,000 pairs")


# ---------------------------------------------------------------------------
# 9. Byte-identical artifacts from every pipeline stage
# ---------------------------------------------------------------------------

def test_criterion_9_stage_determinism(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text(
        "the sky is blue today\nthe grass is green here\n"
        "the sun is yellow now\nthe sea is salty water\n",
        encoding="utf-8",
    )
    questions = tmp_path / "qs.jsonl"
    questions.write_text(
        json.dumps({"id": "q1", "question": "what colour is the sky",
                    "options": ["blue", "green"], "gold": 0}) + "\n"
        + json.dumps({"id": "q2", "question": "what colour is the grass",
                      "options": ["yellow", "green"], "gold": 1}) + "\n",
        encoding="utf-8",
    )
    facts = tmp_path / "facts.tsv"
    names = "Alice Bob Carol Dave Eve Frank Grace Heidi Ivan Judy Mallory Niaj Olivia Peggy"
    # 13 facts: enough persons that pfqa-gen's train, dev and test splits all get questions
    facts.write_text("".join(f"{c}\t{p}\n" for c, p in zip(names.split(), names.split()[1:])),
                     encoding="utf-8")
    (tmp_path / "train.cfg").write_text(
        'head = "weighted-sum"\nd = 8\nepochs = 2\n', encoding="utf-8"
    )
    (tmp_path / "rev.cfg").write_text("d = 8\nepochs = 2\n", encoding="utf-8")
    (tmp_path / "sweep.cfg").write_text("m_values = [1, 2]\nepochs = 1\n", encoding="utf-8")

    def run_all(tag):
        d = tmp_path / tag
        d.mkdir()
        stages = [
            ("corpus.jsonl", ["corpus-prep", "--input", str(raw)]),
            ("index.kiix", ["index-build", "--corpus", str(d / "corpus.jsonl")]),
            ("attached.jsonl", ["attach", "--dataset", str(questions),
                                "--corpus", str(d / "corpus.jsonl"),
                                "--index", str(d / "index.kiix")]),
            ("pfqa", ["pfqa-gen", "--facts", str(facts)]),
            ("encoder.bin", ["revise", "--corpus", str(d / "corpus.jsonl"),
                             "--config", str(tmp_path / "rev.cfg")]),
            ("model.bin", ["train", "--dataset", str(d / "attached.jsonl"),
                           "--config", str(tmp_path / "train.cfg")]),
            ("report.json", ["eval", "--model", str(d / "model.bin"),
                             "--dataset", str(d / "attached.jsonl"),
                             "--predictions", str(d / "predictions.jsonl")]),
            ("sweep.csv", ["sweep-m", "--model", str(d / "model.bin"),
                           "--train", str(questions), "--eval", str(questions),
                           "--corpus", str(d / "corpus.jsonl"),
                           "--config", str(tmp_path / "sweep.cfg")]),
            ("weights.csv", ["weight-report", "--model", str(d / "model.bin"),
                             "--dataset", str(d / "attached.jsonl")]),
        ]
        for out_name, argv in stages:
            assert cli_main(argv + ["--out", str(d / out_name)]) == 0
            hidden = [p.name for p in d.rglob(".*")]  # an output's temporary file is hidden
            assert not hidden, f"criterion 9: FAIL — {argv[0]} left {hidden}"
        artifacts = {}
        for path in sorted(d.rglob("*")):
            if path.is_file():
                artifacts[str(path.relative_to(d))] = path.read_bytes()
        return artifacts

    first, second = run_all("a"), run_all("b")
    assert first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    assert not differing, f"criterion 9: FAIL — artifacts differ: {differing}"
    check(9, len(first) >= 13,
          f"{len(first)} artifacts from 9 stages byte-identical across reruns")
