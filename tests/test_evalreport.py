import csv
import hashlib
import json

import numpy as np
import pytest

from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence
from kiqa.datasets import McqDataset, McqItem, attach_premises
from kiqa.encoder import EncoderConfig, EncoderModel, TrainConfig, Vocab
from kiqa.evalreport import (
    EvalError,
    _clone_model,
    config_fingerprint,
    evaluate,
    normalized_overlap,
    save_report,
    sweep_m,
    weight_overlap_report,
    write_sweep_csv,
    write_weight_report_csv,
)
from kiqa.external import ExternalVectorStore
from kiqa.fusion import FusionError, FusionModel, question_text, save_predictions, train
from kiqa.index import build_index
from kiqa.rerank import RerankConfig


def store_dataset(n_items=10, d=3, seed=0, n_options=2):
    """Items whose option vectors live in an external store; gold random."""
    rng = np.random.default_rng(seed)
    items, vectors = [], {}
    for k in range(n_items):
        gold = int(rng.integers(n_options))
        items.append(
            McqItem(id=f"s-{k:04d}", question="q", options=[f"o{i}" for i in range(n_options)],
                    gold=gold)
        )
        for i in range(n_options):
            vectors[(f"s-{k:04d}", i, None)] = rng.normal(size=d)
    return McqDataset(items=items), ExternalVectorStore(vectors)


def baseline_model(store, seed=0):
    model = FusionModel(store, "baseline")
    model.score_w.data = np.random.default_rng(seed).normal(size=(store.dimension, 1))
    return model


# ---------------------------------------------------------------------------
# evaluate / EvalReport
# ---------------------------------------------------------------------------

def test_accuracy_is_exactly_correct_over_n():
    ds, store = store_dataset(n_items=8)
    model = baseline_model(store)
    report = evaluate(model, ds)
    correct = sum(1 for _, p, g in report.predictions if p == g)
    assert report.accuracy == correct / 8
    assert report.n_items == 8
    assert [i for i, _, _ in report.predictions] == [it.id for it in ds.items]


def test_all_correct_toy_set_is_one():
    # score weights aligned with the gold vector of each item
    vectors = {("a", 0, None): np.array([1.0, 0.0]), ("a", 1, None): np.array([0.0, 1.0])}
    store = ExternalVectorStore(vectors)
    model = FusionModel(store, "baseline")
    model.score_w.data = np.array([[1.0], [0.0]])
    ds = McqDataset(items=[McqItem(id="a", question="q", options=["x", "y"], gold=0)])
    assert evaluate(model, ds).accuracy == 1.0


def test_evaluate_requires_gold():
    ds = McqDataset(items=[McqItem(id="a", question="q", options=["x", "y"])])
    store = ExternalVectorStore({("a", 0, None): np.zeros(2), ("a", 1, None): np.zeros(2)})
    with pytest.raises(EvalError, match="gold"):
        evaluate(baseline_model(store), ds)


def test_evaluate_refuses_an_empty_dataset():
    store = ExternalVectorStore({("a", 0, None): np.zeros(2), ("a", 1, None): np.zeros(2)})
    with pytest.raises(EvalError, match="^empty dataset$"):
        evaluate(baseline_model(store), McqDataset(items=[]))


def test_untrained_model_near_chance_on_thousand_items():
    # seed-averaged binomial check: 3 random models on 1000 2-option items
    accs = []
    for seed in range(3):
        ds, store = store_dataset(n_items=1000, seed=seed)
        accs.append(evaluate(baseline_model(store, seed=seed + 50), ds).accuracy)
    assert 0.44 <= float(np.mean(accs)) <= 0.56


def test_evaluate_matches_predictions_file(tmp_path):
    ds, store = store_dataset(n_items=20, seed=3)
    model = baseline_model(store, seed=9)
    report = evaluate(model, ds)
    save_predictions(model, ds, tmp_path / "preds.jsonl")
    recs = [json.loads(x) for x in (tmp_path / "preds.jsonl").read_text().splitlines()]
    from_file = sum(1 for r in recs if r["predicted"] == r["gold"]) / len(recs)
    assert report.accuracy == from_file


def test_save_report_structure_and_determinism(tmp_path):
    ds, store = store_dataset(n_items=4)
    report = evaluate(baseline_model(store), ds, configs={"seed": 7})
    save_report(report, tmp_path / "r1.json")
    save_report(report, tmp_path / "r2.json")
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    payload = json.loads((tmp_path / "r1.json").read_text())
    assert set(payload) == {"accuracy", "n_items", "fingerprint", "predictions"}
    assert payload["n_items"] == 4
    assert payload["predictions"][0].keys() == {"item", "predicted", "gold"}


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_stable_and_order_insensitive():
    a = config_fingerprint({"seed": 1, "head": "concat", "tied": False})
    b = config_fingerprint({"tied": False, "head": "concat", "seed": 1})
    assert a == b
    assert config_fingerprint({"seed": 1, "head": "concat", "tied": False}) == a
    assert a == hashlib.sha256(b'{"head": "concat", "seed": 1, "tied": false}').hexdigest()


def test_fingerprint_changes_with_any_config_or_seed():
    base = {"head": "weighted-sum", "tied": True, "seed": 1}
    fp = config_fingerprint(base)
    assert config_fingerprint({**base, "seed": 2}) != fp
    assert config_fingerprint({**base, "tied": False}) != fp
    assert config_fingerprint({**base, "head": "concat"}) != fp


# ---------------------------------------------------------------------------
# normalized overlap
# ---------------------------------------------------------------------------

def test_overlap_hand_cases():
    assert normalized_overlap("a b c", "b c d e") == 0.5
    assert normalized_overlap("a b c d e", "b c") == 1.0     # K covers Qa
    assert normalized_overlap("x y z", "a b") == 0.0          # disjoint
    assert normalized_overlap("anything", "") == 0.0          # empty Qa
    assert normalized_overlap("", "a b") == 0.0


def test_overlap_is_case_insensitive_set_arithmetic():
    assert normalized_overlap("The CAT the cat", "cat THE") == 1.0
    assert normalized_overlap("cat", "cat cat cat") == 1.0  # sets, not bags


# ---------------------------------------------------------------------------
# Weight/overlap report
# ---------------------------------------------------------------------------

def weighted_store_setup(n_items=10, m=3, seed=0):
    rng = np.random.default_rng(seed)
    items, vectors = [], {}
    for k in range(n_items):
        iid = f"w-{k:04d}"
        premises = []
        for i in range(2):
            plist = [
                KnowledgeSentence(id=f"{k}{i}{j}", text=f"fact {k} {i} {j} about o{i}")
                for j in range(m)
            ]
            premises.append(plist)
            for j in range(m):
                vectors[(iid, i, j)] = rng.normal(size=3)
        items.append(McqItem(id=iid, question=f"question {k}", options=["o0", "o1"],
                             gold=0, premises=premises))
    store = ExternalVectorStore(vectors)
    model = FusionModel(store, "weighted-sum", tied=True)
    model.score_w.data = rng.normal(size=(3, 1))
    return McqDataset(items=items), model


def test_weight_report_row_count_and_sums():
    ds, model = weighted_store_setup(n_items=10, m=3)
    rows = weight_overlap_report(model, ds)
    assert len(rows) == 10 * 2 * 3
    by_option = {}
    for item, option, passage, weight, overlap in rows:
        by_option.setdefault((item, option), []).append(weight)
        assert 0.0 <= overlap <= 1.0
    for weights in by_option.values():
        assert abs(sum(weights) - 1.0) <= 1e-9


def test_weight_report_overlap_column_is_token_overlap():
    ds, model = weighted_store_setup(n_items=1, m=2)
    item = ds.items[0]
    rows = weight_overlap_report(model, ds)
    qa = f"{question_text(item)} {item.options[0]}"
    want = normalized_overlap(item.premises[0][0].text, qa)
    assert rows[0][4] == want


def test_weight_report_rejects_other_heads():
    ds, store = store_dataset(n_items=2)
    with pytest.raises(FusionError, match="weighted-sum"):
        weight_overlap_report(baseline_model(store), ds)


def test_weight_report_reproducible():
    a = weight_overlap_report(*reversed(weighted_store_setup()))
    b = weight_overlap_report(*reversed(weighted_store_setup()))
    assert a == b


def test_weight_report_csv_golden(tmp_path):
    rows = [("it-1", 0, 0, 0.25, 0.5), ("it-1", 0, 1, 0.75, 1.0)]
    write_weight_report_csv(rows, tmp_path / "w.csv")
    text = (tmp_path / "w.csv").read_text()
    assert text == "item,option,passage,weight,overlap\nit-1,0,0,0.25,0.5\nit-1,0,1,0.75,1.0\n"


# ---------------------------------------------------------------------------
# sweep_m
# ---------------------------------------------------------------------------

def decisive_pipeline(n_items=12, noise_per_item=2):
    """Corpus where the top-ranked sentence answers the item and deeper
    matches are filler; items are only decidable through that sentence."""
    sentences, items = [], []
    answers = ("yes", "no")
    rng = np.random.default_rng(7)
    sid = 0
    for k in range(n_items):
        gold = int(rng.integers(2))
        key = f"k{k:03d}"
        sentences.append(
            KnowledgeSentence(id=f"{sid:08d}", text=f"clue {key} answer {answers[gold]}")
        )
        sid += 1
        for j in range(noise_per_item):
            sentences.append(
                KnowledgeSentence(id=f"{sid:08d}", text=f"clue {key} filler junk{j}")
            )
            sid += 1
        items.append(
            McqItem(id=f"t-{k:03d}", question=f"clue {key}", options=list(answers), gold=gold)
        )
    corpus = KnowledgeCorpus(sentences=tuple(sentences))
    index = build_index(corpus)
    ds = McqDataset(items=items)
    texts = [s.text for s in sentences] + [f"clue k{k:03d}" for k in range(n_items)]
    vocab = Vocab.from_texts(texts + list(answers))
    return ds, corpus, index, vocab


def test_sweep_m_row_structure():
    ds, corpus, index, vocab = decisive_pipeline()
    enc = EncoderModel.init(vocab, EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    rows = sweep_m(model, ds, ds, corpus, index, [1, 2, 3])
    assert [m for m, _ in rows] == [1, 2, 3]
    assert all(0.0 <= acc <= 1.0 for _, acc in rows)


def test_sweep_m_validation():
    ds, corpus, index, vocab = decisive_pipeline(n_items=4)
    enc = EncoderModel.init(vocab, EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    with pytest.raises(EvalError, match="positive"):
        sweep_m(model, ds, ds, corpus, index, [0, 1])
    for m_values in ([3, 1], [1, 1]):
        with pytest.raises(EvalError, match="strictly ascending"):
            sweep_m(model, ds, ds, corpus, index, m_values)


def test_sweep_m_retrain_leaves_original_model_untouched():
    ds, corpus, index, vocab = decisive_pipeline(n_items=6)
    enc = EncoderModel.init(vocab, EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "simple-sum", seed=1)
    before = model.score_w.data.copy()
    enc_before = enc.params["emb"].data.copy()
    sweep_m(model, ds, ds, corpus, index, [1, 2],
            train_config=TrainConfig(seed=0, lr=0.1, epochs=2, batch_size=4))
    assert np.array_equal(before, model.score_w.data)
    assert np.array_equal(enc_before, enc.params["emb"].data)


@pytest.mark.parametrize("head,tied", [
    ("concat", False), ("weighted-sum", False), ("weighted-sum", True),
])
@pytest.mark.parametrize("store", [False, True])
def test_clone_model_copies_parameters_and_wiring(head, tied, store):
    if store:
        encoder = ExternalVectorStore({("q", 0, None): np.ones(4)})
    else:
        encoder = EncoderModel.init(Vocab.from_texts(["a b"]), EncoderConfig(d=4), seed=0)
    model = FusionModel(encoder, head, seed=1, tied=tied)
    clone = _clone_model(model)
    assert (clone.head, clone.tied) == (head, tied)
    assert (clone.weight_w is clone.score_w) == tied
    for name, param in model.parameters().items():
        twin = clone.parameters()[name]
        assert twin is not param and twin.requires_grad
        assert np.array_equal(twin.data, param.data)
        twin.data += 1.0
        assert not np.array_equal(twin.data, param.data)
    if store:
        assert clone.encoder is encoder
    else:
        assert clone.encoder is not encoder
        for name, param in encoder.params.items():
            assert np.array_equal(clone.encoder.params[name].data, param.data)
            assert clone.encoder.params[name] is not param


def test_sweep_m_deterministic():
    def run():
        ds, corpus, index, vocab = decisive_pipeline(n_items=6)
        enc = EncoderModel.init(vocab, EncoderConfig(d=4, max_len=32), seed=0)
        model = FusionModel(enc, "concat", seed=1)
        return sweep_m(model, ds, ds, corpus, index, [1, 2],
                       train_config=TrainConfig(seed=3, lr=0.1, epochs=2, batch_size=4))

    assert run() == run()


@pytest.mark.parametrize("lambda_", [0.0, 0.5, 1.0, 2.0])
def test_premises_at_m_are_a_prefix_of_premises_at_10(lambda_):
    # sweep_m attaches once at its largest m and slices; that is only
    # sound if the re-ranker's first m picks do not depend on its m.
    ds, corpus, index, _ = decisive_pipeline(n_items=6, noise_per_item=8)
    deep = attach_premises(ds, corpus, index, RerankConfig(m=10, lambda_=lambda_))
    for m in (1, 2, 5):
        at_m = attach_premises(ds, corpus, index, RerankConfig(m=m, lambda_=lambda_))
        for deep_item, item in zip(deep.items, at_m.items):
            assert [plist[:m] for plist in deep_item.premises] == item.premises


def test_sweep_m_rows_equal_attaching_at_each_m():
    from kiqa.toytasks import make_scattered_evidence_task, training_vocab

    corpus, dataset = make_scattered_evidence_task(n_items=60, seed=0)
    index = build_index(corpus)

    def attach(m):
        return attach_premises(dataset, corpus, index, RerankConfig(m=m, lambda_=0.5),
                               retrieve_k=20)

    config = TrainConfig(seed=2, lr=0.1, epochs=5, batch_size=16)
    enc = EncoderModel.init(training_vocab(attach(4), corpus), EncoderConfig(d=8), seed=0)
    model = FusionModel(enc, "simple-sum", seed=1)
    train(model, attach(4), config)
    ms = [1, 2, 3, 4]

    rows = sweep_m(model, dataset, dataset, corpus, index, ms,
                   rr_config=RerankConfig(lambda_=0.5), retrieve_k=20)
    assert rows == [(m, evaluate(model, attach(m)).accuracy) for m in ms]
    assert len({acc for _, acc in rows}) > 1  # the depths do score differently

    expected = []
    for m in ms[:2]:
        fitted = _clone_model(model)
        train(fitted, attach(m), config)
        expected.append((m, evaluate(fitted, attach(m)).accuracy))
    rows = sweep_m(model, dataset, dataset, corpus, index, ms[:2],
                   rr_config=RerankConfig(lambda_=0.5), train_config=config, retrieve_k=20)
    assert rows == expected


def test_concat_accuracy_does_not_improve_with_noise_passages():
    # fit at depth 1 (the decisive sentence), then look deeper without
    # retraining: appended filler can only dilute the concatenated text
    ds, corpus, index, vocab = decisive_pipeline(n_items=12, noise_per_item=3)
    enc = EncoderModel.init(vocab, EncoderConfig(d=8, max_len=48), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    train_1 = attach_premises(ds, corpus, index, RerankConfig(m=1))
    train(model, train_1, TrainConfig(seed=2, lr=0.3, epochs=40, batch_size=6))
    rows = sweep_m(model, ds, ds, corpus, index, [1, 2, 4])
    accs = [acc for _, acc in rows]
    assert accs[0] >= 0.9
    assert accs[0] >= accs[1] >= accs[2]


def test_write_sweep_csv_golden(tmp_path):
    write_sweep_csv([(1, 0.5), (3, 0.875)], tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == "m,accuracy\n1,0.5\n3,0.875\n"


def test_write_sweep_csv_deterministic(tmp_path):
    rows = [(1, 1 / 3), (2, 2 / 3)]
    write_sweep_csv(rows, tmp_path / "a.csv")
    write_sweep_csv(rows, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.slow
def test_sweep_m_second_passage_unlocks_scattered_evidence():
    """Simple-Sum improves from m=1 to m=2 when evidence spans two passages.

    In the scattered-evidence task each option's support is split across a
    strong and a weak sentence; the strong one always ranks first, so at
    m=1 both options look identical and accuracy sits near chance.  The
    second passage carries the deciding difference.
    """
    from kiqa.toytasks import make_scattered_evidence_task, training_vocab

    corpus, dataset = make_scattered_evidence_task(n_items=200, seed=0)
    train_set = McqDataset(items=dataset.items[:120])
    eval_set = McqDataset(items=dataset.items[120:])
    index = build_index(corpus)
    rr = RerankConfig(m=1, lambda_=0.0)
    probe = attach_premises(dataset, corpus, index, rr, retrieve_k=20)
    enc = EncoderModel.init(training_vocab(probe, corpus), EncoderConfig(d=16), seed=0)
    model = FusionModel(enc, "simple-sum", seed=1)
    rows = sweep_m(
        model, train_set, eval_set, corpus, index, [1, 2],
        rr_config=rr,
        train_config=TrainConfig(seed=2, lr=0.1, epochs=30, batch_size=32),
        retrieve_k=20,
    )
    accs = dict(rows)
    assert accs[1] <= 0.65
    assert accs[2] >= accs[1] + 0.25
