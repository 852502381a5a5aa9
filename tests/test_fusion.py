"""Fusion-head tests.

``naive_scores`` below recomputes every head from its definition with
plain Python loops over externally supplied vectors, so the head algebra
is checked without trusting any package code.  Hand-set d=2 cases pin
exact arithmetic; property tests then compare the implementation against
the oracle on random vector stores.
"""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa import autodiff as ad
from kiqa import fusion
from kiqa.autodiff import SGD, DivergenceError, Tensor
from kiqa.datasets import DatasetError, McqDataset, McqItem
from kiqa.corpus import KnowledgeSentence
from kiqa.encoder import EncoderConfig, EncoderModel, TrainConfig, Vocab
from kiqa.external import ExternalVectorError, ExternalVectorStore
from kiqa.encoder import CheckpointError
from kiqa.evalreport import evaluate
from kiqa.fusion import (
    HEADS,
    FusionError,
    FusionModel,
    _batch_loss,
    _batch_scores,
    _passages,
    grad_check,
    load_model,
    question_text,
    save_model,
    save_predictions,
    score_item,
    train,
)
from kiqa.toytasks import make_planted_evidence_task, route_premises, training_vocab

from composed import composed_graphs, fused_and_composed, sub, tape
from frames import frame, patched, unframe


# ---------------------------------------------------------------------------
# Head-definition oracle
# ---------------------------------------------------------------------------

def naive_scores(head, pooled_per_option, score_w, score_b, weight_w=None, weight_b=None):
    """Scores straight from the definitions; vectors are plain lists."""

    def linear(vec, w, b):
        return sum(x * wi for x, wi in zip(vec, w)) + b

    scores, weights = [], []
    for vecs in pooled_per_option:
        if head in ("baseline", "concat"):
            assert len(vecs) == 1
            scores.append(linear(vecs[0], score_w, score_b))
            weights.append(None)
        elif head == "parallel-max":
            scores.append(max(linear(v, score_w, score_b) for v in vecs))
            weights.append(None)
        elif head == "simple-sum":
            summed = [sum(col) for col in zip(*vecs)]
            scores.append(linear(summed, score_w, score_b))
            weights.append(None)
        else:
            zs = [linear(v, weight_w, weight_b) for v in vecs]
            m = max(zs)
            es = [math.exp(z - m) for z in zs]
            ws = [e / sum(es) for e in es]
            summary = [sum(w * v[t] for w, v in zip(ws, vecs)) for t in range(len(vecs[0]))]
            scores.append(linear(summary, score_w, score_b))
            weights.append(ws)
    return scores, weights


def store_vectors(pooled_per_option, item_id):
    vectors = {}
    for i, vecs in enumerate(pooled_per_option):
        vectors[(item_id, i, None)] = np.asarray(vecs[0], dtype=float)
        vectors[(item_id, i, -1)] = np.asarray(vecs[0], dtype=float)
        for j, v in enumerate(vecs):
            vectors[(item_id, i, j)] = np.asarray(v, dtype=float)
    return vectors


def store_model(head, pooled_per_option, item_id="it-0", tied=False,
                score_w=None, score_b=0.0, weight_w=None, weight_b=0.0):
    """FusionModel over an ExternalVectorStore holding the given vectors.

    The store gets per-passage vectors plus matching no-knowledge (None)
    and joined (-1) entries so any head can run against it.
    """
    d = len(pooled_per_option[0][0])
    model = FusionModel(ExternalVectorStore(store_vectors(pooled_per_option, item_id)), head,
                        tied=tied)
    rng = np.random.default_rng(0)
    sw = np.asarray(score_w if score_w is not None else rng.normal(size=d), float)
    model.score_w.data = sw.reshape(d, 1).copy()
    model.score_b.data = np.array([float(score_b)])
    if head == "weighted-sum" and not tied:
        uw = np.asarray(weight_w if weight_w is not None else rng.normal(size=d), float)
        model.weight_w.data = uw.reshape(d, 1).copy()
        model.weight_b.data = np.array([float(weight_b)])
    return model


def make_item(n_options=2, m=2, item_id="it-0", gold=0):
    premises = [
        [KnowledgeSentence(id=f"{i}{j}", text=f"passage {i} {j}") for j in range(m)]
        for i in range(n_options)
    ]
    return McqItem(
        id=item_id,
        question="which one?",
        options=[f"opt{i}" for i in range(n_options)],
        gold=gold,
        premises=premises if m else None,
    )


def ragged_item(pooled, item_id="it-0", gold=0):
    """Item whose per-option premise counts mirror a ragged vector table."""
    premises = [
        [KnowledgeSentence(id=f"{i}{j}", text=f"passage {i} {j}")
         for j in range(len(vecs))]
        for i, vecs in enumerate(pooled)
    ]
    return McqItem(
        id=item_id,
        question="which one?",
        options=[f"opt{i}" for i in range(len(pooled))],
        gold=gold,
        premises=premises,
    )


vec_lists = st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.lists(
            st.lists(st.floats(-3, 3), min_size=d, max_size=d),
            min_size=1, max_size=4,
        ),
        min_size=2, max_size=4,
    )
)


def head_params(model):
    """score_w, score_b, weight_w, weight_b as plain lists/floats for the oracle."""
    ww = model.weight_w.data[:, 0].tolist() if model.weight_w is not None else None
    wb = float(model.weight_b.data[0]) if model.weight_b is not None else None
    return model.score_w.data[:, 0].tolist(), float(model.score_b.data[0]), ww, wb


@settings(max_examples=60, deadline=None)
@given(vec_lists, st.sampled_from(HEADS), st.booleans())
def test_heads_match_definition_oracle(pooled, head, tied):
    if head != "weighted-sum":
        tied = False
    if head in ("baseline", "concat"):
        pooled = [vecs[:1] for vecs in pooled]
    model = store_model(head, pooled, tied=tied)
    got = score_item(model, ragged_item(pooled))
    want_scores, want_weights = naive_scores(head, pooled, *head_params(model))
    np.testing.assert_allclose(got.scores, want_scores, rtol=1e-12, atol=1e-12)
    assert got.predicted == int(np.argmax(want_scores))
    if head == "weighted-sum":
        for got_w, want_w in zip(got.weights, want_weights):
            np.testing.assert_allclose(got_w, want_w, rtol=1e-12, atol=1e-12)
    else:
        assert got.weights is None


# (d, n) fixed per batch; each of 2-5 items draws 1-4 passages per option
ragged_batches = st.tuples(st.integers(2, 3), st.integers(2, 4)).flatmap(
    lambda dn: st.lists(
        st.tuples(
            st.lists(
                st.lists(
                    st.lists(st.floats(-3, 3), min_size=dn[0], max_size=dn[0]),
                    min_size=1, max_size=4,
                ),
                min_size=dn[1], max_size=dn[1],
            ),
            st.integers(0, dn[1] - 1),
        ),
        min_size=2, max_size=5,
    )
)


@settings(max_examples=60, deadline=None)
@given(ragged_batches, st.sampled_from(HEADS), st.booleans())
def test_batch_loss_matches_oracle_on_ragged_store_batch(batch, head, tied):
    if head != "weighted-sum":
        tied = False
    items = [
        ragged_item(pooled, item_id=f"it-{k}", gold=gold)
        for k, (pooled, gold) in enumerate(batch)
    ]
    model = store_model(head, batch[0][0], tied=tied)
    vectors = {}
    for item, (pooled, _) in zip(items, batch):
        vectors.update(store_vectors(pooled, item.id))
    model.encoder = ExternalVectorStore(vectors)

    losses = []
    for item, (pooled, _) in zip(items, batch):
        single = [vecs[:1] for vecs in pooled]  # what baseline and concat read
        scores, _ = naive_scores(
            head, single if head in ("baseline", "concat") else pooled, *head_params(model)
        )
        top = max(scores)
        log_z = top + math.log(sum(math.exp(s - top) for s in scores))
        losses.append(log_z - scores[item.gold])
    got = _batch_loss(model, items, frozen=True).item()
    assert abs(got - sum(losses) / len(losses)) <= 1e-12

    for item, (pooled, _) in zip(items, batch):
        out = score_item(model, item)
        if head == "weighted-sum":
            assert [len(row) for row in out.weights] == [len(vecs) for vecs in pooled]
        else:
            assert out.weights is None


# ---------------------------------------------------------------------------
# Hand-set arithmetic
# ---------------------------------------------------------------------------

def test_baseline_hand_case():
    model = store_model("baseline", [[[1.0, 0.0]], [[0.0, 1.0]]],
                        score_w=[1.0, 2.0], score_b=0.5)
    out = score_item(model, make_item(m=0))
    assert out.scores == (1.5, 2.5)
    assert out.predicted == 1


def test_parallel_max_hand_table():
    pooled = [
        [[1.0, 0.0], [0.0, 2.0]],   # scores 1.0, 4.0 -> 4.0
        [[1.0, 1.0], [-1.0, 0.0]],  # scores 3.0, -1.0 -> 3.0
    ]
    model = store_model("parallel-max", pooled, score_w=[1.0, 2.0], score_b=0.0)
    out = score_item(model, make_item())
    assert out.scores == (4.0, 3.0)
    assert out.predicted == 0


def test_simple_sum_hand_case():
    pooled = [[[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [-1.0, 0.0]]]
    model = store_model("simple-sum", pooled, score_w=[1.0, 2.0], score_b=0.25)
    out = score_item(model, make_item())
    assert out.scores == (1.0 + 4.0 + 0.25, 0.0 + 2.0 + 0.25)


def test_weighted_sum_tied_hand_case():
    # tied layer u=[1,0], bias 0; z = (0, ln 3) -> weights (1/4, 3/4)
    pooled = [[[0.0, 1.0], [math.log(3.0), 1.0]]] * 2
    model = store_model("weighted-sum", pooled, tied=True, score_w=[1.0, 0.0])
    out = score_item(model, make_item())
    np.testing.assert_allclose(out.weights[0], (0.25, 0.75), atol=1e-12)
    np.testing.assert_allclose(out.scores[0], 0.75 * math.log(3.0), atol=1e-12)


def test_zero_weights_score_equals_bias():
    for head in ("baseline", "parallel-max"):
        model = store_model(head, [[[1.0, 2.0]], [[3.0, 4.0]]],
                            score_w=[0.0, 0.0], score_b=7.5)
        out = score_item(model, make_item(m=1))
        assert out.scores == (7.5, 7.5)
        assert out.predicted == 0  # tie -> lowest index


def test_identical_options_tie_goes_low():
    model = store_model("baseline", [[[1.0, 1.0]], [[1.0, 1.0]]], score_w=[1.0, 1.0])
    out = score_item(model, make_item(m=0))
    assert out.scores[0] == out.scores[1]
    assert out.predicted == 0


# ---------------------------------------------------------------------------
# Head algebra
# ---------------------------------------------------------------------------

def tiny_encoder(seed=0, d=4):
    vocab = Vocab.from_texts(
        ["which one?", "opt0 opt1 opt2", "passage 0 1 2 3 alpha beta gamma delta"]
    )
    return EncoderModel.init(vocab, EncoderConfig(d=d, max_len=32), seed=seed)


def encoder_item(m=2, gold=0, texts=None):
    if texts is None:
        texts = [["alpha beta", "gamma delta"], ["beta gamma", "delta alpha"]]
    premises = [
        [KnowledgeSentence(id=f"{i}{j}", text=t) for j, t in enumerate(opt)]
        for i, opt in enumerate(texts)
    ]
    return McqItem(id="e-0", question="which one?", options=["opt0", "opt1"],
                   gold=gold, premises=[p[:m] for p in premises])


def test_m1_max_equals_simple_sum_bitwise():
    enc = tiny_encoder()
    mx = FusionModel(enc, "parallel-max", seed=3)
    sm = FusionModel(enc, "simple-sum", seed=3)
    item = encoder_item(m=1)
    assert score_item(mx, item).scores == score_item(sm, item).scores


def test_m1_weighted_sum_weight_is_exactly_one():
    model = FusionModel(tiny_encoder(), "weighted-sum", seed=3)
    out = score_item(model, encoder_item(m=1))
    assert out.weights == ((1.0,), (1.0,))


def test_concat_of_one_passage_equals_single_passage_heads():
    enc = tiny_encoder()
    cc = FusionModel(enc, "concat", seed=3)
    sm = FusionModel(enc, "simple-sum", seed=3)
    item = encoder_item(m=1)
    assert score_item(cc, item).scores == score_item(sm, item).scores


def test_empty_premises_concat_equals_baseline():
    enc = tiny_encoder()
    cc = FusionModel(enc, "concat", seed=5)
    bl = FusionModel(enc, "baseline", seed=5)
    bare = McqItem(id="e-1", question="which one?", options=["opt0", "opt1"], gold=0)
    assert score_item(cc, bare).scores == score_item(bl, bare).scores
    empty = McqItem(id="e-2", question="which one?", options=["opt0", "opt1"],
                    gold=0, premises=[[], []])
    assert score_item(cc, empty).scores == score_item(bl, empty).scores


def test_empty_premises_placeholder_makes_per_passage_heads_total():
    enc = tiny_encoder()
    item = McqItem(id="e-3", question="which one?", options=["opt0", "opt1"],
                   gold=0, premises=[[], []])
    for head in ("parallel-max", "simple-sum", "weighted-sum"):
        model = FusionModel(enc, head, seed=5)
        out = score_item(model, item)
        assert len(out.scores) == 2 and all(np.isfinite(out.scores))
    bl = FusionModel(enc, "baseline", seed=5)
    mx = FusionModel(enc, "parallel-max", seed=5)
    assert score_item(mx, item).scores == score_item(bl, item).scores


def test_duplicate_passage_leaves_max_unchanged():
    pooled = [[[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [-1.0, 0.0]]]
    dup = [vecs + [vecs[0]] for vecs in pooled]
    a = store_model("parallel-max", pooled, score_w=[1.0, 2.0])
    b = store_model("parallel-max", dup, score_w=[1.0, 2.0])
    assert (
        score_item(a, make_item(m=2)).scores == score_item(b, make_item(m=3)).scores
    )


@settings(max_examples=40, deadline=None)
@given(vec_lists, st.permutations(range(4)))
def test_permutation_invariance(pooled, perm):
    permuted = [
        [vecs[p] for p in perm if p < len(vecs)] for vecs in pooled
    ]
    for head in ("parallel-max", "simple-sum", "weighted-sum"):
        out_a = score_item(store_model(head, pooled), ragged_item(pooled))
        out_b = score_item(store_model(head, permuted), ragged_item(permuted))
        if head == "parallel-max":
            assert out_a.scores == out_b.scores
        else:
            np.testing.assert_allclose(out_a.scores, out_b.scores, atol=1e-9)
        if head == "weighted-sum":
            for row_a, row_b, vecs in zip(out_a.weights, out_b.weights, pooled):
                want = [row_a[p] for p in perm if p < len(vecs)]
                np.testing.assert_allclose(row_b, want, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(vec_lists)
def test_weighted_sum_weights_are_probabilities(pooled):
    model = store_model("weighted-sum", pooled)
    out = score_item(model, ragged_item(pooled))
    assert [len(row) for row in out.weights] == [len(v) for v in pooled]
    for row in out.weights:
        assert abs(sum(row) - 1.0) <= 1e-9
        assert all(w >= 0 for w in row)


def test_identical_passages_give_uniform_weights():
    pooled = [[[1.0, 2.0]] * 4, [[0.5, -1.0]] * 4]
    model = store_model("weighted-sum", pooled)
    out = score_item(model, make_item(m=4))
    for row in out.weights:
        np.testing.assert_allclose(row, [0.25] * 4, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(vec_lists)
def test_simple_sum_linearity_identity(pooled):
    # score(sum of vectors) == sum of per-vector linear parts + one bias
    model = store_model("simple-sum", pooled)
    out = score_item(model, ragged_item(pooled))
    w = model.score_w.data[:, 0]
    b = float(model.score_b.data[0])
    for i, vecs in enumerate(pooled):
        alt = sum(float(np.dot(w, v)) for v in vecs) + b
        np.testing.assert_allclose(out.scores[i], alt, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("head,tied", [(h, False) for h in HEADS] + [("weighted-sum", True)])
def test_bias_shift_moves_all_scores_never_prediction(head, tied):
    pooled = [[[1.0, 0.5], [0.2, 2.0]], [[1.0, 1.0], [-1.0, 0.4]]]
    if head in ("baseline", "concat"):
        pooled = [vecs[:1] for vecs in pooled]
    before = store_model(head, pooled, tied=tied)
    out_a = score_item(before, make_item(m=len(pooled[0])))
    after = store_model(head, pooled, tied=tied)
    after.score_b.data += 3.25
    out_b = score_item(after, make_item(m=len(pooled[0])))
    np.testing.assert_allclose(
        np.asarray(out_b.scores) - np.asarray(out_a.scores), 3.25, atol=1e-9
    )
    assert out_a.predicted == out_b.predicted


def test_tied_untied_agree_when_untied_copies_weight_layer():
    pooled = [[[1.0, 0.5], [0.2, 2.0]], [[1.0, 1.0], [-1.0, 0.4]]]
    tied = store_model("weighted-sum", pooled, tied=True, score_w=[0.3, -0.7], score_b=0.1)
    untied = store_model("weighted-sum", pooled, tied=False,
                         score_w=[0.3, -0.7], score_b=0.1,
                         weight_w=[0.3, -0.7], weight_b=0.1)
    item = make_item()
    a, b = score_item(tied, item), score_item(untied, item)
    assert a.scores == b.scores and a.weights == b.weights


def test_tied_weighted_sum_shares_storage():
    model = FusionModel(tiny_encoder(), "weighted-sum", tied=True)
    assert model.weight_w is model.score_w and model.weight_b is model.score_b
    assert set(model.parameters()) == {"score_w", "score_b"}
    untied = FusionModel(tiny_encoder(), "weighted-sum", tied=False)
    assert set(untied.parameters()) == {"score_w", "score_b", "weight_w", "weight_b"}


def test_model_validation():
    enc = tiny_encoder()
    with pytest.raises(FusionError, match="unknown head"):
        FusionModel(enc, "mean-pool")
    with pytest.raises(FusionError, match="no weight layer"):
        FusionModel(enc, "concat", tied=True)


def test_missing_store_key_errors():
    model = store_model("parallel-max", [[[1.0, 0.0]], [[0.0, 1.0]]])
    other = make_item(m=1, item_id="unknown-item")
    with pytest.raises(ExternalVectorError, match="no vector"):
        score_item(model, other)


def test_question_text_includes_context():
    item = McqItem(id="x", question="why?", options=["a", "b"], context="Some story.")
    assert question_text(item) == "Some story. why?"
    bare = McqItem(id="y", question="why?", options=["a", "b"])
    assert question_text(bare) == "why?"


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("head,tied", [(h, False) for h in HEADS] + [("weighted-sum", True)])
def test_grad_check_encoder_backed(head, tied):
    enc = tiny_encoder(seed=7, d=4)
    model = FusionModel(enc, head, seed=11, tied=tied)
    err = grad_check(model, encoder_item(m=2), step=1e-6)
    assert err < 1e-5


@pytest.mark.parametrize("head,tied", [(h, False) for h in HEADS] + [("weighted-sum", True)])
def test_grad_check_store_backed(head, tied):
    pooled = [[[0.4, -1.2, 0.7], [1.1, 0.3, -0.5]], [[-0.2, 0.8, 1.5], [0.6, -0.9, 0.1]]]
    if head in ("baseline", "concat"):
        pooled = [vecs[:1] for vecs in pooled]
    model = store_model(head, pooled, tied=tied)
    err = grad_check(model, make_item(m=len(pooled[0])), step=1e-6)
    assert err < 1e-5


def test_symmetric_options_have_exactly_zero_score_difference_gradient():
    # identical options with identical premises: the two score paths are the
    # same computation, so the gradient of their difference cancels exactly.
    # One passage per option keeps the embedding-scatter accumulation order
    # as +x then -x (exact in IEEE); with more passages the contributions
    # interleave and only cancel to rounding.
    enc = tiny_encoder(seed=7, d=4)
    model = FusionModel(enc, "simple-sum", seed=11)
    texts = [["alpha beta"]] * 2
    item = McqItem(id="sym", question="which one?", options=["opt0", "opt0"], gold=0,
                   premises=[[KnowledgeSentence(id=f"{i}{j}", text=t)
                              for j, t in enumerate(o)] for i, o in enumerate(texts)])
    scores, _, _ = _batch_scores(model, [item], frozen=False)
    diff = sub(scores[0:1, 0:1], scores[0:1, 1:2])
    for p in model.parameters().values():
        p.zero_grad()
    for p in enc.params.values():
        p.zero_grad()
    diff.backward()
    for p in {**model.parameters(), **enc.params}.values():
        if p.grad is not None:
            assert np.all(p.grad == 0.0)


def test_grad_check_rejects_non_finite_loss():
    model = store_model("baseline", [[[1.0, 0.0]], [[0.0, 1.0]]])
    model.score_w.data[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(FusionError, match="non-finite"):
        grad_check(model, make_item(m=0))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def separable_dataset(n_items=12, seed=0):
    """Every option string is unique, and the gold option's premise carries
    a shared marker token; both make a perfect scorer possible."""
    rng = np.random.default_rng(seed)
    items = []
    for k in range(n_items):
        gold = int(rng.integers(2))
        options = [f"red{k}", f"blue{k}"]
        premises = []
        for i in range(2):
            tag = "signal" if i == gold else "noise"
            premises.append([KnowledgeSentence(id=f"{k}{i}", text=f"{tag} fact {k}")])
        items.append(McqItem(id=f"toy-{k:03d}", question="pick the marked option",
                             options=options, gold=gold, premises=premises))
    return McqDataset(items=items)


def dataset_vocab(dataset):
    texts = []
    for it in dataset.items:
        texts.append(question_text(it))
        texts.extend(it.options)
        for plist in it.premises or []:
            texts.extend(p.text for p in plist)
    return Vocab.from_texts(texts)


def test_train_lr_zero_changes_nothing():
    ds = separable_dataset()
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "simple-sum", seed=1)
    before_head = {k: t.data.copy() for k, t in model.parameters().items()}
    before_enc = {k: t.data.copy() for k, t in enc.params.items()}
    acc_before = evaluate(model, ds).accuracy
    train(model, ds, TrainConfig(seed=0, lr=0.0, epochs=2, batch_size=4))
    for k, v in before_head.items():
        assert np.array_equal(v, model.parameters()[k].data)
    for k, v in before_enc.items():
        assert np.array_equal(v, enc.params[k].data)
    assert evaluate(model, ds).accuracy == acc_before


def test_train_requires_gold():
    enc = tiny_encoder()
    model = FusionModel(enc, "baseline", seed=1)
    ds = McqDataset(items=[McqItem(id="u", question="q?", options=["a", "b"])])
    with pytest.raises(FusionError, match="gold"):
        train(model, ds, TrainConfig(epochs=1))


def test_train_store_requires_frozen_encoder():
    model = store_model("baseline", [[[1.0, 0.0]], [[0.0, 1.0]]])
    ds = McqDataset(items=[make_item(m=0)])
    with pytest.raises(FusionError, match="freeze"):
        train(model, ds, TrainConfig(epochs=1))
    train(model, ds, TrainConfig(epochs=1, lr=0.1), freeze_encoder=True)  # head-only: fine


def test_train_store_fits_head():
    pooled = [[[1.0, 0.0]], [[0.0, 1.0]]]
    model = store_model("baseline", pooled, score_w=[0.0, 0.0])
    ds = McqDataset(items=[make_item(m=0, gold=1)])
    train(model, ds, TrainConfig(seed=0, lr=0.5, epochs=50, batch_size=1),
          freeze_encoder=True)
    assert evaluate(model, ds).accuracy == 1.0


def test_train_same_seed_identical_parameters():
    ds = separable_dataset()
    snaps = []
    for _ in range(2):
        enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=2)
        model = FusionModel(enc, "weighted-sum", seed=3, tied=True)
        train(model, ds, TrainConfig(seed=5, lr=0.05, epochs=3, batch_size=4))
        snaps.append(
            {**{k: t.data.copy() for k, t in model.parameters().items()},
             **{f"e.{k}": t.data.copy() for k, t in enc.params.items()}}
        )
    for k in snaps[0]:
        assert np.array_equal(snaps[0][k], snaps[1][k]), k


def test_frozen_encoder_stays_fixed_while_head_learns():
    ds = separable_dataset()
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "simple-sum", seed=1)
    before = {k: t.data.copy() for k, t in enc.params.items()}
    head_before = model.score_w.data.copy()
    train(model, ds, TrainConfig(seed=0, lr=0.2, epochs=3, batch_size=4),
          freeze_encoder=True)
    for k, v in before.items():
        assert np.array_equal(v, enc.params[k].data)
    assert not np.array_equal(head_before, model.score_w.data)


@pytest.mark.slow
@pytest.mark.parametrize("head,tied", [(h, False) for h in HEADS] + [("weighted-sum", True)])
def test_separable_task_reaches_95_percent(head, tied):
    ds = separable_dataset(n_items=50, seed=4)
    best = 0.0
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=8, max_len=32), seed=0)
    model = FusionModel(enc, head, seed=1, tied=tied)
    for _ in range(10):  # 10 x 20 = at most 200 epochs
        train(model, ds, TrainConfig(seed=9, lr=0.2, epochs=20, batch_size=10))
        best = max(best, evaluate(model, ds).accuracy)
        if best >= 0.95:
            break
    assert best >= 0.95, f"{head} tied={tied}: best accuracy {best}"


def test_train_stops_on_non_finite_loss(monkeypatch):
    # with the update-size stop off, lr=1e50 runs on until the loss overflows
    monkeypatch.setattr(ad, "MAX_UPDATE_RATIO", np.inf)
    corpus, dataset = make_planted_evidence_task(n_items=40, seed=0)
    attached = route_premises(dataset, corpus, m=1)
    enc = EncoderModel.init(training_vocab(attached), EncoderConfig(d=8), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    log = []
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="nan|inf"):
        train(model, attached, TrainConfig(seed=2, lr=1e50, epochs=3, batch_size=8),
              loss_log=log)
    assert log and all(np.isfinite(log))


def test_train_stops_on_an_update_that_dwarfs_the_parameters():
    corpus, dataset = make_planted_evidence_task(n_items=40, seed=0)
    attached = route_premises(dataset, corpus, m=1)
    enc = EncoderModel.init(training_vocab(attached), EncoderConfig(d=8), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    before = {k: v.tobytes() for k, v in all_parameters(model).items()}
    log = []
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="parameters' norm"):
        train(model, attached, TrainConfig(seed=2, lr=1e50, epochs=3, batch_size=8),
              loss_log=log)
    assert len(log) == 1  # the first step stops it, before the loss overflows
    assert {k: v.tobytes() for k, v in all_parameters(model).items()} == before


def test_train_loss_decreases():
    ds = separable_dataset(n_items=12)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=8, max_len=32), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    log = []
    train(model, ds, TrainConfig(seed=0, lr=0.2, epochs=20, batch_size=12), loss_log=log)
    assert log[-1] < log[0]


def oracle_train(model, dataset, config, freeze_encoder=False, loss_log=None):
    """``train``'s own minibatch loop from before ``autodiff.sgd_epoch``: the reference."""
    params = dict(model.parameters())
    if isinstance(model.encoder, EncoderModel) and not freeze_encoder:
        params.update({f"enc.{k}": v for k, v in model.encoder.params.items()})
    opt = SGD(params, lr=config.lr, momentum=config.momentum)
    rng = np.random.default_rng(config.seed)
    items = dataset.items
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(len(items))
            for lo in range(0, len(order), config.batch_size):
                batch = [items[i] for i in order[lo : lo + config.batch_size]]
                loss = _batch_loss(model, batch, freeze_encoder)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(f"training loss became {value!r}")
                if loss_log is not None:
                    loss_log.append(value)
                opt.zero_grad()
                loss.backward()
                opt.step()
    return model


def all_parameters(model):
    params = {k: t.data.copy() for k, t in model.parameters().items()}
    if isinstance(model.encoder, EncoderModel):
        params.update({f"enc.{k}": t.data.copy() for k, t in model.encoder.params.items()})
    return params


def assert_same_training(make_model, dataset, config, frozen):
    """``train`` and ``oracle_train`` leave bitwise-equal parameters and loss logs."""
    runs = []
    for fit in (train, oracle_train):
        model, log = make_model(), []
        fit(model, dataset, config, freeze_encoder=frozen, loss_log=log)
        runs.append((all_parameters(model), log))
    (params, log), (oracle_params, oracle_log) = runs
    assert log == oracle_log
    assert len(log) == config.epochs * math.ceil(len(dataset) / config.batch_size)
    assert params.keys() == oracle_params.keys()
    for k in params:
        assert params[k].tobytes() == oracle_params[k].tobytes(), k


@pytest.mark.parametrize("frozen", [False, True])
def test_train_matches_oracle_loop_encoder_backed(frozen):
    ds = separable_dataset(n_items=12)
    vocab = dataset_vocab(ds)

    def make_model():
        enc = EncoderModel.init(vocab, EncoderConfig(d=4, max_len=32), seed=2)
        return FusionModel(enc, "weighted-sum", seed=3)

    # 12 items in batches of 5: the last batch of each epoch is ragged
    assert_same_training(make_model, ds, TrainConfig(seed=5, lr=0.1, epochs=3, batch_size=5),
                         frozen)


def test_train_matches_oracle_loop_store_backed():
    rng = np.random.default_rng(4)
    items, vectors = [], {}
    for k in range(7):
        pooled = rng.normal(size=(2, 2, 3)).tolist()
        items.append(ragged_item(pooled, item_id=f"it-{k}", gold=k % 2))
        vectors.update(store_vectors(pooled, f"it-{k}"))
    store = ExternalVectorStore(vectors)
    assert_same_training(lambda: FusionModel(store, "weighted-sum", seed=1),
                         McqDataset(items=items),
                         TrainConfig(seed=6, lr=0.3, epochs=4, batch_size=3), frozen=True)


def counting_build_sequence(monkeypatch) -> list:
    """Record every call of the ``build_sequence`` that fusion looks up."""
    calls, real = [], fusion.build_sequence

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fusion, "build_sequence", counted)
    return calls


def sequence_count(head, items):
    return sum(len(_passages(head, it, i)) for it in items for i in range(it.n))


@pytest.mark.parametrize("head", ["concat", "parallel-max"])
def test_train_encodes_each_sequence_once_per_call(monkeypatch, head):
    corpus, dataset = make_planted_evidence_task(n_items=12, seed=0)
    attached = route_premises(dataset, corpus, m=3)
    vocab = training_vocab(attached)

    def run():
        model = FusionModel(EncoderModel.init(vocab, EncoderConfig(d=4), seed=0), head, seed=1)
        train(model, attached, TrainConfig(seed=2, lr=0.1, epochs=3, batch_size=5))
        return {k: v.tobytes() for k, v in all_parameters(model).items()}

    with monkeypatch.context() as mp:
        calls = counting_build_sequence(mp)
        counted = run()
    # every (item, option, passage) sequence once, not once per epoch
    assert len(calls) == sequence_count(head, attached.items)
    assert counted == run()


def test_grad_check_encodes_its_probe_once(monkeypatch):
    model = FusionModel(tiny_encoder(seed=7, d=4), "parallel-max", seed=11)
    item = encoder_item(m=2)
    calls = counting_build_sequence(monkeypatch)
    assert grad_check(model, item, step=1e-6) < 1e-5
    assert len(calls) == sequence_count("parallel-max", [item]) == 4


# ---------------------------------------------------------------------------
# The fused autodiff primitives against the composed graphs they replaced
# ---------------------------------------------------------------------------

def test_weighted_sum_tape_keeps_its_fused_size():
    # 17 parameters and 32 operations; the composed graphs take 81: 80 for
    # the block at every position, plus the query gather
    ds = separable_dataset()
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=2)
    model = FusionModel(enc, "weighted-sum", seed=3)
    assert len(tape(_batch_loss(model, ds.items[:5], frozen=False))) <= 49
    with composed_graphs():
        assert len(tape(_batch_loss(model, ds.items[:5], frozen=False))) == 81


@pytest.mark.parametrize("head,tied", [(h, False) for h in HEADS] + [("weighted-sum", True)])
@pytest.mark.parametrize("frozen", [False, True])
def test_train_is_bitwise_the_composed_graphs(head, tied, frozen):
    ds = separable_dataset(n_items=12)
    vocab = dataset_vocab(ds)

    def run():
        enc = EncoderModel.init(vocab, EncoderConfig(d=4, max_len=32), seed=2)
        model, log = FusionModel(enc, head, seed=3, tied=tied), []
        train(model, ds, TrainConfig(seed=5, lr=0.1, epochs=2, batch_size=5),
              freeze_encoder=frozen, loss_log=log)
        return log, {k: v.tobytes() for k, v in all_parameters(model).items()}

    fused, oracle = fused_and_composed(run)
    assert fused == oracle


def test_diverging_train_stops_where_the_composed_graphs_stop(monkeypatch):
    monkeypatch.setattr(ad, "MAX_UPDATE_RATIO", np.inf)  # so the run overflows
    corpus, dataset = make_planted_evidence_task(n_items=40, seed=0)
    attached = route_premises(dataset, corpus, m=1)
    vocab = training_vocab(attached)

    def run():
        model, log = FusionModel(EncoderModel.init(vocab, EncoderConfig(d=8), seed=0),
                                 "concat", seed=1), []
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as caught:
            train(model, attached, TrainConfig(seed=2, lr=1e50, epochs=3, batch_size=8),
                  loss_log=log)
        return str(caught.value), log

    fused, oracle = fused_and_composed(run)
    assert fused == oracle


# ---------------------------------------------------------------------------
# Predictions file
# ---------------------------------------------------------------------------

def test_save_predictions_structure(tmp_path):
    pooled = [[[1.0, 0.0], [0.2, 0.1]], [[0.0, 1.0], [0.4, 0.3]]]
    model = store_model("weighted-sum", pooled)
    ds = McqDataset(items=[make_item(m=2, gold=1)])
    path = tmp_path / "preds.jsonl"
    save_predictions(model, ds, path)
    recs = [json.loads(x) for x in path.read_text().splitlines()]
    assert len(recs) == 1
    rec = recs[0]
    assert set(rec) == {"item", "scores", "weights", "predicted", "gold"}
    assert rec["item"] == "it-0" and rec["gold"] == 1
    assert len(rec["scores"]) == 2 and len(rec["weights"]) == 2
    out = score_item(model, ds.items[0])
    assert rec["predicted"] == out.predicted
    np.testing.assert_allclose(rec["scores"], out.scores)


def test_save_predictions_weights_null_for_other_heads(tmp_path):
    model = store_model("baseline", [[[1.0, 0.0]], [[0.0, 1.0]]])
    ds = McqDataset(items=[make_item(m=0)])
    save_predictions(model, ds, tmp_path / "p.jsonl")
    rec = json.loads((tmp_path / "p.jsonl").read_text())
    assert rec["weights"] is None


def test_save_predictions_deterministic_bytes(tmp_path):
    pooled = [[[1.0, 0.0]], [[0.0, 1.0]]]
    ds = McqDataset(items=[make_item(m=1, gold=0)])
    for name in ("a", "b"):
        save_predictions(store_model("simple-sum", pooled), ds, tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------

ALL_VARIANTS = [(h, False) for h in HEADS] + [("weighted-sum", True)]


@pytest.mark.parametrize("head,tied", ALL_VARIANTS)
def test_model_checkpoint_round_trip(head, tied, tmp_path):
    ds = separable_dataset(n_items=4)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=6, max_len=32), seed=0)
    model = FusionModel(enc, head, seed=1, tied=tied)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.head == head
    assert loaded.tied == tied
    for item in ds.items:
        assert score_item(loaded, item).scores == score_item(model, item).scores
    for name, tensor in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name].data, tensor.data)
    np.testing.assert_array_equal(
        loaded.encoder.params["emb"].data, enc.params["emb"].data
    )


@pytest.mark.parametrize("head,tied", ALL_VARIANTS)
def test_model_save_load_save_reproduces_the_file(head, tied, tmp_path):
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(FusionModel(enc, head, seed=1, tied=tied), first)
    save_model(load_model(first), second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("head,flag", [("weighted-sum", 2), ("concat", 1)])
def test_model_checkpoint_rejects_a_bad_tied_flag(head, flag, tmp_path):
    # the payload starts with the head column (count, length, bytes), then the flag
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    path = tmp_path / "m.bin"
    save_model(FusionModel(enc, head, seed=1), path)
    path.write_bytes(patched(path.read_bytes(), 8 + len(head), flag.to_bytes(4, "little")))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: tied flag {flag}")):
        load_model(path)


def test_model_checkpoint_rejects_a_vocab_without_special_tokens(tmp_path):
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    path = tmp_path / "m.bin"
    save_model(FusionModel(enc, "concat", seed=1), path)
    at = unframe(path.read_bytes())[2].index(b"<pad>")
    path.write_bytes(patched(path.read_bytes(), at, b"<PAD>"))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: vocabulary must start with the special tokens")):
        load_model(path)


def test_model_checkpoint_v1_rejected_with_rebuild_hint(tmp_path):
    v1 = b"KFUS" + (1).to_bytes(4, "little") + (6).to_bytes(4, "little") + b"concat"
    # Version 2: the version 3 frame with the encoder's layer-norm epsilon
    # and init scale as <f8 after its d and max_len.
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    save_model(FusionModel(enc, "concat", seed=1), tmp_path / "v3.bin")
    payload = unframe((tmp_path / "v3.bin").read_bytes())[2]
    at = 20 + len("concat")  # after the head, the tied flag, d and max_len
    v2 = frame(b"KFUS", 2, payload[:at] + struct.pack("<dd", 1e-12, 0.1) + payload[at:])
    for version, data in [(1, v1), (2, v2)]:
        path = tmp_path / f"v{version}.bin"
        path.write_bytes(data)
        with pytest.raises(CheckpointError,
                           match=f"version {version} .*rebuild the model with train"):
            load_model(path)


def test_model_checkpoint_tied_shares_storage(tmp_path):
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "weighted-sum", seed=1, tied=True)
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    assert loaded.weight_w is loaded.score_w
    assert loaded.weight_b is loaded.score_b


def test_model_checkpoint_deterministic_bytes(tmp_path):
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    save_model(model, tmp_path / "a.bin")
    save_model(model, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_model_checkpoint_rejects_store_backed(tmp_path):
    store = ExternalVectorStore({("it", 0, None): np.zeros(3), ("it", 1, None): np.ones(3)})
    model = FusionModel(store, "baseline", seed=0)
    with pytest.raises(FusionError, match="external vector store"):
        save_model(model, tmp_path / "m.bin")


def test_model_checkpoint_rejects_corruption(tmp_path):
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    model = FusionModel(enc, "concat", seed=1)
    path = tmp_path / "m.bin"
    save_model(model, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_model(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(truncated)

    trailing = tmp_path / "long.bin"
    trailing.write_bytes(raw + b"\0")
    with pytest.raises(CheckpointError, match="trailing"):
        load_model(trailing)

    with pytest.raises(CheckpointError, match="cannot read"):
        load_model(tmp_path / "missing.bin")


def saved_concat_model(path):
    """``path`` after saving a concat model to it."""
    ds = separable_dataset(n_items=2)
    enc = EncoderModel.init(dataset_vocab(ds), EncoderConfig(d=4, max_len=32), seed=0)
    save_model(FusionModel(enc, "concat", seed=1), path)
    return path


def two_head_names(data: bytes) -> bytes:
    """A KFUS frame whose head column (count, lengths, bytes) holds its head twice."""
    magic, version, payload = unframe(data)
    (n, length), rest = struct.unpack_from("<II", payload), payload[8:]
    assert n == 1
    head, rest = rest[:length], rest[length:]
    return frame(magic, version, struct.pack("<III", 2, length, length) + head + head + rest)


# Each frame is valid, so the payload check fires, not the checksum.
@pytest.mark.parametrize("damage, message", [
    (lambda data: frame(*unframe(data)[:2], unframe(data)[2][:-8]),
     "a field runs past the end of the model payload"),
    (lambda data: frame(*unframe(data)[:2], unframe(data)[2] + b"\0"),
     "trailing bytes after the last field of the model payload"),
    (lambda data: patched(data, unframe(data)[2].index(b"score_w"), b"score_x"),
     "unexpected head parameter set ['score_b', 'score_x']"),
    (lambda data: patched(data, 8, b"concot"), "unknown head kind 'concot'"),
    (two_head_names, "unknown head kind ['concat', 'concat']"),
], ids=["cut", "trailing", "renamed-parameter", "renamed-head", "two-heads"])
def test_model_checkpoint_payload_checks_name_the_file(tmp_path, damage, message):
    path = saved_concat_model(tmp_path / "m.bin")
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_model(path)
