"""Encoder tests.

The forward pass is checked against ``naive_encode`` below, a from-scratch
single-sequence reimplementation that shares no code with the package
(plain numpy, explicit per-position loops).  Gradients are checked against
central finite differences.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kiqa import autodiff as ad
from kiqa.autodiff import SGD, DivergenceError, Tensor, cross_entropy, no_grad
from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence
from kiqa.encoder import (
    LN_EPS,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    START,
    UNK,
    CheckpointError,
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    Vocab,
    build_sequence,
    encoder_tokens,
    load_encoder,
    mlm_batch_loss,
    pad_batch,
    revision_train,
    save_encoder,
)

from composed import (
    composed_graphs,
    div,
    full_hidden_states,
    fused_and_composed,
    log_softmax,
    neg,
    tape,
)
from frames import MARK, frame, replace_f8, unframe


# ---------------------------------------------------------------------------
# Independent forward oracle
# ---------------------------------------------------------------------------

def naive_layer_norm(row, gamma, beta, eps):
    mu = sum(row) / len(row)
    var = sum((x - mu) ** 2 for x in row) / len(row)
    return [(x - mu) / np.sqrt(var + eps) * g + b for x, g, b in zip(row, gamma, beta)]


def naive_encode(params, ids, pad_id, eps):
    """Pooled vector for one unbatched id sequence, built position by position."""
    L = len(ids)
    d = params["emb"].shape[1]
    x = [list(params["emb"][i]) for i in ids]

    def matvec(w, row):  # row (d,) @ w (d, out)
        return [sum(row[i] * w[i, o] for i in range(len(row))) for o in range(w.shape[1])]

    q = [matvec(params["att_wq"], r) for r in x]
    k = [matvec(params["att_wk"], r) for r in x]
    v = [matvec(params["att_wv"], r) for r in x]
    out = []
    for i in range(L):
        scores = []
        for j in range(L):
            s = sum(q[i][t] * k[j][t] for t in range(d)) / np.sqrt(d)
            scores.append(s - 1e30 if ids[j] == pad_id else s)
        m = max(scores)
        e = [np.exp(s - m) for s in scores]
        z = sum(e)
        ctx = [sum(e[j] / z * v[j][t] for j in range(L)) for t in range(d)]
        proj = matvec(params["att_wo"], ctx)
        h1 = naive_layer_norm(
            [a + b for a, b in zip(x[i], proj)],
            params["ln1_gamma"], params["ln1_beta"], eps,
        )
        hid = matvec(params["ffn_w1"], h1)
        hid = [np.tanh(a + b) for a, b in zip(hid, params["ffn_b1"])]
        ffn = matvec(params["ffn_w2"], hid)
        ffn = [a + b for a, b in zip(ffn, params["ffn_b2"])]
        out.append(naive_layer_norm(
            [a + b for a, b in zip(h1, ffn)],
            params["ln2_gamma"], params["ln2_beta"], eps,
        ))
    return np.array(out[0])


def small_model(seed=0, d=4, extra_words=("alpha", "beta", "gamma", "delta")):
    vocab = Vocab(list(SPECIAL_TOKENS) + list(extra_words))
    return EncoderModel.init(vocab, EncoderConfig(d=d, max_len=16), seed=seed)


def every_column(ids):
    """(B, L) query columns that ask ``hidden_states`` for every position."""
    return np.broadcast_to(np.arange(ids.shape[1]), ids.shape)


# ---------------------------------------------------------------------------
# Vocab
# ---------------------------------------------------------------------------

def test_vocab_from_texts_sorts_words():
    v = Vocab.from_texts(["the cat", "a cat sat"])
    assert v.tokens == list(SPECIAL_TOKENS) + ["a", "cat", "sat", "the"]
    assert v.id_of("cat") == v.first_word_id + 1
    assert v.id_of("zebra") == v.id_of(UNK)


def test_vocab_special_ids_fixed():
    v = Vocab.from_texts(["x"])
    assert (v.pad_id, v.id_of(START), v.id_of(SEP), v.mask_id, v.id_of(UNK)) == (0, 1, 2, 3, 4)
    assert v.tokens[v.mask_id] == MASK


def test_vocab_rejects_missing_specials():
    with pytest.raises(ValueError):
        Vocab(["a", "b"])


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocab(list(SPECIAL_TOKENS) + ["a", "a"])


def test_encoder_tokens_is_whitespace_lowercase():
    assert encoder_tokens("The  Cat's\tmat.") == ["the", "cat's", "mat."]


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_matches_naive_oracle():
    for seed in range(5):
        model = small_model(seed=seed)
        rng = np.random.default_rng(seed + 100)
        L = int(rng.integers(1, 8))
        ids = rng.integers(1, len(model.vocab), size=(1, L))
        got = model.encode_ids(ids).data[0]
        raw = {k: t.data for k, t in model.params.items()}
        want = naive_encode(raw, list(ids[0]), model.vocab.pad_id, LN_EPS)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_forward_oracle_with_padding():
    model = small_model(seed=3)
    ids = np.array([[1, 5, 6, 0, 0]])
    got = model.encode_ids(ids).data[0]
    want = naive_encode(
        {k: t.data for k, t in model.params.items()},
        [1, 5, 6, 0, 0], model.vocab.pad_id, LN_EPS,
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_padding_does_not_change_pooled_vector():
    # bitwise: padded keys contribute exp(-inf-ish) == +0.0 to attention and
    # the softmax denominator is a matmul, which (unlike ndarray.sum's
    # pairwise accumulation) is unchanged by trailing zero terms
    model = small_model(seed=1)
    short = np.array([[1, 5, 7, 2]])
    for extra in (1, 3, 9):
        padded = np.hstack([short, np.zeros((1, extra), dtype=np.int64)])
        a = model.encode_ids(short).data
        b = model.encode_ids(padded).data
        assert np.array_equal(a, b)


def test_batch_rows_independent():
    model = small_model(seed=2)
    a = np.array([[1, 5, 2]])
    b = np.array([[1, 6, 6, 7, 2]])
    batch = pad_batch([a[0], b[0]], model.vocab.pad_id)
    together = model.encode_ids(batch).data
    assert np.array_equal(together[0], model.encode_ids(a).data[0])
    assert np.array_equal(together[1], model.encode_ids(b).data[0])


def test_hidden_states_are_normalized_at_init():
    # final layer norm has unit gain and zero shift at init, so every
    # position's vector has mean 0 and variance 1 (up to the tiny epsilon)
    model = small_model(seed=4, d=16)
    ids = np.array([[1, 5, 6, 7, 8, 2], [1, 8, 5, 2, 0, 0]])
    h = model.hidden_states(ids, every_column(ids)).data
    np.testing.assert_allclose(h.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(h.var(axis=-1), 1.0, atol=1e-9)


def test_d1_forward_collapses_to_shift():
    # with d == 1 layer norm centers every scalar to zero, so the output is
    # exactly ln2_beta no matter the input — a closed-form sanity anchor
    model = small_model(seed=0, d=1)
    model.params["ln2_beta"].data[:] = 0.625
    for ids in ([[1, 5]], [[1, 6, 7, 8, 2]]):
        out = model.encode_ids(np.array(ids)).data
        np.testing.assert_array_equal(out, np.full((1, 1), 0.625))


def test_hidden_states_rejects_bad_shapes():
    model = small_model()
    with pytest.raises(ValueError):
        model.hidden_states(np.zeros((2, 0), dtype=np.int64), np.zeros((2, 1), dtype=np.intp))
    with pytest.raises(ValueError):
        ids = np.zeros((1, 17), dtype=np.int64)
        model.hidden_states(ids, every_column(ids))


def test_forward_is_deterministic():
    a = small_model(seed=9)
    b = small_model(seed=9)
    ids = np.array([[1, 5, 6, 2]])
    assert np.array_equal(a.encode_ids(ids).data, b.encode_ids(ids).data)


def test_init_seed_changes_weights():
    a = small_model(seed=0)
    b = small_model(seed=1)
    assert not np.array_equal(a.params["emb"].data, b.params["emb"].data)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def encoder_loss(model, ids):
    return (model.encode_ids(ids) * Tensor(_probe(ids, model.config.d))).sum()


def _probe(ids, d):
    rng = np.random.default_rng(ids.sum())
    return rng.normal(size=(ids.shape[0], d))


@pytest.mark.parametrize("name", sorted(EncoderModel.PARAM_SHAPES))
def test_gradients_match_finite_differences(name):
    model = small_model(seed=11, d=4)
    ids = np.array([[1, 5, 6, 2], [1, 7, 2, 0]])
    loss = encoder_loss(model, ids)
    for p in model.params.values():
        p.zero_grad()
    loss.backward()
    got = model.params[name].grad
    assert got is not None

    data = model.params[name].data
    flat = data.reshape(-1)
    num = np.zeros_like(flat)
    eps = 1e-6
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = encoder_loss(model, ids).item()
            flat[i] = keep - eps
            lo = encoder_loss(model, ids).item()
            flat[i] = keep
            num[i] = (hi - lo) / (2 * eps)
    num = num.reshape(data.shape)
    # mixed criterion: the attention projections have ~1e-4 gradient norms at
    # init (near-uniform attention), where FD cancellation noise dominates a
    # purely relative comparison
    diff = np.linalg.norm(got - num)
    scale = max(np.linalg.norm(got), np.linalg.norm(num))
    assert diff <= 1e-8 + 1e-7 * scale


def test_mlm_loss_gradient_reaches_embeddings():
    model = small_model(seed=12, d=4)
    ids = np.array([[1, 5, 6, 7, 2]])
    mask = np.array([[False, True, False, True, False]])
    loss = mlm_batch_loss(model, ids, mask)
    loss.backward()
    emb = model.params["emb"]
    assert emb.grad is not None and np.abs(emb.grad).sum() > 0

    eps = 1e-6
    flat = emb.data.reshape(-1)
    i = 5 * model.config.d  # first weight of a masked token's row
    with no_grad():
        keep = flat[i]
        flat[i] = keep + eps
        hi = mlm_batch_loss(model, ids, mask).item()
        flat[i] = keep - eps
        lo = mlm_batch_loss(model, ids, mask).item()
        flat[i] = keep
    assert abs(emb.grad.reshape(-1)[i] - (hi - lo) / (2 * eps)) < 1e-6


def dense_mlm_loss(model, ids, mask):
    """Oracle: the masked-token loss as first written, with (B, L, V) logits
    and a one-hot of the same size picking the gold log-probabilities."""
    masked_ids = np.where(mask, model.vocab.mask_id, ids)
    logits = full_hidden_states(model, masked_ids) @ model.params["emb"].swap_last_axes()
    logp = log_softmax(logits, axis=-1)
    onehot = np.zeros((*ids.shape, len(model.vocab)))
    rows, cols = np.nonzero(mask)
    onehot[rows, cols, ids[rows, cols]] = 1.0
    return div(neg((logp * Tensor(onehot)).sum()), Tensor(len(rows)))


def _loss_and_grads(loss_fn, model, ids, mask):
    for p in model.params.values():
        p.zero_grad()
    loss = loss_fn(model, ids, mask)
    loss.backward()
    return loss.item(), {name: p.grad.copy() for name, p in model.params.items()}


def _ragged_masked_batch(rng, vocab, max_words=6):
    """Padded [start] words [sep] rows of random lengths; at least one masked word."""
    seqs = [
        np.concatenate([[vocab.id_of(START)],
                        rng.integers(vocab.first_word_id, len(vocab), size=n),
                        [vocab.id_of(SEP)]])
        for n in rng.integers(1, max_words + 1, size=rng.integers(1, 5))
    ]
    ids = pad_batch(seqs, vocab.pad_id)
    maskable = ids >= vocab.first_word_id
    mask = (rng.random(ids.shape) < rng.uniform(0.1, 0.6)) & maskable
    if not mask.any():
        rows, cols = np.nonzero(maskable)
        pick = rng.integers(len(rows))
        mask[rows[pick], cols[pick]] = True
    return ids, mask


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mlm_loss_matches_dense_one_hot_oracle(seed):
    rng = np.random.default_rng(seed)
    words = tuple(f"w{i}" for i in range(int(rng.integers(1, 30))))
    model = small_model(seed=seed % 97, d=int(rng.integers(1, 6)), extra_words=words)
    ids, mask = _ragged_masked_batch(rng, model.vocab)
    want, want_grads = _loss_and_grads(dense_mlm_loss, model, ids, mask)
    got, got_grads = _loss_and_grads(mlm_batch_loss, model, ids, mask)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    for name, grad in want_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-12, err_msg=name)


def test_mlm_tape_holds_logits_only_at_masked_positions():
    model = small_model(seed=5, d=4, extra_words=tuple(f"w{i}" for i in range(60)))
    V = len(model.vocab)
    ids, mask = _ragged_masked_batch(np.random.default_rng(8), model.vocab)
    B, L = ids.shape
    M = int(mask.sum())
    assert M not in (0, model.config.d)
    nodes = tape(mlm_batch_loss(model, ids, mask))
    assert all(node.data.size != B * L * V for node in nodes)
    # the logits are the product with the transposed (d, V) embeddings
    logits = [n for n in nodes if any(p.shape == (model.config.d, V) for p in n._parents)]
    assert [n.shape for n in logits] == [(M, V)]


def test_mlm_tape_keeps_its_fused_size():
    # 13 parameters and 23 operations; attention softmax (with its scaling),
    # both layer norms and the loss are one node each.  The composed graphs
    # take 65: 64 for the block at every position, plus the query gather.
    model = small_model(seed=5, d=4, extra_words=tuple(f"w{i}" for i in range(60)))
    ids, mask = _ragged_masked_batch(np.random.default_rng(8), model.vocab)
    assert len(tape(mlm_batch_loss(model, ids, mask))) <= 36
    with composed_graphs():
        assert len(tape(mlm_batch_loss(model, ids, mask))) == 65


# ---------------------------------------------------------------------------
# The query side against the block run at every position
# ---------------------------------------------------------------------------

@st.composite
def query_batches(draw):
    """(d, row lengths, (B, Q) query columns, seed): ragged rows padded to
    the longest, queries that repeat and that land on padding."""
    d = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    width = draw(st.integers(1, 4))
    column = st.integers(0, max(lengths) - 1)
    row = st.lists(column, min_size=width, max_size=width)
    queries = draw(st.lists(row, min_size=len(lengths), max_size=len(lengths)))
    return d, lengths, np.array(queries), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(query_batches())
@example((1, [3, 1], np.array([[2, 0, 2], [1, 1, 0]]), 0))  # d = 1; padded and repeated
@example((3, [1, 1], np.array([[0], [0]]), 1))  # L = 1
def test_query_side_matches_the_full_position_block(batch):
    d, lengths, queries, seed = batch
    rng = np.random.default_rng(seed)
    model = small_model(seed=seed % 97, d=d)
    vocab = model.vocab
    ids = pad_batch([np.concatenate([[vocab.id_of(START)],
                                     rng.integers(vocab.mask_id, len(vocab), size=n - 1)])
                     for n in lengths], vocab.pad_id)
    probe = Tensor(rng.normal(size=(*queries.shape, d)))

    def value_and_grads(hidden_states):
        for p in model.params.values():
            p.zero_grad()
        hidden = hidden_states()
        (hidden * probe).sum().backward()
        return hidden.data, {name: p.grad for name, p in model.params.items()}

    got, got_grads = value_and_grads(lambda: model.hidden_states(ids, queries))
    want, want_grads = value_and_grads(
        lambda: full_hidden_states(model, ids)[np.arange(len(ids))[:, None], queries])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for name, grad in want_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=0, atol=1e-12, err_msg=name)


def test_query_side_tapes_hold_no_full_width_feed_forward():
    # the feed-forward's (d -> 4d) activations exist at the queried columns
    # only: column 0 for the pooled vector, the masked columns for the loss
    model = small_model(seed=5, d=4, extra_words=tuple(f"w{i}" for i in range(60)))
    ids, mask = _ragged_masked_batch(np.random.default_rng(8), model.vocab)
    (B, L), h = ids.shape, 4 * model.config.d
    widest = int(mask.sum(axis=1).max())
    assert 1 < widest < L
    pooled = (model.encode_ids(ids) * Tensor(_probe(ids, model.config.d))).sum()
    for loss, queried in ((pooled, 1), (mlm_batch_loss(model, ids, mask), widest)):
        shapes = [node.shape for node in tape(loss)]
        assert (B, L, h) not in shapes
        assert (B, queried, h) in shapes


def test_hidden_states_rejects_bad_queries():
    model = small_model()
    ids = np.array([[1, 5, 6, 2], [1, 7, 2, 0]])
    assert model.hidden_states(ids, np.array([[3], [0]])).shape == (2, 1, model.config.d)
    for queries in ([[0, 1]], [0, 1], [[], []], [[0], [4]], [[-1], [0]]):
        with pytest.raises(ValueError, match="queries"):
            model.hidden_states(ids, np.array(queries, dtype=np.intp))


# ---------------------------------------------------------------------------
# The fused autodiff primitives against the composed graphs they replaced
# ---------------------------------------------------------------------------

def grad_bytes(params):
    return {name: p.grad.tobytes() for name, p in params.items() if p.grad is not None}


@pytest.mark.parametrize("rows", [
    [[1, 5, 6, 7, 2], [1, 8, 6, 5, 2]],
    # padded rows, the last with every key but the first masked
    [[1, 5, 6, 7, 2], [1, 8, 2, 0, 0], [1, 0, 0, 0, 0]],
], ids=["unpadded", "padded"])
def test_hidden_states_are_bitwise_the_composed_graphs(rows):
    ids = np.array(rows)
    probe = np.random.default_rng(0).normal(size=(*ids.shape, 4))  # upstream of both signs

    def run():
        model = small_model(seed=13, d=4)
        hidden = model.hidden_states(ids, every_column(ids))
        (hidden * Tensor(probe)).sum().backward()
        return hidden.data.tobytes(), grad_bytes(model.params)

    fused, oracle = fused_and_composed(run)
    assert fused == oracle


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mlm_batch_loss_is_bitwise_the_composed_graphs(seed):
    def run():
        rng = np.random.default_rng(seed)
        words = tuple(f"w{i}" for i in range(int(rng.integers(1, 30))))
        model = small_model(seed=seed % 97, d=int(rng.integers(1, 6)), extra_words=words)
        loss = mlm_batch_loss(model, *_ragged_masked_batch(rng, model.vocab))
        loss.backward()
        return loss.data.tobytes(), grad_bytes(model.params)

    fused, oracle = fused_and_composed(run)
    assert fused == oracle


@pytest.mark.parametrize("paragraphs", [False, True])
def test_revision_train_is_bitwise_the_composed_graphs(paragraphs):
    def run():
        model, log = small_model(seed=22), []
        revision_train(model, toy_corpus(paragraphs=paragraphs),
                       TrainConfig(seed=3, lr=0.05, epochs=4, batch_size=4), loss_log=log)
        return log, {k: t.data.tobytes() for k, t in model.params.items()}

    fused, oracle = fused_and_composed(run)
    assert fused == oracle


def test_diverging_revision_stops_where_the_composed_graphs_stop(monkeypatch):
    # with the update-size stop off, the run overflows within a few steps;
    # the replayed arithmetic must too
    monkeypatch.setattr(ad, "MAX_UPDATE_RATIO", np.inf)

    def run():
        model, log = small_model(seed=22), []
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as caught:
            revision_train(model, toy_corpus(), TrainConfig(seed=3, lr=1e50, epochs=5),
                           loss_log=log)
        return str(caught.value), log, {k: t.data.tobytes() for k, t in model.params.items()}

    fused, oracle = fused_and_composed(run)
    assert fused == oracle


# ---------------------------------------------------------------------------
# Sequence assembly
# ---------------------------------------------------------------------------

def test_build_sequence_basic_layout():
    seq = build_sequence("", "q", "a")
    assert seq == [START, SEP, "q", "a", SEP]
    seq = build_sequence("k1 k2 k3", "q1 q2", "a1")
    assert seq == [START, "k1", "k2", "k3", SEP, "q1", "q2", "a1", SEP]
    assert len(seq) == 9


def test_build_sequence_lowercases():
    assert build_sequence("K", "Q", "A") == [START, "k", SEP, "q", "a", SEP]


def test_build_sequence_drops_knowledge_first():
    seq = build_sequence("k1 k2 k3 k4 k5", "q1 q2", "a1", max_len=8)
    assert seq == [START, "k1", "k2", SEP, "q1", "q2", "a1", SEP]


def test_build_sequence_truncates_question_last():
    seq = build_sequence("k1 k2", "q1 q2 q3 q4", "a1 a2", max_len=5)
    assert seq == [START, SEP, "q1", "q2", SEP]
    assert len(seq) == 5


def test_build_sequence_never_exceeds_max_len():
    for max_len in range(4, 14):
        seq = build_sequence("k " * 20, "q " * 7, "a a", max_len=max_len)
        assert len(seq) <= max_len
        assert seq[0] == START and seq[-1] == SEP


def test_pad_batch_right_pads():
    out = pad_batch([np.array([1, 5]), np.array([1, 6, 7, 2])], pad_id=0)
    assert out.tolist() == [[1, 5, 0, 0], [1, 6, 7, 2]]


# ---------------------------------------------------------------------------
# Continued training on a knowledge corpus
# ---------------------------------------------------------------------------

def toy_corpus(paragraphs=False):
    texts = [
        "alpha beta gamma",
        "beta gamma delta",
        "gamma delta alpha",
        "delta alpha beta",
        "alpha gamma beta delta",
        "beta alpha delta",
    ]
    sents = tuple(KnowledgeSentence(id=f"{i:08d}", text=t) for i, t in enumerate(texts))
    ranges = ((0, 3), (3, 6)) if paragraphs else None
    return KnowledgeCorpus(sentences=sents, paragraphs=ranges)


def test_mlm_batch_loss_none_without_masks():
    model = small_model()
    ids = np.array([[1, 5, 2]])
    assert mlm_batch_loss(model, ids, np.zeros_like(ids, dtype=bool)) is None


def test_mlm_batch_loss_positive_and_finite():
    model = small_model()
    ids = np.array([[1, 5, 6, 2]])
    mask = np.array([[False, True, True, False]])
    loss = mlm_batch_loss(model, ids, mask).item()
    assert np.isfinite(loss) and loss > 0


def _fixed_eval_loss(model, corpus):
    # a frozen mask over a frozen batch: per-step training losses are too
    # noisy to compare (every batch re-rolls its mask)
    seqs = [
        model.vocab.encode([START, *encoder_tokens(s.text), SEP]) for s in corpus.sentences
    ]
    ids = pad_batch(seqs, model.vocab.pad_id)
    mask = (np.arange(ids.shape[1])[None, :] % 2 == 1) & (ids >= model.vocab.first_word_id)
    with no_grad():
        return mlm_batch_loss(model, ids, mask).item()


def test_revision_train_reduces_masked_loss():
    model = small_model(seed=21)
    corpus = toy_corpus()
    before = _fixed_eval_loss(model, corpus)
    log = []
    revision_train(model, corpus, TrainConfig(seed=0, lr=0.02, epochs=30, batch_size=6),
                   loss_log=log)
    assert len(log) >= 2
    assert _fixed_eval_loss(model, corpus) < before


def test_revision_train_is_deterministic():
    runs = []
    for _ in range(2):
        model = small_model(seed=21)
        revision_train(model, toy_corpus(), TrainConfig(seed=7, lr=0.05, epochs=3))
        runs.append({k: t.data.copy() for k, t in model.params.items()})
    for k in runs[0]:
        assert np.array_equal(runs[0][k], runs[1][k]), k


def test_revision_train_updates_weights_in_place():
    model = small_model(seed=21)
    before = model.params["emb"].data.copy()
    out = revision_train(model, toy_corpus(), TrainConfig(seed=0, lr=0.05, epochs=2))
    assert out is model
    assert not np.array_equal(before, model.params["emb"].data)


def test_revision_train_neighbor_objective_needs_paragraphs():
    # same config/seed: the paragraph-aware corpus takes extra updates from
    # the neighbor-sentence objective, so the weights must diverge
    flat = small_model(seed=22)
    para = small_model(seed=22)
    cfg = TrainConfig(seed=3, lr=0.05, epochs=2)
    revision_train(flat, toy_corpus(paragraphs=False), cfg)
    revision_train(para, toy_corpus(paragraphs=True), cfg)
    assert not np.array_equal(flat.params["emb"].data, para.params["emb"].data)


def test_revision_train_discards_probe_parameters():
    model = small_model(seed=22)
    revision_train(model, toy_corpus(paragraphs=True), TrainConfig(seed=3, lr=0.05, epochs=1))
    assert set(model.params) == set(EncoderModel.PARAM_SHAPES)


def oracle_revision_train(model, corpus, config, loss_log=None):
    """``revision_train`` with its own masked-token and neighbour loops, from
    before ``autodiff.sgd_epoch``: the reference."""
    rng = np.random.default_rng(config.seed)
    vocab = model.vocab
    sequences = [
        vocab.encode([START, *encoder_tokens(text), SEP][: model.config.max_len])
        for text in corpus.texts
    ]
    pairs = [(i, i + 1) for lo, hi in corpus.paragraphs or () for i in range(lo, hi - 1)]
    nsp_params = {}
    if pairs:
        nsp_params = {
            "nsp_w": Tensor(rng.normal(0.0, 0.1, size=(model.config.d, 1)), requires_grad=True),
            "nsp_b": Tensor(np.zeros(1), requires_grad=True),
        }
    opt = SGD({**model.params, **nsp_params}, lr=config.lr, momentum=config.momentum)

    def finite(loss):
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(f"training loss became {value!r}")
        return value

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(len(sequences))
            for lo in range(0, len(order), config.batch_size):
                chunk = [sequences[i] for i in order[lo : lo + config.batch_size]]
                ids = pad_batch(chunk, vocab.pad_id)
                maskable = ids >= vocab.first_word_id
                mask = (rng.random(ids.shape) < config.mask_prob) & maskable
                loss = mlm_batch_loss(model, ids, mask)
                if loss is None:
                    continue
                value = finite(loss)
                if loss_log is not None:
                    loss_log.append(value)
                opt.zero_grad()
                loss.backward()
                opt.step()
            if not pairs:
                continue
            n = len(corpus)
            examples = []
            for a, b in pairs:
                examples.append((a, b, 1))
                if n <= 2:
                    continue
                j = int(rng.integers(n))
                while j in (a, a + 1):
                    j = int(rng.integers(n))
                examples.append((a, j, 0))
            order = rng.permutation(len(examples))
            for lo in range(0, len(order), config.batch_size):
                batch = [examples[i] for i in order[lo : lo + config.batch_size]]
                seqs = [
                    np.concatenate([sequences[a], sequences[b][1:]])[: model.config.max_len]
                    for a, b, _ in batch
                ]
                pooled = model.encode_ids(pad_batch(seqs, vocab.pad_id))
                z = pooled @ nsp_params["nsp_w"] + nsp_params["nsp_b"]
                logits = z @ Tensor([[0.0, 1.0]])  # [0, z] as a matrix product
                loss = cross_entropy(logits, np.array([y for _, _, y in batch]))
                finite(loss)
                opt.zero_grad()
                loss.backward()
                opt.step()
    return model


@pytest.mark.parametrize("paragraphs", [False, True])
def test_revision_train_matches_oracle_loops(paragraphs):
    # a low mask rate over short sentences leaves some batches with nothing
    # masked, so the skipped-batch path runs too
    config = TrainConfig(seed=3, lr=0.05, epochs=4, batch_size=4, mask_prob=0.08)
    runs = []
    for fit in (revision_train, oracle_revision_train):
        model, log = small_model(seed=22), []
        fit(model, toy_corpus(paragraphs=paragraphs), config, loss_log=log)
        runs.append(({k: t.data.tobytes() for k, t in model.params.items()}, log))
    (params, log), (oracle_params, oracle_log) = runs
    assert 0 < len(log) < config.epochs * 2  # two batches per epoch, some skipped
    assert log == oracle_log
    assert params == oracle_params


def test_revision_train_on_a_two_sentence_paragraph_matches_oracle_loops():
    # no third sentence can be a negative, so the neighbour objective sees the positive pair only
    corpus = KnowledgeCorpus(toy_corpus().sentences[:2], paragraphs=[(0, 2)])
    config = TrainConfig(seed=3, lr=0.05, epochs=2, batch_size=4)
    runs = []
    for fit in (revision_train, oracle_revision_train):
        model = small_model(seed=22)
        fit(model, corpus, config)
        runs.append({k: t.data.tobytes() for k, t in model.params.items()})
    assert runs[0] == runs[1]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(mask_prob=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mask_prob=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


@pytest.mark.parametrize("momentum", [-5.0, -1e-9, 1.0, 2.0])
def test_train_config_rejects_momentum_outside_unit_interval(momentum):
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig(momentum=momentum)
    TrainConfig(momentum=0.0)  # plain gradient descent stays allowed


def test_revision_train_stops_on_non_finite_loss(monkeypatch):
    monkeypatch.setattr(ad, "MAX_UPDATE_RATIO", np.inf)  # so lr=1e50 reaches the overflow
    model = small_model(seed=22)
    log = []
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="nan|inf"):
        revision_train(model, toy_corpus(paragraphs=False),
                       TrainConfig(seed=3, lr=1e50, epochs=5), loss_log=log)
    assert log and all(np.isfinite(log))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_masking_rate_respects_probability(seed):
    rng = np.random.default_rng(seed)
    ids = np.full((4, 50), 6)
    maskable = ids >= 5
    mask = (rng.random(ids.shape) < 0.15) & maskable
    assert 0 <= mask.sum() <= ids.size  # never masks specials
    specials = np.array([[0, 1, 2, 3, 4]])
    assert not ((rng.random(specials.shape) < 0.99) & (specials >= 5)).any()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = small_model(seed=31)
    revision_train(model, toy_corpus(), TrainConfig(seed=0, lr=0.05, epochs=1))
    path = tmp_path / "enc.bin"
    save_encoder(model, path)
    loaded = load_encoder(path)
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.config == model.config
    for k, t in model.params.items():
        assert np.array_equal(loaded.params[k].data, t.data), k
    ids = np.array([[1, 5, 6, 2]])
    assert np.array_equal(loaded.encode_ids(ids).data, model.encode_ids(ids).data)


def test_checkpoint_save_load_save_reproduces_the_file(tmp_path):
    model = small_model(seed=31)
    revision_train(model, toy_corpus(), TrainConfig(seed=0, lr=0.05, epochs=1))
    save_encoder(model, tmp_path / "a.bin")
    save_encoder(load_encoder(tmp_path / "a.bin"), tmp_path / "b.bin")
    assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()


def test_checkpoint_bytes_deterministic(tmp_path):
    model = small_model(seed=31)
    save_encoder(model, tmp_path / "a.bin")
    save_encoder(model, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_encoder(p)


def test_checkpoint_bad_version(tmp_path):
    model = small_model()
    p = tmp_path / "v.bin"
    save_encoder(model, p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_encoder(p)


def test_checkpoint_v1_rejected_with_rebuild_hint(tmp_path):
    v1 = b"KENC" + struct.pack("<IIIdd", 1, 8, 256, 1e-12, 0.1)
    # Version 2: the version 3 frame with the layer-norm epsilon and the
    # init scale as <f8 after d and max_len.
    save_encoder(small_model(), tmp_path / "v3.bin")
    payload = unframe((tmp_path / "v3.bin").read_bytes())[2]
    v2 = frame(b"KENC", 2, payload[:8] + struct.pack("<dd", 1e-12, 0.1) + payload[8:])
    for version, data in [(1, v1), (2, v2)]:
        p = tmp_path / f"v{version}.bin"
        p.write_bytes(data)
        with pytest.raises(CheckpointError,
                           match=f"version {version} .*rebuild the encoder with revise"):
            load_encoder(p)


def test_checkpoint_truncated(tmp_path):
    model = small_model()
    p = tmp_path / "t.bin"
    save_encoder(model, p)
    p.write_bytes(p.read_bytes()[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_encoder(p)


def test_checkpoint_trailing_garbage(tmp_path):
    model = small_model()
    p = tmp_path / "g.bin"
    save_encoder(model, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_encoder(p)


@pytest.mark.parametrize("name", ["att_wq", "ln2_beta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_non_finite_parameter_names_it(tmp_path, name, bad):
    model = small_model()
    model.params[name].data.reshape(-1)[-1] = MARK
    model.params["ln2_gamma"].data[0] = MARK  # the last parameter in file order
    save_encoder(model, tmp_path / "n.bin")
    replace_f8(tmp_path / "n.bin", MARK, bad)
    with pytest.raises(CheckpointError, match=f"parameter {name} holds a NaN or inf"):
        load_encoder(tmp_path / "n.bin")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_save_refuses_a_non_finite_parameter(tmp_path, bad):
    # the loader would reject the file, so the writer does not write it
    model = small_model()
    model.params["att_wk"].data[1, 0] = bad
    with pytest.raises(ValueError, match="att_wk holds a NaN or inf"):
        save_encoder(model, tmp_path / "n.bin")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_encoder(tmp_path / "absent.bin")
