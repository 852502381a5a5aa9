"""Tiny trainable text encoder: one attention block, pooled first position.

The encoder exists so fusion-head mechanics can be verified with exact
64-bit gradients; it is one self-attention block plus a position-wise
feed-forward, both with post-norm residuals, over learned embeddings.
No position information is used: the scoring heads only consume pooled
summaries where token identity, not order, carries the signal.

The block has a key/value side and a query side.  The embedding gather
and the key and value projections run at every position, since every
output attends to all of them.  The rest (query projection, attention
row, output projection, residuals, both layer norms and the
feed-forward) runs only at the query columns whose output is read:
column 0 for the pooled vector, the masked columns for the masked-token
loss.  An output column depends on the other positions only through
their keys and values, so its vector is the same as in a block run at
every position, up to the rounding of the smaller products.

Padded and unpadded encodings of the same content are bitwise identical:
padded keys get an additive ``NEG_INF`` before the attention softmax, which
:func:`kiqa.autodiff.attention_softmax` makes exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import autodiff as ad
from . import binfmt
from .autodiff import SGD, Tensor, attention_softmax, cross_entropy, layer_norm
from .corpus import KnowledgeCorpus

PAD, START, SEP, MASK, UNK = "<pad>", "<s>", "<sep>", "<mask>", "<unk>"
SPECIAL_TOKENS = (PAD, START, SEP, MASK, UNK)

NEG_INF = -1e30  # additive mask of padded slots; its exponential is exactly 0.0


KENC = binfmt.Kind(b"KENC", 3, "encoder", "revise")

LN_EPS = 1e-12  # layer-norm epsilon
INIT_SCALE = 0.1  # standard deviation of the initial weight matrices


def encoder_tokens(text: str) -> list[str]:
    """Whitespace tokenization, lowercased; the toy encoder's word pieces."""
    return text.lower().split()


class Vocab:
    """Token ↔ id table; ids 0..4 are the special tokens, in fixed order."""

    pad_id = 0
    mask_id = 3
    first_word_id = len(SPECIAL_TOKENS)

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = list(tokens)
        self._ids = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocab":
        words = sorted({t for text in texts for t in encoder_tokens(text)} - set(SPECIAL_TOKENS))
        return cls(list(SPECIAL_TOKENS) + words)

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, self._ids[UNK])

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.id_of(t) for t in tokens], dtype=np.int64)


@dataclass(frozen=True)
class EncoderConfig:
    d: int = 32
    max_len: int = 256

    def __post_init__(self):
        if self.d < 1 or self.max_len < 4:
            raise ValueError("d must be >= 1 and max_len >= 4")


@dataclass
class TrainConfig:
    seed: int = 0
    lr: float = 0.1
    epochs: int = 10
    batch_size: int = 32
    momentum: float = 0.9
    mask_prob: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 < self.mask_prob < 1.0:
            raise ValueError("mask probability must be in (0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch size >= 1")


class EncoderModel:
    def __init__(self, vocab: Vocab, config: EncoderConfig, params: dict[str, Tensor]):
        self.vocab = vocab
        self.config = config
        self.params = params

    PARAM_SHAPES = {
        "emb": ("V", "d"),
        "att_wq": ("d", "d"),
        "att_wk": ("d", "d"),
        "att_wv": ("d", "d"),
        "att_wo": ("d", "d"),
        "ffn_w1": ("d", "h"),
        "ffn_b1": ("h",),
        "ffn_w2": ("h", "d"),
        "ffn_b2": ("d",),
        "ln1_gamma": ("d",),
        "ln1_beta": ("d",),
        "ln2_gamma": ("d",),
        "ln2_beta": ("d",),
    }

    @classmethod
    def param_shapes(cls, vocab: Vocab, config: EncoderConfig) -> dict[str, tuple[int, ...]]:
        dims = {"V": len(vocab), "d": config.d, "h": 4 * config.d}
        return {name: tuple(dims[s] for s in spec) for name, spec in cls.PARAM_SHAPES.items()}

    @classmethod
    def init(cls, vocab: Vocab, config: EncoderConfig = EncoderConfig(), seed: int = 0):
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in cls.param_shapes(vocab, config).items():
            if name.endswith("gamma"):
                data = np.ones(shape)
            elif name.endswith(("beta", "b1", "b2")):
                data = np.zeros(shape)
            else:
                data = rng.normal(0.0, INIT_SCALE, size=shape)
            params[name] = Tensor(data, requires_grad=True)
        return cls(vocab, config, params)

    # -- forward --------------------------------------------------------

    def hidden_states(self, ids: np.ndarray, queries: np.ndarray) -> Tensor:
        """(B, L) int ids -> (B, Q, d) final-layer vectors at the (B, Q) query columns.

        Keys and values are projected at all L positions; everything after
        them runs at the queried columns only.  A column may be queried more
        than once.
        Padding never reaches an output's bits: padded keys get exactly zero
        attention weight, the sums over keys (the softmax denominator and
        the weighted values) are BLAS products, which trailing zero terms
        leave bitwise unchanged, and every product after them has Q rows
        per sequence however long the padding makes L.
        """
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError("ids must be a non-empty (batch, length) array")
        if ids.shape[1] > self.config.max_len:
            raise ValueError(f"sequence length {ids.shape[1]} exceeds {self.config.max_len}")
        if not (
            queries.ndim == 2 and queries.shape[0] == ids.shape[0] and queries.shape[1] > 0
            and 0 <= queries.min() and queries.max() < ids.shape[1]
        ):
            raise ValueError("queries must be a non-empty (batch, count) array of columns of ids")
        p = self.params
        x = p["emb"][ids]  # (B, L, d)
        k = x @ p["att_wk"]
        v = x @ p["att_wv"]
        x = x[np.arange(len(ids))[:, None], queries]  # (B, Q, d)

        pad_mask = np.where(ids == self.vocab.pad_id, NEG_INF, 0.0)
        scores = (x @ p["att_wq"]) @ k.swap_last_axes()  # (B, Q, L)
        # mask keys per query row
        attn = attention_softmax(scores, pad_mask[:, None, :], 1.0 / np.sqrt(self.config.d))
        x = layer_norm(x + (attn @ v) @ p["att_wo"], p["ln1_gamma"], p["ln1_beta"], LN_EPS)
        ffn = ad.tanh(x @ p["ffn_w1"] + p["ffn_b1"]) @ p["ffn_w2"] + p["ffn_b2"]
        return layer_norm(x + ffn, p["ln2_gamma"], p["ln2_beta"], LN_EPS)

    def encode_ids(self, ids: np.ndarray) -> Tensor:
        """(B, L) int ids -> (B, d) pooled first-position vectors."""
        return self.hidden_states(ids, np.zeros((len(ids), 1), dtype=np.intp))[:, 0, :]


def build_sequence(
    knowledge: str,
    question: str,
    option: str,
    max_len: int = 256,
) -> list[str]:
    """[start] K [sep] Q a [sep]; knowledge tokens are dropped first when
    the sequence would exceed ``max_len``, question/answer only as a last
    resort (from the end, keeping the closing separator).  Tokens stay
    strings; ids are assigned at encode time."""
    k_tokens = encoder_tokens(knowledge)
    q_tokens = encoder_tokens(question)
    a_tokens = encoder_tokens(option)
    overhead = 3  # start + two separators
    base = overhead + len(q_tokens) + len(a_tokens)
    if base > max_len:
        qa = (q_tokens + a_tokens)[: max_len - overhead]
        return [START, SEP, *qa, SEP]
    k_tokens = k_tokens[: max_len - base]
    return [START, *k_tokens, SEP, *q_tokens, *a_tokens, SEP]


def pad_batch(sequences: list[np.ndarray], pad_id: int) -> np.ndarray:
    """Right-pad id sequences to a (B, max_len_in_batch) int array."""
    width = max(len(s) for s in sequences)
    out = np.full((len(sequences), width), pad_id, dtype=np.int64)
    for row, seq in enumerate(sequences):
        out[row, : len(seq)] = seq
    return out


# ---------------------------------------------------------------------------
# Continued training on a knowledge corpus (masked-token objective)
# ---------------------------------------------------------------------------

def mlm_batch_loss(
    model: EncoderModel, ids: np.ndarray, mask: np.ndarray
) -> Tensor | None:
    """Cross-entropy at masked positions; None when nothing is masked.

    ``mask`` flags the positions to hide; inputs get the mask token there
    and the model must recover the original ids.  The block's query side
    runs only at the masked columns: each row queries its own, left-aligned
    and padded with column 0 to the row with the most.  The M real ones
    are gathered and go through the projection tied to the embeddings, so
    the logits are (M, V), never (B, L, V).
    """
    if not mask.any():
        return None
    rows, cols = np.nonzero(mask)  # row-major, so each row's columns are adjacent
    counts = mask.sum(axis=1)
    slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    queries = np.zeros((len(ids), counts.max()), dtype=np.intp)
    queries[rows, slots] = cols
    hidden = model.hidden_states(np.where(mask, model.vocab.mask_id, ids), queries)[rows, slots]
    return cross_entropy(hidden @ model.params["emb"].swap_last_axes(), ids[rows, cols])


def _adjacent_pairs(corpus: KnowledgeCorpus) -> list[tuple[int, int]]:
    if not corpus.paragraphs:
        return []
    return [
        (i, i + 1) for lo, hi in corpus.paragraphs for i in range(lo, hi - 1)
    ]


def revision_train(
    model: EncoderModel,
    corpus: KnowledgeCorpus,
    config: TrainConfig,
    loss_log: list[float] | None = None,
) -> EncoderModel:
    """Continue training the encoder on a knowledge corpus, in place.

    Every token is masked independently with ``config.mask_prob``; batches
    with no masked position are skipped.  When the corpus carries
    paragraph structure, an adjacent-sentence objective runs alongside:
    a throwaway linear probe classifies whether two sentences were
    neighbors, and its parameters are discarded afterwards.  The probe draws
    its weights, negatives and order from a generator of its own, spawned
    from ``config.seed``, so the masked-token batches are the same with or
    without paragraph ranges.  Both objectives take their passes through
    :func:`kiqa.autodiff.sgd_epoch`, so a loss gone non-finite stops the
    run with DivergenceError.
    """
    rng = np.random.default_rng(config.seed)
    vocab = model.vocab
    sequences = [
        vocab.encode([START, *encoder_tokens(text), SEP][: model.config.max_len])
        for text in corpus.texts
    ]
    pairs = _adjacent_pairs(corpus)
    nsp_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    nsp_params = {}
    if pairs:
        nsp_params = {
            "nsp_w": Tensor(nsp_rng.normal(0.0, 0.1, size=(model.config.d, 1)),
                            requires_grad=True),
            "nsp_b": Tensor(np.zeros(1), requires_grad=True),
        }
    opt = SGD({**model.params, **nsp_params}, lr=config.lr, momentum=config.momentum)

    def mlm_loss(batch: np.ndarray) -> Tensor | None:
        ids = pad_batch([sequences[i] for i in batch], vocab.pad_id)
        mask = (rng.random(ids.shape) < config.mask_prob) & (ids >= vocab.first_word_id)
        return mlm_batch_loss(model, ids, mask)

    for _ in range(config.epochs):
        ad.sgd_epoch(opt, rng.permutation(len(sequences)), config.batch_size, mlm_loss, loss_log)
        if pairs:
            _nsp_epoch(model, sequences, pairs, nsp_params, opt, nsp_rng, config)
    return model


def _nsp_epoch(model, sequences, pairs, nsp_params, opt, rng, config):
    n = len(sequences)
    examples = []
    for a, b in pairs:
        examples.append((a, b, 1))
        if n <= 2:
            continue  # no sentence left to serve as a negative
        j = int(rng.integers(n))
        while j in (a, a + 1):
            j = int(rng.integers(n))
        examples.append((a, j, 0))

    def nsp_loss(rows: np.ndarray) -> Tensor:
        batch = [examples[i] for i in rows]
        seqs = [
            np.concatenate([sequences[a], sequences[b][1:]])[: model.config.max_len]
            for a, b, _ in batch
        ]
        pooled = model.encode_ids(pad_batch(seqs, model.vocab.pad_id))
        z = pooled @ nsp_params["nsp_w"] + nsp_params["nsp_b"]  # (B, 1)
        logits = z * Tensor([[0.0, 1.0]])  # (B, 2) logits [0, z]
        return cross_entropy(logits, np.array([y for _, _, y in batch]))

    ad.sgd_epoch(opt, rng.permutation(len(examples)), config.batch_size, nsp_loss)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def write_encoder(w: binfmt.Writer, model: EncoderModel) -> None:
    """The encoder's fields: config, vocabulary, parameters."""
    config = model.config
    w.u32(config.d)
    w.u32(config.max_len)
    w.strings(model.vocab.tokens)
    w.tensors({name: t.data for name, t in model.params.items()})


def read_encoder(r: binfmt.Reader) -> EncoderModel:
    """The fields :func:`write_encoder` wrote, with every shape and value checked."""
    d, max_len = r.u32(), r.u32()
    tokens = r.strings()
    try:
        config = EncoderConfig(d=d, max_len=max_len)
        vocab = Vocab(tokens)
    except ValueError as exc:
        raise r.error(str(exc)) from None
    params = r.tensors(EncoderModel.param_shapes(vocab, config), "parameter")
    return EncoderModel(vocab, config, {k: Tensor(v, requires_grad=True) for k, v in params.items()})


def save_encoder(model: EncoderModel, path: str | Path) -> None:
    w = binfmt.Writer()
    write_encoder(w, model)
    binfmt.save(path, KENC, w)


def load_encoder(path: str | Path) -> EncoderModel:
    r = binfmt.load(path, KENC)
    model = read_encoder(r)
    r.done()
    return model
