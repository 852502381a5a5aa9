"""Scoring heads that combine retrieved knowledge with a question/option pair.

Five heads over a shared linear scorer:

- ``baseline``      — no knowledge; score the bare question/option encoding.
- ``concat``        — join an option's passages into one text, encode once.
- ``parallel-max``  — encode each passage separately, take the best score.
- ``simple-sum``    — sum the per-passage encodings, score the sum.
- ``weighted-sum``  — softmax-weighted sum, weights from a second linear
  layer (or from the score layer itself in the tied variant).

The encoder is pluggable: either the trainable `EncoderModel` or an
`ExternalVectorStore` of precomputed vectors (which can never receive
gradient updates).  An option with no retrieved passages is scored
against a single empty-knowledge placeholder so every head stays total.

Scoring runs on one padded minibatch: every (item, option, passage)
sequence is encoded in a single call, gathered into a (B, n, m_max, d)
tensor, and each head is a masked reduction over the passage axis — a
max or softmax with ``NEG_INF`` added at padded slots, or a sum over zeroed
ones.  Training, gradient checks and `score_item` (a batch of one) share
this path; `train` tokenizes each item once, not once per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import binfmt
from .autodiff import SGD, Tensor, cross_entropy, no_grad, sgd_epoch
from .datasets import McqDataset, McqItem
from .encoder import (
    NEG_INF,
    CheckpointError,
    EncoderModel,
    TrainConfig,
    build_sequence,
    pad_batch,
    read_encoder,
    write_encoder,
)
from .external import ExternalVectorStore
from .textio import write_json_lines

HEADS = ("baseline", "concat", "parallel-max", "simple-sum", "weighted-sum")


class FusionError(ValueError):
    pass


KFUS = binfmt.Kind(b"KFUS", 3, "model", "train", CheckpointError)


@dataclass(frozen=True)
class OptionScores:
    """Per-option scores for one item; ties in argmax go to the lowest index."""

    scores: tuple[float, ...]
    weights: tuple[tuple[float, ...], ...] | None = None

    @property
    def predicted(self) -> int:
        return int(np.argmax(self.scores))


class FusionModel:
    """A head over an encoder, its layers drawn from ``seed``; a tied
    weighted-sum head weighs passages with its score layer."""

    def __init__(
        self,
        encoder: EncoderModel | ExternalVectorStore,
        head: str,
        seed: int = 0,
        tied: bool = False,
    ):
        if head not in HEADS:
            raise FusionError(f"unknown head kind {head!r}")
        if tied and head != "weighted-sum":
            raise FusionError(f"{head} takes no weight layer")
        d = encoder.dimension if isinstance(encoder, ExternalVectorStore) else encoder.config.d
        rng = np.random.default_rng(seed)
        self.encoder, self.head, self.tied = encoder, head, tied
        self.score_w = Tensor(rng.normal(0.0, 0.1, size=(d, 1)), requires_grad=True)
        self.score_b = Tensor(np.zeros(1), requires_grad=True)
        self.weight_w = self.weight_b = None
        if tied:
            self.weight_w, self.weight_b = self.score_w, self.score_b
        elif head == "weighted-sum":
            self.weight_w = Tensor(rng.normal(0.0, 0.1, size=(d, 1)), requires_grad=True)
            self.weight_b = Tensor(np.zeros(1), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        """Trainable head parameters; each shared tensor appears once."""
        params = {"score_w": self.score_w, "score_b": self.score_b}
        if self.head == "weighted-sum" and not self.tied:
            params["weight_w"] = self.weight_w
            params["weight_b"] = self.weight_b
        return params


def question_text(item: McqItem) -> str:
    return f"{item.context} {item.question}" if item.context else item.question


def _passages(head: str, item: McqItem, option: int) -> list[tuple[int | None, str]]:
    """(store key, knowledge text) of every passage the head scores for one option."""
    texts = [p.text for p in item.premises[option]] if item.premises else []
    if head == "baseline" or not texts:
        return [(None, "")]
    if head == "concat":
        return [(-1, " ".join(texts))]
    return list(enumerate(texts))


def _encoder_inputs(model: FusionModel, item: McqItem) -> list[list[np.ndarray]]:
    """Per option, what the encoder reads for each passage in ``_passages``
    order: the token ids of its sequence, or a vector store's stored vector."""
    enc = model.encoder
    if isinstance(enc, ExternalVectorStore):
        return [[enc.get(item.id, i, key) for key, _ in _passages(model.head, item, i)]
                for i in range(item.n)]
    max_len, question = enc.config.max_len, question_text(item)
    return [[enc.vocab.encode(build_sequence(text, question, option, max_len=max_len))
             for _, text in _passages(model.head, item, i)]
            for i, option in enumerate(item.options)]


def _batch_scores(
    model: FusionModel, items: list[McqItem], frozen: bool, inputs: list | None = None
) -> tuple[Tensor, Tensor | None, np.ndarray]:
    """Differentiable (B, n) option scores for a minibatch of items, read from
    their :func:`_encoder_inputs` (``inputs``, made here when not given).

    Also returns the weighted-sum head's (B, n, m_max, 1) passage weights
    (None for the other heads) and the (B, n) real passage counts; padded
    passage slots carry zero vectors and zero weight.
    """
    if inputs is None:
        inputs = [_encoder_inputs(model, it) for it in items]
    counts = np.array([[len(ps) for ps in row] for row in inputs])
    mask = np.arange(counts.max()) < counts[..., None]  # (B, n, m_max)
    # flat row of every real passage, in (item, option, passage) order;
    # padded slots read row 0 and are zeroed by the mask
    rows = np.zeros(mask.shape, dtype=np.int64)
    rows[mask] = np.arange(counts.sum())
    flat = [x for row in inputs for ps in row for x in ps]

    enc = model.encoder
    if isinstance(enc, ExternalVectorStore):
        pooled = Tensor(np.stack(flat))
    else:
        ids = pad_batch(flat, enc.vocab.pad_id)
        if frozen:
            with no_grad():
                pooled = Tensor(enc.encode_ids(ids).data)
        else:
            pooled = enc.encode_ids(ids)
    vecs = pooled[rows] * Tensor(mask[..., None].astype(np.float64))  # (B, n, m_max, d)
    pad = Tensor(np.where(mask, 0.0, NEG_INF)[..., None])  # additive score mask

    w, b = model.score_w, model.score_b
    weights = None
    if model.head == "simple-sum":
        # keeping the reduced axis scores (1, d) rows, as a single option would
        scores = vecs.sum(axis=2, keepdims=True) @ w + b
    elif model.head == "weighted-sum":
        weights = ad.softmax(vecs @ model.weight_w + model.weight_b + pad, axis=2)
        scores = (weights.swap_last_axes() @ vecs) @ w + b
    else:  # baseline and concat score their single passage; parallel-max the best
        scores = (vecs @ w + b + pad).max(axis=2)
    return scores.reshape(counts.shape), weights, counts


def score_item(model: FusionModel, item: McqItem) -> OptionScores:
    with no_grad():
        scores, weights, counts = _batch_scores(model, [item], frozen=True)
    row = scores.data[0]
    wts = None
    if weights is not None:
        wts = tuple(
            tuple(float(v) for v in weights.data[0, i, :m, 0]) for i, m in enumerate(counts[0])
        )
    return OptionScores(scores=tuple(float(v) for v in row), weights=wts)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _batch_loss(model: FusionModel, batch: list[McqItem], frozen: bool, inputs=None) -> Tensor:
    scores, _, _ = _batch_scores(model, batch, frozen, inputs)
    return cross_entropy(scores, np.array([it.gold for it in batch]))


def _trainable(model: FusionModel, frozen: bool) -> dict[str, Tensor]:
    """The head parameters, and the encoder's under ``enc.`` names unless it
    is frozen or a vector store."""
    params = dict(model.parameters())
    if isinstance(model.encoder, EncoderModel) and not frozen:
        params.update({f"enc.{k}": v for k, v in model.encoder.params.items()})
    return params


def train(
    model: FusionModel,
    dataset: McqDataset,
    config: TrainConfig,
    freeze_encoder: bool = False,
    loss_log: list[float] | None = None,
) -> FusionModel:
    """Fit the head (and, unless frozen, the encoder) in place.

    Loss is cross-entropy of the softmax over each item's option scores
    against its gold index.  Each epoch is one shuffled pass of
    :func:`kiqa.autodiff.sgd_epoch`, so a loss gone non-finite stops the
    run with DivergenceError.
    """
    missing = [it.id for it in dataset.items if it.gold is None]
    if missing:
        raise FusionError(f"items without gold labels: {missing[:3]}")
    if isinstance(model.encoder, ExternalVectorStore) and not freeze_encoder:
        raise FusionError("precomputed vectors cannot receive gradients; freeze the encoder")
    opt = SGD(_trainable(model, freeze_encoder), lr=config.lr, momentum=config.momentum)
    rng = np.random.default_rng(config.seed)
    items = dataset.items
    inputs = [_encoder_inputs(model, it) for it in items]

    def loss(batch: np.ndarray) -> Tensor:
        return _batch_loss(model, [items[i] for i in batch], freeze_encoder,
                           [inputs[i] for i in batch])

    for _ in range(config.epochs):
        sgd_epoch(opt, rng.permutation(len(items)), config.batch_size, loss, loss_log)
    return model


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def grad_check(model: FusionModel, item: McqItem, step: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Covers every trainable parameter (head layers, and the encoder when it
    is the trainable kind).  The loss is the item's cross-entropy against
    its gold index (option 0 when unlabeled).

    The per-parameter error is ||analytic - numeric|| / (||analytic|| +
    ||numeric|| + 1e-4).  The absolute floor matters: central differences
    carry ~ulp(loss)/step of roundoff, so a parameter whose true gradient
    norm sits below that resolution (the attention projections at init)
    would otherwise report pure noise as error, while any genuine backward
    bug still shows up orders of magnitude above the floor.
    """
    probe = replace(item, gold=item.gold if item.gold is not None else 0)
    inputs = [_encoder_inputs(model, probe)]

    def loss_value() -> Tensor:
        return _batch_loss(model, [probe], False, inputs)

    params = _trainable(model, frozen=False)
    loss = loss_value()
    if not np.isfinite(loss.item()):
        raise FusionError(f"non-finite loss {loss.item()!r}")
    for p in params.values():
        p.zero_grad()
    loss.backward()

    worst = 0.0
    for name in sorted(params):
        tensor = params[name]
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        numeric = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = loss_value().item()
                flat[i] = keep - step
                lo = loss_value().item()
                flat[i] = keep
                numeric[i] = (hi - lo) / (2 * step)
        numeric = numeric.reshape(tensor.data.shape)
        diff = np.linalg.norm(analytic - numeric)
        scale = np.linalg.norm(analytic) + np.linalg.norm(numeric)
        worst = max(worst, diff / (scale + 1e-4))
    return worst


# ---------------------------------------------------------------------------
# Predictions file
# ---------------------------------------------------------------------------

def save_predictions(model: FusionModel, dataset: McqDataset, path: str | Path) -> None:
    write_json_lines(path, (
        {
            "item": item.id,
            "scores": list(out.scores),
            "weights": [list(w) for w in out.weights] if out.weights else None,
            "predicted": out.predicted,
            "gold": item.gold,
        }
        for item, out in ((it, score_item(model, it)) for it in dataset.items)
    ))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_model(model: FusionModel, path: str | Path) -> None:
    """Write head kind, tied flag, the encoder's fields, then the head parameters.

    Store-backed models cannot be checkpointed: the vectors live in their
    own interchange file and the head would be meaningless without them.
    """
    if isinstance(model.encoder, ExternalVectorStore):
        raise FusionError("cannot checkpoint a model backed by an external vector store")
    w = binfmt.Writer()
    w.strings([model.head])
    w.u32(int(model.tied))
    write_encoder(w, model.encoder)
    w.tensors({name: t.data for name, t in model.parameters().items()})
    binfmt.save(path, KFUS, w)


def load_model(path: str | Path) -> FusionModel:
    r = binfmt.load(path, KFUS)
    heads = r.strings()
    head = heads[0] if len(heads) == 1 else heads
    if head not in HEADS:
        raise r.error(f"unknown head kind {head!r}")
    tied = r.u32()
    if tied > (head == "weighted-sum"):
        raise r.error(f"tied flag {tied} for a {head} head (only weighted-sum may be tied, with 1)")
    # a fresh model of the stored kind names the head parameters and their shapes
    model = FusionModel(read_encoder(r), head, tied=bool(tied))
    params = model.parameters()
    for name, data in r.tensors({n: t.shape for n, t in params.items()}, "head parameter").items():
        params[name].data = data
    r.done()
    return model
