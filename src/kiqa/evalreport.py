"""Accuracy evaluation, retrieval-depth sweeps, and weight/overlap analysis."""

from __future__ import annotations

import copy
import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import CorpusRows
from .datasets import RETRIEVE_K, McqDataset, attach_premises
from .encoder import TrainConfig
from .fusion import (
    FusionModel,
    _passages,
    score_item,
    train,
)
from .index import InvertedIndex
from .rerank import RerankConfig
from .textio import InputError, replacing
from .textnorm import token_set


@dataclass(frozen=True)
class EvalReport:
    predictions: tuple[tuple[str, int, int], ...]  # (item id, predicted, gold)
    fingerprint: str

    @property
    def n_items(self) -> int:
        return len(self.predictions)

    @property
    def accuracy(self) -> float:
        return sum(1 for _, p, g in self.predictions if p == g) / self.n_items


def config_fingerprint(configs: dict[str, object]) -> str:
    """sha256 of the configs as JSON with sorted keys; the values must be JSON values."""
    blob = json.dumps(configs, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def evaluate(
    model: FusionModel, dataset: McqDataset, configs: dict[str, object] | None = None
) -> EvalReport:
    missing = [it.id for it in dataset.items if it.gold is None]
    if missing:
        raise InputError(f"items without gold labels: {missing[:3]}")
    if not dataset.items:
        raise InputError("empty dataset")
    return EvalReport(
        predictions=tuple(
            (it.id, score_item(model, it).predicted, it.gold) for it in dataset.items
        ),
        fingerprint=config_fingerprint(configs or {}),
    )


def save_report(report: EvalReport, path: str | Path) -> None:
    payload = {
        "accuracy": report.accuracy,
        "n_items": report.n_items,
        "fingerprint": report.fingerprint,
        "predictions": [
            {"item": i, "predicted": p, "gold": g} for i, p, g in report.predictions
        ],
    }
    with replacing(path) as fh:
        fh.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Retrieval-depth sweep
# ---------------------------------------------------------------------------

def sweep_m(
    model: FusionModel,
    train_set: McqDataset,
    eval_set: McqDataset,
    corpus: CorpusRows,
    index: InvertedIndex,
    m_values: list[int],
    rr_config: RerankConfig | None = None,
    train_config: TrainConfig | None = None,
    retrieve_k: int = RETRIEVE_K,
    freeze_encoder: bool = False,
) -> list[tuple[int, float]]:
    """(m, accuracy) at each retrieval depth m, in the order given.

    Of the corpus only what :func:`attach_premises` reads is read.
    Premises are attached (retrieve + re-rank) once, at the largest m; each
    depth takes the first m of every option's list.  The greedy re-rank
    picks in the same order whatever its m, which only bounds how many
    picks it makes, so that prefix is exactly what attaching at m gives.
    With a ``train_config`` a deep copy of the model, which shares a vector
    store, is fitted per depth; without one the given model is only
    re-evaluated at each depth.
    """
    if not m_values or any(m < 1 for m in m_values):
        raise InputError("m values must be positive")
    if any(a >= b for a, b in zip(m_values, m_values[1:])):
        raise InputError(f"m values must be strictly ascending, got {list(m_values)}")
    retrain = train_config is not None
    rr = replace(rr_config or RerankConfig(), m=m_values[-1])
    eval_full = attach_premises(eval_set, corpus, index, rr, retrieve_k)
    if retrain:
        train_full = attach_premises(train_set, corpus, index, rr, retrieve_k)
    rows = []
    for m in m_values:
        if retrain:
            candidate = copy.deepcopy(model)
            train(candidate, _first_premises(train_full, m), train_config,
                  freeze_encoder=freeze_encoder)
        else:
            candidate = model
        rows.append((m, evaluate(candidate, _first_premises(eval_full, m)).accuracy))
    return rows


def _first_premises(dataset: McqDataset, m: int) -> McqDataset:
    items = [replace(it, premises=[plist[:m] for plist in it.premises]) for it in dataset.items]
    return McqDataset(items=items)


def write_sweep_csv(rows: list[tuple[int, float]], path: str | Path) -> None:
    _write_csv(path, [["m", "accuracy"], *([m, repr(float(acc))] for m, acc in rows)])


def _write_csv(path: str | Path, rows: list[list]) -> None:
    with replacing(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# Weight / overlap analysis
# ---------------------------------------------------------------------------

def normalized_overlap(knowledge: str, question_plus_answer: str) -> float:
    """|tokens(K) ∩ tokens(Qa)| / |tokens(Qa)| over lowercase token sets."""
    qa = token_set(question_plus_answer)
    if not qa:
        return 0.0
    return len(token_set(knowledge) & qa) / len(qa)


def weight_overlap_report(
    model: FusionModel, dataset: McqDataset
) -> list[tuple[str, int, int, float, float]]:
    """(item, option, passage, weight, overlap) rows, one per passage."""
    if model.head != "weighted-sum":
        raise InputError(f"weight report needs a weighted-sum model, got {model.head!r}")
    rows = []
    for item in dataset.items:
        out = score_item(model, item)
        for i in range(item.n):
            qa = f"{item.question_text} {item.options[i]}"
            for j, (_, text) in enumerate(_passages(model.head, item, i)):
                rows.append(
                    (item.id, i, j, out.weights[i][j], normalized_overlap(text, qa))
                )
    return rows


def write_weight_report_csv(
    rows: list[tuple[str, int, int, float, float]], path: str | Path
) -> None:
    _write_csv(path, [["item", "option", "passage", "weight", "overlap"], *(
        [item, option, passage, repr(float(weight)), repr(float(overlap))]
        for item, option, passage, weight, overlap in rows)])
