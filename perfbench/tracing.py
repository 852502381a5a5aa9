"""Outside-in tracing: wrap kiqa's public functions where callers look them up.

A module that does ``from .index import search`` calls its own binding,
so each wrap names the module whose global (or the class whose attribute)
the caller reads at call time.  A span records (layer, start, end,
parent span); a count-only wrap just increments a counter, for helpers
called tens of thousands of times per pass.  Hooks run after the span has
closed and read arguments and results to derive counts (postings
scanned, tape nodes, logits size); their cost lands in the caller's span
and in the measured tracing overhead, never in the wrapped layer's own
time.

Everything is kept in memory and summarised when the pass ends.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

R, O, V = "retrieval-zipf", "openbook-train", "revision-wide-vocab"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # layer, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((layer, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (layer, start, end, parent)

    # -- queries over the recorded spans --------------------------------

    def durations(self, layer: str, under: str | None = None) -> list[float]:
        return [
            end - start
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == layer and (under is None or self._has_ancestor(i, under))
        ]

    def _has_ancestor(self, idx: int, layer: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self) -> dict[str, dict]:
        """Calls, total and self time per layer (self = total minus children)."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out


# ---------------------------------------------------------------------------
# Hooks: (tracer, args, kwargs, result) -> None, run after the call returns
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _search(t, args, kwargs, hits):
    index, terms = _arg(args, kwargs, 0, "index"), _arg(args, kwargs, 1, "query_terms")
    t.sums["index.postings"] += sum(len(index.postings.get(term, ())) for term in set(terms))
    if not hits:
        t.counts["index.empty_results"] += 1


def _save_index(t, args, kwargs, _):
    t.values["index.file_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _rerank(t, args, kwargs, _):
    candidates = _arg(args, kwargs, 0, "candidates")
    query_text = _arg(args, kwargs, 1, "query_text")
    t.sums["rerank.candidates"] += len(candidates)
    t.sums["rerank.distinct_texts"] += len({c.text for c in candidates} | {query_text})


def _query(t, args, kwargs, query):
    t.sums["querygen.terms"] += len(query.terms)


def _attach(t, args, kwargs, dataset):
    t.sums["datasets.items"] += len(dataset.items)
    for item in dataset.items:
        for plist in item.premises:
            t.sums["datasets.options"] += 1
            t.sums["datasets.premises"] += len(plist)
            t.counts["datasets.options_without_premises"] += not plist


def _load_jsonl(t, args, kwargs, corpus):
    t.values["corpus.sentences"] = len(corpus)


def _evaluate(t, args, kwargs, report):
    t.values["evalreport.accuracy"] = report.accuracy


def _mlm(t, args, kwargs, _):
    model, ids = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "ids")
    mask = _arg(args, kwargs, 2, "mask")
    t.sums["encoder.logit_bytes"] += ids.size * len(model.vocab) * 8
    t.sums["encoder.masked"] += int(mask.sum())
    t.sums["encoder.positions"] += ids.size


def _backward(t, args, kwargs, _):
    seen, stack = set(), [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    t.sums["autodiff.tape_nodes"] += len(seen)


@dataclass(frozen=True)
class Wrap:
    target: str  # "module:attr" or "module:Class.attr"
    layer: str
    used_by: frozenset  # workloads on which it must be called at least once
    hook: Callable | None = None
    count_only: bool = False


def _w(target, layer, used_by, hook=None, count_only=False):
    return Wrap(target, layer, frozenset(used_by), hook, count_only)


WRAPS = (
    _w("kiqa.datasets:search", "index.search", {R, O}, _search),
    _w("kiqa.datasets:rerank", "rerank.rerank", {R, O}, _rerank),
    _w("kiqa.datasets:generate_query", "querygen.generate_query", {R, O}, _query),
    _w("kiqa.rerank:token_set", "rerank.token_set", {R, O}, count_only=True),
    _w("kiqa.rerank:token_jaccard", "rerank.token_jaccard", {R, O}, count_only=True),
    _w("kiqa.cli:attach_premises", "datasets.attach_premises", {R, O}, _attach),
    _w("kiqa.evalreport:attach_premises", "datasets.attach_premises", {O}, _attach),
    _w("kiqa.cli:build_index", "index.build_index", {R, O}),
    _w("kiqa.cli:save_index", "index.save_index", {R, O}, _save_index),
    _w("kiqa.cli:load_index", "index.load_index", {R, O}),
    _w("kiqa.cli:load_corpus", "corpus.load_corpus", {R, O, V}),
    _w("kiqa.cli:load_jsonl", "corpus.load_jsonl", {R, O, V}, _load_jsonl),
    _w("kiqa.cli:save_jsonl", "corpus.save_jsonl", {R, O, V}),
    _w("kiqa.cli:train", "fusion.train", {O}),
    _w("kiqa.evalreport:train", "fusion.train", {O}),
    _w("kiqa.cli:save_model", "fusion.save_model", {O}),
    _w("kiqa.cli:load_model", "fusion.load_model", {O}),
    _w("kiqa.evalreport:score_item", "fusion.score_item", {O}),
    _w("kiqa.fusion:score_item", "fusion.score_item", {O}),
    _w("kiqa.cli:evaluate", "evalreport.evaluate", {O}, _evaluate),
    _w("kiqa.evalreport:evaluate", "evalreport.evaluate", {O}),
    _w("kiqa.cli:sweep_m", "evalreport.sweep_m", {O}),
    _w("kiqa.cli:revision_train", "encoder.revision_train", {V}),
    _w("kiqa.cli:save_encoder", "encoder.save_encoder", {V}),
    _w("kiqa.encoder:mlm_batch_loss", "encoder.mlm_batch_loss", {V}, _mlm),
    _w("kiqa.encoder:EncoderModel.encode_ids", "encoder.encode_ids", {O}),
    _w("kiqa.autodiff:Tensor.backward", "autodiff.backward", {O, V}, _backward),
    _w("kiqa.autodiff:SGD.step", "autodiff.sgd_step", {O, V}),
    # every module that imports word_tokens calls its own binding
    _w("kiqa.textnorm:word_tokens", "textnorm.word_tokens", {R, O}, count_only=True),
    _w("kiqa.index:word_tokens", "textnorm.word_tokens", {R, O}, count_only=True),
    _w("kiqa.querygen:word_tokens", "textnorm.word_tokens", {R, O}, count_only=True),
    _w("kiqa.rerank:word_tokens", "textnorm.word_tokens", set(), count_only=True),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _make_wrapper(fn, wrap: Wrap, tracer: Tracer, hits: dict):
    layer, hook = wrap.layer, wrap.hook
    if wrap.count_only:
        def counted(*args, **kwargs):
            hits[wrap.target] += 1
            tracer.counts[layer] += 1
            return fn(*args, **kwargs)
        return counted

    def traced(*args, **kwargs):
        hits[wrap.target] += 1
        try:
            with tracer.span(layer):
                result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[layer + ".raised"] += 1
            raise
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


class Instrumentation:
    """Installs the wraps for one traced pass and removes them afterwards."""

    def __init__(self):
        self.missing: list[str] = []
        self.hits: dict[str, int] = defaultdict(int)

    @contextmanager
    def installed(self, tracer: Tracer):
        patched = []
        try:
            for wrap in WRAPS:
                try:
                    owner, attr = _resolve(wrap.target)
                    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    if wrap.target not in self.missing:
                        self.missing.append(wrap.target)
                    continue
                setattr(owner, attr, _make_wrapper(fn, wrap, tracer, self.hits))
                patched.append((owner, attr, fn))
            yield
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def unhit(self, workload: str) -> list[str]:
        return [w.target for w in WRAPS if workload in w.used_by and not self.hits[w.target]]


# ---------------------------------------------------------------------------
# Per-layer metrics of traced passes
# ---------------------------------------------------------------------------

TOP_PERCENTILE = {"index.search": 90, "rerank.rerank": 90, "fusion.score_item": 98}


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer], stage_seconds: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics pooled over ``tracers`` (one per traced pass).

    Counts are totals per pass (pooled totals divided by the pass count);
    times are means or percentiles over every pooled sample.
    """
    passes = len(tracers)

    def d(layer, under=None):
        return [x for t in tracers for x in t.durations(layer, under)]

    def total(kind, key):
        return sum(getattr(t, kind)[key] for t in tracers)

    def value(key):
        return tracers[0].values.get(key, 0.0)

    ms = 1000.0
    search, rerank, query = d("index.search"), d("rerank.rerank"), d("querygen.generate_query")
    attach = d("datasets.attach_premises")
    train_steps = d("autodiff.sgd_step", "fusion.train")
    train_bwd = d("autodiff.backward", "fusion.train")
    train_step_ms = _ratio(sum(d("fusion.train")), len(train_steps)) * ms
    rev_steps = d("autodiff.sgd_step", "encoder.revision_train")
    backward, sgd = d("autodiff.backward"), d("autodiff.sgd_step")
    mlm = d("encoder.mlm_batch_loss")
    scores = d("fusion.score_item")
    fallbacks = total("counts", "querygen.generate_query.raised")
    top = TOP_PERCENTILE
    return {
        "index.search_ms_p50": percentile(search, 50) * ms,
        f"index.search_ms_p{top['index.search']}": percentile(search, top["index.search"]) * ms,
        "index.search_calls": len(search) / passes,
        "index.postings_scanned_per_query": _ratio(total("sums", "index.postings"), len(search)),
        "index.empty_results": total("counts", "index.empty_results") / passes,
        "index.build_s": _mean(d("index.build_index")),
        "index.save_s": _mean(d("index.save_index")),
        "index.load_s": _mean(d("index.load_index")),
        "index.file_bytes": value("index.file_bytes"),
        "rerank.ms_p50": percentile(rerank, 50) * ms,
        f"rerank.ms_p{top['rerank.rerank']}": percentile(rerank, top["rerank.rerank"]) * ms,
        "rerank.calls": len(rerank) / passes,
        "rerank.candidates_per_call": _ratio(total("sums", "rerank.candidates"), len(rerank)),
        "rerank.similarity_calls_per_call":
            _ratio(total("counts", "rerank.token_jaccard"), len(rerank)),
        "rerank.tokenize_useful_ratio":
            _ratio(total("sums", "rerank.distinct_texts"), total("counts", "rerank.token_set")),
        "querygen.ms_per_call": _mean(query) * ms,
        "querygen.fallbacks": fallbacks / passes,
        "querygen.terms_per_query": _ratio(total("sums", "querygen.terms"), len(query) - fallbacks),
        "datasets.attach_ms_per_item": _ratio(sum(attach), total("sums", "datasets.items")) * ms,
        "datasets.premises_per_option":
            _ratio(total("sums", "datasets.premises"), total("sums", "datasets.options")),
        "datasets.options_without_premises":
            total("counts", "datasets.options_without_premises") / passes,
        "corpus.load_raw_s": _mean(d("corpus.load_corpus")),
        "corpus.load_jsonl_s": _mean(d("corpus.load_jsonl")),
        "corpus.save_jsonl_s": _mean(d("corpus.save_jsonl")),
        "corpus.sentences": value("corpus.sentences"),
        "fusion.train_step_ms": train_step_ms,
        "fusion.train_forward_ms":
            train_step_ms - _ratio(sum(train_bwd) + sum(train_steps), len(train_steps)) * ms
            if train_steps else 0.0,
        "fusion.encode_calls_per_step":
            _ratio(len(d("encoder.encode_ids", "fusion.train")), len(train_steps)),
        "fusion.score_item_ms_p50": percentile(scores, 50) * ms,
        f"fusion.score_item_ms_p{top['fusion.score_item']}":
            percentile(scores, top["fusion.score_item"]) * ms,
        "fusion.save_s": _mean(d("fusion.save_model")),
        "fusion.load_s": _mean(d("fusion.load_model")),
        "autodiff.tape_nodes_per_step":
            _ratio(total("sums", "autodiff.tape_nodes"), len(backward)),
        "autodiff.backward_ms_per_step": _mean(backward) * ms,
        "autodiff.sgd_ms_per_step": _mean(sgd) * ms,
        "encoder.revise_step_ms": _ratio(sum(d("encoder.revision_train")), len(rev_steps)) * ms,
        "encoder.revise_forward_ms":
            _mean(d("encoder.mlm_batch_loss", "encoder.revision_train")) * ms,
        "encoder.revise_backward_ms":
            _ratio(sum(d("autodiff.backward", "encoder.revision_train")), len(rev_steps)) * ms,
        "encoder.mlm_logits_mb_per_step":
            _ratio(total("sums", "encoder.logit_bytes"), len(mlm)) / 1e6,
        "encoder.mlm_useful_logit_share":
            _ratio(total("sums", "encoder.masked"), total("sums", "encoder.positions")),
        "evalreport.evaluate_s": _mean(d("evalreport.evaluate")),
        "evalreport.accuracy": value("evalreport.accuracy"),
        "evalreport.sweep_attach_calls":
            len(d("datasets.attach_premises", "evalreport.sweep_m")) / passes,
        "evalreport.sweep_train_s": sum(d("fusion.train", "evalreport.sweep_m")) / passes,
        "textnorm.word_tokens_calls": total("counts", "textnorm.word_tokens") / passes,
        **{f"cli.{command}_s": seconds for command, seconds in stage_seconds.items()},
    }


def samples_beyond(tracers: list[Tracer]) -> dict[str, float]:
    """How many pooled samples lie beyond each reported top percentile."""
    out = {}
    for layer, p in TOP_PERCENTILE.items():
        n = sum(len(t.durations(layer)) for t in tracers)
        out[layer] = n * (1 - p / 100)
    return out
