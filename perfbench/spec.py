"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of the metric names, units and bounds;
``python3 perfbench/run.py --write-benchmark-json`` renders it into the
``BENCHMARK.json`` contract file at the repository root, and every run
checks that it printed exactly the metrics listed here.

End-to-end metrics must exist, and be non-zero, on every workload, so the
stage throughputs the workloads do not share (attach, train, revise, eval)
are folded into one ``work_per_s`` figure: the rate of the stage each
workload is built around.  The per-stage throughputs, accuracy and
failed share are still printed by name on every run and kept in the
result file.  A per-layer metric of a layer that a workload never calls
reads 0 on that workload.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    work_metric: str  # the stage throughput reported as work_per_s


WORKLOADS = (
    WorkloadSpec(
        "retrieval-zipf",
        "50k-sentence Zipf corpus with long posting lists: BM25 search dominates "
        "attach, and no training runs, so fusion and autodiff changes must not move it",
        "attach_items_per_s",
    ),
    WorkloadSpec(
        "openbook-train",
        "scattered-evidence toy task on a 768-sentence corpus: per-item encoding dominates "
        "training and eval, and search takes ~1 ms, so retrieval changes must not move it",
        "train_items_per_s",
    ),
    WorkloadSpec(
        "revision-wide-vocab",
        "masked-token revision over a ~3.6k-word Zipf vocabulary: few large (B, L, V) "
        "ops, so vocabulary-scaling and tape fixes show apart from openbook-train",
        "revise_tokens_per_s",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    exact: bool = False  # per-layer count that must repeat across traced passes


# Timing bounds are wide (0.25): on the 2-vCPU machine the benchmark was
# tuned on, a fixed pure-Python loop drifts by up to 30% over tens of
# seconds, and ten seeded runs of unchanged code spread by 6-17% of their
# median (interquartile range) on pipeline_s and work_per_s.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pipeline_s", "s", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("ok_share", "share", "higher", 0.01),
)

# Percentile suffixes are the highest of p90/p95/p98/p99 with at least ten
# pooled samples beyond it on the workload that calls the layer least;
# tracing.TOP_PERCENTILE holds them and a traced run checks the count.
PER_LAYER = (
    Metric("index.search_ms_p50", "ms", "lower"),
    Metric("index.search_ms_p90", "ms", "lower"),
    Metric("index.search_calls", "count", "lower", exact=True),
    Metric("index.postings_scanned_per_query", "count", "lower", exact=True),
    Metric("index.empty_results", "count", "lower", exact=True),
    Metric("index.build_s", "s", "lower"),
    Metric("index.save_s", "s", "lower"),
    Metric("index.load_s", "s", "lower"),
    Metric("index.file_bytes", "bytes", "lower", exact=True),
    Metric("rerank.ms_p50", "ms", "lower"),
    Metric("rerank.ms_p90", "ms", "lower"),
    Metric("rerank.calls", "count", "lower", exact=True),
    Metric("rerank.candidates_per_call", "count", "lower", exact=True),
    Metric("rerank.similarity_calls_per_call", "count", "lower", exact=True),
    Metric("rerank.tokenize_useful_ratio", "ratio", "higher", exact=True),
    Metric("querygen.ms_per_call", "ms", "lower"),
    Metric("querygen.fallbacks", "count", "lower", exact=True),
    Metric("querygen.terms_per_query", "count", "lower", exact=True),
    Metric("datasets.attach_ms_per_item", "ms", "lower"),
    Metric("datasets.premises_per_option", "count", "higher", exact=True),
    Metric("datasets.options_without_premises", "count", "lower", exact=True),
    Metric("corpus.load_raw_s", "s", "lower"),
    Metric("corpus.load_jsonl_s", "s", "lower"),
    Metric("corpus.save_jsonl_s", "s", "lower"),
    Metric("corpus.sentences", "count", "higher", exact=True),
    Metric("fusion.train_step_ms", "ms", "lower"),
    Metric("fusion.train_forward_ms", "ms", "lower"),
    Metric("fusion.encode_calls_per_step", "count", "lower", exact=True),
    Metric("fusion.score_item_ms_p50", "ms", "lower"),
    Metric("fusion.score_item_ms_p98", "ms", "lower"),
    Metric("fusion.save_s", "s", "lower"),
    Metric("fusion.load_s", "s", "lower"),
    Metric("autodiff.tape_nodes_per_step", "count", "lower", exact=True),
    Metric("autodiff.backward_ms_per_step", "ms", "lower"),
    Metric("autodiff.sgd_ms_per_step", "ms", "lower"),
    Metric("encoder.revise_step_ms", "ms", "lower"),
    Metric("encoder.revise_forward_ms", "ms", "lower"),
    Metric("encoder.revise_backward_ms", "ms", "lower"),
    Metric("encoder.mlm_logits_mb_per_step", "MB-computed", "lower", exact=True),
    Metric("encoder.mlm_useful_logit_share", "share", "higher", exact=True),
    Metric("evalreport.evaluate_s", "s", "lower"),
    Metric("evalreport.accuracy", "share", "higher", exact=True),
    Metric("evalreport.sweep_attach_calls", "count", "lower", exact=True),
    Metric("evalreport.sweep_train_s", "s", "lower"),
    Metric("textnorm.word_tokens_calls", "count", "lower", exact=True),
    Metric("cli.corpus-prep_s", "s", "lower"),
    Metric("cli.index-build_s", "s", "lower"),
    Metric("cli.attach_s", "s", "lower"),
    Metric("cli.train_s", "s", "lower"),
    Metric("cli.eval_s", "s", "lower"),
    Metric("cli.sweep-m_s", "s", "lower"),
    Metric("cli.revise_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
)


def benchmark_json() -> dict:
    """The contract file's content, in its fixed key order."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
