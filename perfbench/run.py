"""kiqa pipeline benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload retrieval-zipf --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-benchmark-json   # render spec.py into BENCHMARK.json

The workloads, their metrics and bounds are defined in ``spec.py``.  This
script generates the seeded inputs (cached under ``.perfbench/inputs``,
outside every timed region), runs the workload's CLI stages in one worker
process through ``kiqa.cli.main``, checks the outputs, and prints every
metric by name and unit.  BLAS is pinned to one thread, below ``nproc``:
the pipeline is single-threaded Python around small matrices, one BLAS
thread was no slower than two on revision in a probe, and it leaves the
second core to everything else so timings wander less.  The last line of
standard output is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` runs one untraced and two traced passes and reports the
per-layer metrics, including the tracing overhead.  Every stage run and
every check is one operation; a stage that exits non-zero, a failed
check, or an artifact whose sha256 differs between two passes of the
same run counts as a failed one.  The full record (machine facts, stage
throughputs, digests, span summary) goes to ``.perfbench/results/``.

Exits 2 without a result line when the kiqa sources are not next to the
benchmark (``src/kiqa`` under the repository root).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"
DEADLINE_S = 170  # the whole run, the first input generation included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Derived figures
# ---------------------------------------------------------------------------

def _stage_time(record: dict, command: str) -> float:
    return sum(s["seconds"] for s in record["stages"] if s["command"] == command)


def throughputs(workload: str, facts: dict, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Throughput of each stage the workload runs: all its work over all its time.

    Pooling the passes, rather than taking the median of per-pass rates,
    cut the ten-seed spread of retrieval-zipf's attach rate from 0.22 to
    0.16 of its median on the 2-vCPU machine the benchmark was tuned on,
    whose speed wanders by 10-30% over tens of seconds.
    """
    def rate(work_per_pass, command):
        return (work_per_pass * len(passes) / sum(_stage_time(p, command) for p in passes), "1/s")

    out = {}
    if workload == "retrieval-zipf":
        out["attach_items_per_s"] = rate(facts["items"], "attach")
    if workload == "openbook-train":
        out["attach_items_per_s"] = rate(facts["train_items"] + facts["dev_items"], "attach")
        out["train_items_per_s"] = rate(facts["train_items"] * facts["epochs"], "train")
        out["eval_items_per_s"] = rate(facts["dev_items"], "eval")
    if workload == "revision-wide-vocab":
        out["revise_tokens_per_s"] = rate(facts["tokens"] * facts["epochs"], "revise")
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def output_checks(workload: str, inp: Path, out: Path) -> list[tuple[str, bool, str]]:
    """Checks on the first pass's artifacts."""
    import checks
    import inputs as gen
    from kiqa.corpus import load_jsonl

    corpus = load_jsonl(out / "corpus.jsonl")
    if workload == "revision-wide-vocab":
        return [checks.revision_loss(out / "corpus.jsonl", inp / "heldout.txt",
                                     out / "encoder.kenc", gen.REVISION_D,
                                     gen.REVISION_MASK_PROB)]
    from kiqa.index import load_index

    index = load_index(out / "index.kiix")
    oracle = checks.BruteBm25(corpus, index.params.k1, index.params.b)
    if workload == "retrieval-zipf":
        return [
            checks.bm25_oracle(oracle, index, inp / "items.jsonl", gen.ATTACH_K),
            checks.premises(oracle, corpus, [(inp / "items.jsonl", out / "attached.jsonl")],
                            gen.ATTACH_M, gen.ATTACH_K),
        ]
    return [
        checks.premises(oracle, corpus, [(inp / "train.jsonl", out / "train_open.jsonl"),
                                         (inp / "dev.jsonl", out / "dev_open.jsonl")],
                        gen.OPENBOOK_M, gen.ATTACH_K),
        checks.accuracy_floor(out / "report.json"),
    ]


def digest_checks(runs: list[list[dict]]) -> list[tuple[str, bool, str]]:
    """Every later pass or set-up rerun wrote the same bytes as the first."""
    def digests(stages):
        return {(s["label"], name): d for s in stages for name, d in s["digests"].items()}

    first = digests(runs[0])
    out = []
    for n, stages in enumerate(runs[1:], start=1):
        mine = digests(stages)
        differing = sorted(f"{label}:{name}" for (label, name), d in mine.items()
                           if first.get((label, name)) != d)
        out.append((f"byte-identity-{n}", not differing, f"differing {differing}"))
    return out


def trace_checks(trace: dict) -> list[tuple[str, bool, str]]:
    import spec

    exact = [m.name for m in spec.PER_LAYER if m.exact]
    first, second = trace["per_pass"]
    moved = [name for name in exact if first[name] != second[name]]
    thin = [layer for layer, beyond in trace["samples_beyond"].items() if 0 < beyond < 10]
    return [
        ("trace-names-resolve", not trace["missing"], f"missing {trace['missing']}"),
        ("trace-names-hit", not trace["unhit"], f"never called {trace['unhit']}"),
        ("trace-counts-repeat", not moved, f"differ between traced passes {moved}"),
        ("trace-percentile-samples", not thin, f"under 10 samples beyond the top {thin}"),
    ]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def write_benchmark_json() -> int:
    import spec

    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # subprocess.run then kills and reaps the worker


def main(argv=None) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        return write_benchmark_json()

    import spec

    if args.workload not in spec.WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(spec.WORKLOAD_NAMES)}")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    if not (SRC / "kiqa" / "cli.py").is_file():
        print(f"error: kiqa sources not found under {SRC}", file=sys.stderr)
        return 2

    # thread limits must be in place before numpy loads BLAS, here and in the worker
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    # a fixed string-hash seed keeps dict and set layouts the same from run to run
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, str(SRC))
    import inputs as gen

    inp = gen.ensure_inputs(CACHE / "inputs", args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = CACHE / "work" / f"{tag}-{os.getpid()}"
    result_path = CACHE / "results" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    raw_path = work / "worker.json"
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--inputs", str(inp.dir), "--work", str(work), "--seconds", str(seconds),
             "--trace", str(args.trace), "--out", str(raw_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
        if proc.returncode != 0 or not raw_path.is_file():
            print(f"error: worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return 1
        raw = json.loads(raw_path.read_text(encoding="utf-8"))
        return report(args, spec, inp, work, raw, result_path)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {DEADLINE_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, spec, inp, work: Path, raw: dict, result_path: Path) -> int:
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    ops = [(f"stage-{s['label']}-{n}", s["rc"] == 0, s["stderr"].strip())
           for n, p in enumerate(passes) for s in p["stages"]]
    extra_setups = raw["setups"][len(untraced):]
    ops += [(f"stage-{s['label']}-setup{n}", s["rc"] == 0, s["stderr"].strip())
            for n, stages in enumerate(extra_setups) for s in stages]
    ops += digest_checks([p["stages"] for p in passes] + extra_setups)
    if not all(ok for _, ok, _ in ops[: len(passes[0]["stages"])]):
        ops.append(("output-checks", False, "first pass failed; outputs not checked"))
    else:
        try:
            ops += output_checks(args.workload, inp.dir, work / "pass0")
        except Exception as exc:  # an unreadable artifact fails the checks, not the run
            ops.append(("output-checks", False, f"{type(exc).__name__}: {exc}"))
    if args.trace:
        ops += trace_checks(raw["trace"])
    failed = [(name, detail) for name, ok, detail in ops if not ok]

    stage_rates = throughputs(args.workload, inp.facts, untraced)
    workload = next(w for w in spec.WORKLOADS if w.name == args.workload)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload.why,
        "work_per_s_is": workload.work_metric,
        "machine": machine_facts(),
        "input_facts": inp.facts,
        "stage_throughputs": {k: {"value": v, "unit": u} for k, (v, u) in stage_rates.items()},
        "operations": [{"name": n, "ok": ok, "detail": d} for n, ok, d in ops],
        "passes": passes,
        "setups": raw["setups"],
    }
    if args.trace:
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        layers = dict(raw["trace"]["layers"])
        layers["trace.overhead_s"] = traced_wall - untraced[0]["wall_s"]
        values = layers
        record["span_summary"] = raw["trace"]["summary"]
    else:
        values = {
            "setup_s": statistics.median(sum(s["seconds"] for s in stages)
                                         for stages in raw["setups"]),
            "pipeline_s": statistics.mean(p["wall_s"] for p in untraced),
            "work_per_s": stage_rates[workload.work_metric][0],
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_share": (len(ops) - len(failed)) / len(ops),
        }
        record["failed_share"] = len(failed) / len(ops)
        report_path = work / "pass0" / "report.json"
        if report_path.is_file():
            record["accuracy"] = json.loads(report_path.read_text(encoding="utf-8"))["accuracy"]
    # exactly the metrics spec.py lists, in its order and with its units
    listed = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {m.name: (values[m.name], m.unit) for m in listed}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    facts = record["machine"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {workload.why}")
    print(f"# work_per_s here is {workload.work_metric}")
    print(f"# nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"BLAS threads {facts['blas_threads']}, blas {json.dumps(facts['blas'])}")
    for name, (value, unit) in {**metrics, **stage_rates}.items():
        print(f"{name} {value!r} {unit}")
    if not args.trace:
        print(f"failed_share {record['failed_share']!r} share of {len(ops)} attempted")
        if "accuracy" in record:
            print(f"accuracy {record['accuracy']!r} share")
    for name, detail in failed:
        print(f"# FAILED {name}: {detail}")
    print(f"# full record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
