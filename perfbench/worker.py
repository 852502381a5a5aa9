"""One workload's measured passes, in one process, through ``kiqa.cli.main``.

Run by ``run.py`` with the thread settings already in the environment:

    python3 perfbench/worker.py --workload NAME --inputs DIR --work DIR \
        --seconds N --trace 0|1 --out RESULT.json

A pass runs every stage of the workload in order, each writing into its
own pass directory.  Untraced (``--trace 0``): passes repeat until the
next one would end after ``--seconds``, at least ``MIN_PASSES`` of them.
Traced (``--trace 1``): one untraced pass, then ``TRACED_PASSES`` traced
ones.  Untraced, the set-up stages (corpus-prep, index-build) are then
rerun on their own until there are ``MIN_SETUPS`` set-up samples, and
further while they fit in ``SETUP_EXTRA_S``, up to ``MAX_SETUPS``: a
set-up of a few tens of ms needs many samples for a steady median.
A stage that raises counts as a stage that exited 1.  The result file
holds stage times, artifact digests, peak RSS and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 2
TRACED_PASSES = 2
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_EXTRA_S = 1.0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def run_stages(stages, tracer=None) -> dict:
    from kiqa.cli import main

    records = []
    pass_start = time.monotonic()
    for stage in stages:
        err = io.StringIO()
        span = tracer.span(f"cli.{stage.command}") if tracer else contextlib.nullcontext()
        start, cpu_start = time.monotonic(), time.process_time()
        with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(list(stage.argv))
            except Exception:
                traceback.print_exc()
                rc = 1
        end = time.monotonic()
        records.append({
            "label": stage.label, "command": stage.command, "start": start, "end": end,
            "seconds": end - start, "cpu_s": time.process_time() - cpu_start, "rc": rc,
            "stderr": err.getvalue()[-500:],
            "digests": {p.name: _digest(p) for p in stage.outputs},
        })
    return {"wall_s": time.monotonic() - pass_start, "stages": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import kiqa.cli  # noqa: F401  imports stay outside every timed region
    from stages import SETUP_COMMANDS, workload_stages

    def stages_for(tag):
        out = args.work / tag
        out.mkdir(parents=True, exist_ok=True)
        return workload_stages(args.workload, args.inputs, out)

    passes, tracers = [], []
    instrumentation = None
    if args.trace:
        from tracing import Instrumentation, Tracer

        instrumentation = Instrumentation()
    deadline = time.monotonic() + args.seconds
    while True:
        n = len(passes)
        traced = bool(args.trace) and n > 0
        gc.collect()
        if traced:
            tracer = Tracer()
            with instrumentation.installed(tracer):
                record = run_stages(stages_for(f"pass{n}"), tracer)
            tracers.append(tracer)
        else:
            record = run_stages(stages_for(f"pass{n}"))
        record["traced"] = traced
        passes.append(record)
        if args.trace:
            if len(passes) == 1 + TRACED_PASSES:
                break
        elif len(passes) >= MIN_PASSES and time.monotonic() + record["wall_s"] > deadline:
            break

    setups = [[s for s in p["stages"] if s["command"] in SETUP_COMMANDS]
              for p in passes if not p["traced"]]
    extra_until = time.monotonic() + SETUP_EXTRA_S
    while not args.trace and (len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and time.monotonic() < extra_until)):
        gc.collect()
        setup_stages = [s for s in stages_for(f"setup{len(setups)}") if s.is_setup]
        setups.append(run_stages(setup_stages)["stages"])

    result = {
        "passes": passes,
        "setups": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        import spec
        from tracing import layer_metrics, samples_beyond

        # every cli.<command>_s metric, 0 for commands this workload does not run
        commands = [m.name[len("cli."):-len("_s")] for m in spec.PER_LAYER
                    if m.name.startswith("cli.")]
        stage_seconds = {
            command: sum(s["seconds"] for p in passes if p["traced"]
                         for s in p["stages"] if s["command"] == command) / len(tracers)
            for command in commands
        }
        result["trace"] = {
            "layers": layer_metrics(tracers, stage_seconds),
            "per_pass": [layer_metrics([t], {}) for t in tracers],
            "summary": tracers[0].summary(),
            "missing": instrumentation.missing,
            "unhit": instrumentation.unhit(args.workload),
            "samples_beyond": samples_beyond(tracers),
        }
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
