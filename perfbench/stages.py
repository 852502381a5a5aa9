"""The CLI stages each workload runs, in order, and the files they write."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

SETUP_COMMANDS = ("corpus-prep", "index-build")


@dataclass(frozen=True)
class Stage:
    label: str  # unique within a pass, e.g. "attach-dev"
    command: str  # the kiqa subcommand
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]

    @property
    def is_setup(self) -> bool:
        return self.command in SETUP_COMMANDS


def _stage(label: str, command: str, outputs: tuple[Path, ...], **flags) -> Stage:
    argv = [command]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return Stage(label, command, tuple(argv), outputs)


def workload_stages(workload: str, inp: Path, out: Path) -> list[Stage]:
    corpus, index = out / "corpus.jsonl", out / "index.kiix"
    prep = _stage("corpus-prep", "corpus-prep", (corpus,), input=inp / "corpus.txt", out=corpus)
    build = _stage("index-build", "index-build", (index,), corpus=corpus, out=index)

    def attach(label, dataset, attached):
        return _stage(label, "attach", (attached,), dataset=dataset, corpus=corpus,
                      index=index, config=inp / "attach.cfg", out=attached)

    if workload == "retrieval-zipf":
        return [prep, build, attach("attach", inp / "items.jsonl", out / "attached.jsonl")]
    if workload == "openbook-train":
        train_open, dev_open = out / "train_open.jsonl", out / "dev_open.jsonl"
        model, report, preds, sweep = (out / "model.kfus", out / "report.json",
                                       out / "predictions.jsonl", out / "sweep.csv")
        return [
            prep, build,
            attach("attach-train", inp / "train.jsonl", train_open),
            attach("attach-dev", inp / "dev.jsonl", dev_open),
            _stage("train", "train", (model,), dataset=train_open,
                   config=inp / "train.cfg", out=model),
            _stage("eval", "eval", (report, preds), model=model, dataset=dev_open,
                   predictions=preds, out=report),
            _stage("sweep-m", "sweep-m", (sweep,), model=model, train=inp / "train.jsonl",
                   eval=inp / "dev.jsonl", corpus=corpus, index=index,
                   config=inp / "sweep.cfg", out=sweep),
        ]
    if workload == "revision-wide-vocab":
        encoder = out / "encoder.kenc"
        return [prep, _stage("revise", "revise", (encoder,), corpus=corpus,
                             config=inp / "revise.cfg", out=encoder)]
    raise ValueError(f"unknown workload {workload!r}")
