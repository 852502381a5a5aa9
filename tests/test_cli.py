"""End-to-end tests for the command-line pipeline driver."""

import argparse
import collections
import contextlib
import errno
import functools
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kiqa
import kiqa.cli
import kiqa.corpus
import kiqa.encoder
from kiqa.autodiff import Tensor
from kiqa.cli import Config, build_parser, main, parse_config_file
from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence, load_jsonl, save_jsonl
from kiqa.datasets import RETRIEVE_K, load_mcq, save_mcq_jsonl
from kiqa.encoder import load_encoder, save_encoder
from kiqa.fusion import load_model, save_model
from kiqa.index import build_index, load_index, save_index
from kiqa.toytasks import make_planted_evidence_task, route_premises
from kiqa.textio import InputError

from corpora import corpus_of
from frames import MARK, patched, replace_f8, unframe
from test_reachability import load_perfbench

RAW_LINES = (
    "the sky is blue today\n"
    "the grass is green here\n"
    "the sun is yellow now\n"
    "the sea is salty water\n"
)
QUESTIONS = [
    {"id": "q1", "question": "what colour is the sky", "options": ["blue", "green"], "gold": 0},
    {"id": "q2", "question": "what colour is the grass", "options": ["yellow", "green"], "gold": 1},
]
# A chain of 13 parent facts, enough persons for pfqa-gen's three splits (20/3/2 at seed 0).
NAMES = "Alice Bob Carol Dave Eve Frank Grace Heidi Ivan Judy Mallory Niaj Olivia Peggy".split()
FACTS = "".join(f"{child}\t{parent}\n" for child, parent in zip(NAMES, NAMES[1:]))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run the pipeline once on tiny data; tests inspect the artifacts."""
    d = tmp_path_factory.mktemp("cli")
    (d / "raw.txt").write_text(RAW_LINES, encoding="utf-8")
    (d / "qs.jsonl").write_text(
        "".join(json.dumps(q) + "\n" for q in QUESTIONS), encoding="utf-8"
    )
    (d / "attach.cfg").write_text("m = 2\nlambda = 0.5\n", encoding="utf-8")
    (d / "train.cfg").write_text('head = "concat"\nd = 8\nepochs = 2\n', encoding="utf-8")
    (d / "revise.cfg").write_text("d = 8\nepochs = 1\n", encoding="utf-8")
    (d / "sweep.cfg").write_text("m_values = [1]\nretrain = false\n", encoding="utf-8")
    # text inputs that only the text-input tests read
    (d / "piqa.jsonl").write_text(json.dumps(
        {"goal": "what colour is the sky", "sol1": "blue", "sol2": "green", "label": 0}) + "\n",
        encoding="utf-8")
    (d / "map.json").write_text(json.dumps(
        {"id": "id", "fields": ["goal", "sol1", "sol2"], "label": "label", "label_base": 0}),
        encoding="utf-8")
    (d / "emb.txt").write_text("sky 0.5 1.0\nblue 1.0 0.0\ngrass 0.0 1.0\n", encoding="utf-8")
    (d / "facts.tsv").write_text(FACTS, encoding="utf-8")
    steps = [
        ["corpus-prep", "--input", str(d / "raw.txt"), "--out", str(d / "corpus.jsonl")],
        ["index-build", "--corpus", str(d / "corpus.jsonl"), "--out", str(d / "index.kiix")],
        ["attach", "--dataset", str(d / "qs.jsonl"), "--corpus", str(d / "corpus.jsonl"),
         "--index", str(d / "index.kiix"), "--config", str(d / "attach.cfg"),
         "--out", str(d / "attached.jsonl")],
        ["train", "--dataset", str(d / "attached.jsonl"), "--config", str(d / "train.cfg"),
         "--out", str(d / "model.bin")],
        ["revise", "--corpus", str(d / "corpus.jsonl"), "--config", str(d / "revise.cfg"),
         "--out", str(d / "encoder.kenc")],
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for argv in steps:
            assert main(argv) == 0
    (d / "stdout.txt").write_text(printed.getvalue(), encoding="utf-8")
    return d


# ---------------------------------------------------------------------------
# Stage outputs
# ---------------------------------------------------------------------------

def test_corpus_prep_output_loads(artifacts):
    corpus = load_jsonl(artifacts / "corpus.jsonl")
    assert len(corpus) == 4
    assert corpus.sentences[0].text == "the sky is blue today"


def test_corpus_prep_prepared_jsonl_is_identity(artifacts, tmp_path):
    out = tmp_path / "again.jsonl"
    rc = main(["corpus-prep", "--input", str(artifacts / "corpus.jsonl"),
               "--format", "prepared-jsonl", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (artifacts / "corpus.jsonl").read_bytes()


def test_index_build_respects_config(artifacts, tmp_path):
    cfg = tmp_path / "bm25.cfg"
    cfg.write_text("k1 = 2.0\nb = 0.5\n", encoding="utf-8")
    out = tmp_path / "index.kiix"
    assert main(["index-build", "--corpus", str(artifacts / "corpus.jsonl"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() != (artifacts / "index.kiix").read_bytes()


def test_index_build_rejects_params_outside_the_bm25_range(artifacts, tmp_path, capsys):
    cfg = tmp_path / "bm25.cfg"
    cfg.write_text("k1 = -1.0\nb = 0.0\n", encoding="utf-8")
    assert main(["index-build", "--corpus", str(artifacts / "corpus.jsonl"),
                 "--config", str(cfg), "--out", str(tmp_path / "i.kiix")]) == 1
    assert "k1 >= 0" in one_error_line(capsys)
    assert not (tmp_path / "i.kiix").exists()


@pytest.mark.parametrize(
    "fmt, record",
    [
        ("titled-paragraphs", {"title": 5, "text": "A b. C d."}),
        ("titled-paragraphs", {"title": "T", "text": 7}),
        ("atomic-events", {"event": "PersonX eats", "dimension": "xWant", "inference": ["x"]}),
    ],
)
def test_corpus_prep_with_a_non_string_field_exits_1(tmp_path, capsys, fmt, record):
    good = {"title": "T", "text": "A b."} if fmt == "titled-paragraphs" else {
        "event": "PersonX eats", "dimension": "xWant", "inference": "food"}
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    rc = main(["corpus-prep", "--input", str(raw), "--format", fmt, "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith(f"error: {raw}:2: ")
    assert not out.exists()


RAW_RECORDS = {
    "titled-paragraphs": [
        {"title": "Bake bread", "text": "Mix the flour. Knead the dough. Bake it hot."},
        {"title": "Water plants", "text": "Fill the can. Pour it slowly."},
    ],
    "atomic-events": [
        {"event": "PersonX bakes bread", "dimension": "xReact", "inference": "proud"},
        {"event": "PersonX greets PersonY", "dimension": "oReact", "inference": "welcome"},
    ],
}


def prep_raw(tmp_path, fmt, out_name="corpus.jsonl", seed=0):
    """``corpus-prep --format fmt --seed seed`` on RAW_RECORDS[fmt]; the written corpus file."""
    raw, out = tmp_path / f"{fmt}.jsonl", tmp_path / out_name
    raw.write_text("".join(json.dumps(r) + "\n" for r in RAW_RECORDS[fmt]), encoding="utf-8")
    assert run_quietly(["corpus-prep", "--input", raw, "--format", fmt, "--seed", seed,
                        "--out", out]) == (0, [])
    return out


@pytest.mark.parametrize("fmt", sorted(RAW_RECORDS))
def test_corpus_prep_of_a_raw_format_reruns_to_the_same_bytes(tmp_path, fmt):
    first, again = prep_raw(tmp_path, fmt, "a.jsonl"), prep_raw(tmp_path, fmt, "b.jsonl")
    assert first.read_bytes() == again.read_bytes()
    assert len(load_jsonl(first)) == {"titled-paragraphs": 5, "atomic-events": 2}[fmt]


# sha256 of the text and integer artifacts of the fixed inputs above: a change
# to any byte the loaders, pfqa-gen or index-build write shows here.  Models
# and encoders are left out, since their bits depend on the BLAS build.
PINNED_SHA256 = {
    "atomic-events seed 0": "4957c410ba97a2c68d8ef9679dd1bac2af8e2e5922fb6827be2970a617a7a703",
    "atomic-events seed 5": "8a31a4767de5c0622d95ee1e53c2472903771a9c4107f44c7f6b6f891b99616f",
    "titled-paragraphs": "813b62cfb3e488cb4945631b5906e1355ffd7974f29b66f5d5399ec5d26c2560",
    "plain-lines": "0c4ff36a038c0089273b1dba8d326061b2f7c7718020b4d2baca0b188716aa23",
    "pfqa-gen knowledge": "b13ac15b0bb09a0a28309be634fb02836c05128a60ae58990f3780c5e67b36f5",
    "index": "a1c1d2ec668be08664c2bab337444b18e740d30c5b0791280244f259b98973ab",
}


def test_prepared_corpus_and_index_bytes_are_pinned(artifacts, tmp_path):
    facts = tmp_path / "facts.tsv"
    facts.write_text(FACTS, encoding="utf-8")
    assert run_quietly(["pfqa-gen", "--facts", facts, "--out", tmp_path / "pfqa"]) == (0, [])
    files = {
        "atomic-events seed 0": prep_raw(tmp_path, "atomic-events", "a0.jsonl"),
        "atomic-events seed 5": prep_raw(tmp_path, "atomic-events", "a5.jsonl", seed=5),
        "titled-paragraphs": prep_raw(tmp_path, "titled-paragraphs"),
        "plain-lines": artifacts / "corpus.jsonl",
        "pfqa-gen knowledge": tmp_path / "pfqa" / "knowledge.jsonl",
        "index": artifacts / "index.kiix",
    }
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in files.items()} == PINNED_SHA256


def test_corpus_prep_names_atomic_persons_from_the_packaged_pool(tmp_path):
    pool = kiqa.corpus.load_name_pool()
    names = (Path(kiqa.corpus.__file__).parent / "data" / "neutral_names.txt").read_text(
        encoding="utf-8").split()
    assert pool == names and len(set(pool)) > 2
    texts = load_jsonl(prep_raw(tmp_path, "atomic-events")).texts
    x = re.fullmatch(r"(\w+) bakes bread, as a result \1 feels proud\.", texts[0])
    xy = re.fullmatch(r"(\w+) greets (\w+), as a result others feel welcome\.", texts[1])
    assert x and xy and xy[1] != xy[2]
    assert {x[1], xy[1], xy[2]} <= set(pool)


def test_revise_on_titled_paragraphs_trains_the_adjacent_sentence_objective(tmp_path,
                                                                           monkeypatch):
    corpus = prep_raw(tmp_path, "titled-paragraphs")
    *records, last = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    assert json.loads(last) == {"paragraphs": [[0, 3], [3, 5]]}
    flat = tmp_path / "flat.jsonl"
    flat.write_text("".join(records), encoding="utf-8")
    cfg = tmp_path / "revise.cfg"
    cfg.write_text("d = 8\nepochs = 2\n", encoding="utf-8")
    calls, real = [], kiqa.encoder._nsp_epoch

    def nsp_epoch(model, sequences, pairs, *rest):
        calls.append(pairs)
        return real(model, sequences, pairs, *rest)

    monkeypatch.setattr(kiqa.encoder, "_nsp_epoch", nsp_epoch)
    runs = {}
    for name, src in [("titled", corpus), ("again", corpus), ("flat", flat)]:
        out = tmp_path / f"{name}.kenc"
        assert run_quietly(["revise", "--corpus", src, "--config", cfg, "--out", out]) == (0, [])
        runs[name] = out.read_bytes(), calls[:]
        calls.clear()
    # one pass per epoch over the neighbours within each paragraph
    assert runs["titled"][1] == [[(0, 1), (1, 2), (3, 4)]] * 2
    assert runs["flat"][1] == []
    assert runs["titled"] == runs["again"]
    assert runs["titled"][0] != runs["flat"][0]


def test_attach_bounds_premises_by_m(artifacts):
    dataset = load_mcq(artifacts / "attached.jsonl", "generic")
    for item in dataset.items:
        assert item.premises is not None
        assert all(1 <= len(plist) <= 2 for plist in item.premises)


def test_attach_inline_index_matches_prebuilt(artifacts, tmp_path):
    out = tmp_path / "attached.jsonl"
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(artifacts / "attach.cfg"), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (artifacts / "attached.jsonl").read_bytes()


def test_pfqa_gen_writes_knowledge_and_splits(tmp_path):
    facts = tmp_path / "facts.tsv"
    facts.write_text(FACTS, encoding="utf-8")
    out = tmp_path / "pfqa"
    assert main(["pfqa-gen", "--facts", str(facts), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "dev.jsonl", "knowledge.jsonl", "test.jsonl", "train.jsonl"
    ]
    knowledge = load_jsonl(out / "knowledge.jsonl")
    assert len(knowledge) == 13
    assert "Bob" in knowledge.sentences[0].text
    sizes = [
        len((out / f"{n}.jsonl").read_text(encoding="utf-8").splitlines())
        for n in ("train", "dev", "test")
    ]
    assert sizes[0] >= sizes[1] >= sizes[2] > 0
    assert len(load_mcq(out / "train.jsonl", "generic")) == sizes[0]


def test_pfqa_gen_refuses_a_split_that_comes_out_empty(tmp_path, capsys):
    # six facts put every person's questions in train or dev at seed 0
    facts = tmp_path / "facts.tsv"
    facts.write_text("".join(f"{c}\t{p}\n" for c, p in zip(NAMES[:6], NAMES[1:7])),
                     encoding="utf-8")
    assert main(["pfqa-gen", "--facts", str(facts), "--out", str(tmp_path / "pfqa")]) == 1
    assert one_error_line(capsys) == \
        "error: no questions in the test split (9/2/0 train/dev/test); give more facts"
    assert os.listdir(tmp_path) == ["facts.tsv"]


def test_pfqa_gen_checks_all_outputs_before_writing_any(tmp_path, capsys):
    facts = tmp_path / "facts.tsv"
    facts.write_text(FACTS, encoding="utf-8")
    out = tmp_path / "pfqa"
    out.mkdir()
    old = {name: f"the old {name}\n".encode() for name in ("knowledge", "train", "dev")}
    for name, data in old.items():
        (out / f"{name}.jsonl").write_bytes(data)
    (out / "test.jsonl").mkdir()
    assert main(["pfqa-gen", "--facts", str(facts), "--out", str(out)]) == 2
    assert one_error_line(capsys).endswith(f": {str(out / 'test.jsonl')!r}")
    for name, data in old.items():
        assert (out / f"{name}.jsonl").read_bytes() == data
    assert sorted(os.listdir(out)) == ["dev.jsonl", "knowledge.jsonl", "test.jsonl", "train.jsonl"]


def test_revise_writes_loadable_encoder(artifacts, tmp_path):
    cfg = tmp_path / "rev.cfg"
    cfg.write_text("d = 8\nepochs = 2\nlr = 0.05\n", encoding="utf-8")
    out = tmp_path / "enc.bin"
    assert main(["revise", "--corpus", str(artifacts / "corpus.jsonl"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    encoder = load_encoder(out)
    assert encoder.config.d == 8
    # continuing from an existing checkpoint is allowed
    out2 = tmp_path / "enc2.bin"
    assert main(["revise", "--corpus", str(artifacts / "corpus.jsonl"),
                 "--encoder", str(out), "--config", str(cfg), "--out", str(out2)]) == 0
    assert load_encoder(out2).config.d == 8


def test_train_then_eval_writes_report_and_predictions(artifacts, tmp_path):
    report_path = tmp_path / "report.json"
    preds_path = tmp_path / "preds.jsonl"
    rc = main(["eval", "--model", str(artifacts / "model.bin"),
               "--dataset", str(artifacts / "attached.jsonl"),
               "--predictions", str(preds_path), "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["n_items"] == 2
    assert 0.0 <= report["accuracy"] <= 1.0
    assert len(preds_path.read_text(encoding="utf-8").splitlines()) == 2


def test_train_uses_pretrained_encoder(artifacts, tmp_path):
    cfg = tmp_path / "rev.cfg"
    cfg.write_text("d = 8\nepochs = 1\n", encoding="utf-8")
    enc = tmp_path / "enc.bin"
    assert main(["revise", "--corpus", str(artifacts / "corpus.jsonl"),
                 "--config", str(cfg), "--out", str(enc)]) == 0
    tcfg = tmp_path / "t.cfg"
    tcfg.write_text('head = "parallel-max"\nepochs = 1\n', encoding="utf-8")
    out = tmp_path / "m.bin"
    assert main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                 "--encoder", str(enc), "--config", str(tcfg), "--out", str(out)]) == 0
    model = load_model(out)
    assert model.head == "parallel-max"
    assert model.encoder.config.d == 8


def test_closed_book_strategy_trains_baseline_head(artifacts, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text('head = "baseline"\nd = 8\nepochs = 1\n', encoding="utf-8")
    out = tmp_path / "m.bin"
    assert main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert load_model(out).head == "baseline"


def test_revision_strategy_pretrains_inline(artifacts, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        'head = "simple-sum"\nd = 8\nepochs = 1\nrev_epochs = 1\n',
        encoding="utf-8",
    )
    out = tmp_path / "m.bin"
    assert main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                 "--corpus", str(artifacts / "corpus.jsonl"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    # --corpus alone turns revision on: corpus-only words are in the vocabulary
    # exactly because revision saw them
    assert load_model(out).encoder.vocab.id_of("salty") is not None


def test_sweep_m_writes_requested_rows(artifacts, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("m_values = [1, 2]\nepochs = 1\nlambda = 0.5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-m", "--model", str(artifacts / "model.bin"),
               "--train", str(artifacts / "qs.jsonl"), "--eval", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,accuracy"
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2"]


def test_sweep_m_requires_m_values(artifacts, tmp_path, capsys):
    rc = main(["sweep-m", "--model", str(artifacts / "model.bin"),
               "--train", str(artifacts / "qs.jsonl"), "--eval", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "m_values" in capsys.readouterr().err


@pytest.mark.parametrize("m_values", ["[1, 1]", "[2, 1]"])
def test_sweep_m_rejects_depths_not_strictly_ascending(artifacts, tmp_path, capsys, m_values):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"m_values = {m_values}\nretrain = false\n", encoding="utf-8")
    rc = main(["sweep-m", "--model", str(artifacts / "model.bin"),
               "--train", str(artifacts / "qs.jsonl"), "--eval", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert one_error_line(capsys) == f"error: m values must be strictly ascending, got {m_values}"
    assert not (tmp_path / "s.csv").exists()


def test_weight_report_writes_rows(artifacts, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text('head = "weighted-sum"\nd = 8\nepochs = 1\n', encoding="utf-8")
    model = tmp_path / "w.bin"
    assert main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                 "--config", str(cfg), "--out", str(model)]) == 0
    out = tmp_path / "weights.csv"
    assert main(["weight-report", "--model", str(model),
                 "--dataset", str(artifacts / "attached.jsonl"), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "item,option,passage,weight,overlap"
    assert len(lines) > 1


def test_each_command_prints_its_one_line(artifacts, tmp_path, capsys):
    d, t = artifacts, tmp_path
    (t / "w.cfg").write_text('head = "weighted-sum"\nd = 8\nepochs = 1\n', encoding="utf-8")
    runs = [
        ["eval", "--model", d / "model.bin", "--dataset", d / "attached.jsonl",
         "--predictions", t / "p.jsonl", "--out", t / "r.json"],
        ["sweep-m", *OUT_STAGES["sweep-m"](d), "--out", t / "s.csv"],
        ["train", "--dataset", d / "attached.jsonl", "--config", t / "w.cfg", "--out", t / "w.bin"],
        ["weight-report", "--model", t / "w.bin", "--dataset", d / "attached.jsonl",
         "--out", t / "w.csv"],
        ["pfqa-gen", "--facts", d / "facts.tsv", "--out", t / "pfqa"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    printed = (d / "stdout.txt").read_text(encoding="utf-8") + capsys.readouterr().out
    assert printed.splitlines() == [
        f"wrote 4 sentences to {d / 'corpus.jsonl'}",
        f"indexed 4 sentences to {d / 'index.kiix'}",
        f"attached premises for 2 items to {d / 'attached.jsonl'}",
        f"trained concat model on 2 items to {d / 'model.bin'}",
        f"revised encoder on 4 sentences to {d / 'encoder.kenc'}",
        f"accuracy 0.5 over 2 items; report in {t / 'r.json'}",
        f"swept m over [1] to {t / 's.csv'}",
        f"trained weighted-sum model on 2 items to {t / 'w.bin'}",
        f"wrote 6 weight/overlap rows to {t / 'w.csv'}",
        f"wrote 13 knowledge sentences and 20/3/2 train/dev/test questions to {t / 'pfqa'}",
    ]


# ---------------------------------------------------------------------------
# Exit codes and validation
# ---------------------------------------------------------------------------

def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["index-build", "--corpus", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "i.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("raw, config", [("adir", []), ("raw.txt", ["--config", "adir"])],
                         ids=["input", "config"])
def test_a_directory_input_exits_2_naming_it(tmp_path, capsys, raw, config):
    (tmp_path / "raw.txt").write_text(RAW_LINES, encoding="utf-8")
    (tmp_path / "adir").mkdir()
    assert main(["corpus-prep", "--input", str(tmp_path / raw), "--out", str(tmp_path / "c.jsonl"),
                 *(str(tmp_path / a) if a == "adir" else a for a in config)]) == 2
    assert capsys.readouterr().err == (f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                       f"{str(tmp_path / 'adir')!r}\n")
    assert sorted(os.listdir(tmp_path)) == ["adir", "raw.txt"]


def test_an_input_read_from_a_pipe_gives_the_bytes_of_a_file(tmp_path):
    (tmp_path / "raw.txt").write_text(RAW_LINES, encoding="utf-8")
    assert main(["corpus-prep", "--input", str(tmp_path / "raw.txt"),
                 "--out", str(tmp_path / "file.jsonl")]) == 0
    r, w = os.pipe()
    with os.fdopen(w, "wb") as fh:
        fh.write(RAW_LINES.encode("utf-8"))
    try:
        assert main(["corpus-prep", "--input", f"/dev/fd/{r}",
                     "--out", str(tmp_path / "pipe.jsonl")]) == 0
    finally:
        os.close(r)
    assert (tmp_path / "pipe.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()


def test_unwritable_output_exits_2(artifacts, tmp_path, capsys):
    rc = main(["index-build", "--corpus", str(artifacts / "corpus.jsonl"),
               "--out", str(tmp_path / "missing" / "dir" / "i.json")])
    assert rc == 2


def test_interrupted_stage_exits_130_and_keeps_the_old_output(
        artifacts, tmp_path, capsys, monkeypatch):
    out = tmp_path / "corpus.jsonl"
    out.write_bytes(b"the old corpus\n")
    fields = iter(range(5))

    def interrupted(text):  # Ctrl-C partway through the second record
        if next(fields, None) is None:
            raise KeyboardInterrupt
        return encode_basestring(text)

    monkeypatch.setattr(kiqa.corpus, "encode_basestring", interrupted)
    assert main(["corpus-prep", "--input", str(artifacts / "raw.txt"), "--out", str(out)]) == 130
    assert one_error_line(capsys) == "error: interrupted"
    assert out.read_bytes() == b"the old corpus\n"
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


# A sitecustomize that raises KeyboardInterrupt, as a Ctrl-C would, when the
# child process starts importing one kiqa module.
INTERRUPTING_SITECUSTOMIZE = """
import sys

class InterruptOnImport:
    def find_spec(self, name, path=None, target=None):
        if name == "kiqa.index":
            raise KeyboardInterrupt
        return None

sys.meta_path.insert(0, InterruptOnImport())
"""


def _interrupted_at_import(tmp_path, *argv):
    site = tmp_path / "site"
    site.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(INTERRUPTING_SITECUSTOMIZE, encoding="utf-8")
    src = Path(kiqa.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": f"{site}{os.pathsep}{src}"}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def _console_entry() -> list[str]:
    """What the installed ``kiqa`` script runs, as ``python`` arguments."""
    import tomllib

    pyproject = Path(kiqa.__file__).parents[2] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["kiqa"]
    module, _, function = entry.partition(":")
    return ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"]


@pytest.mark.parametrize("how", ["python -m kiqa.cli", "python -m kiqa", "console entry"])
def test_interrupt_while_importing_exits_130(artifacts, tmp_path, how):
    out = tmp_path / "index.kiix"
    out.write_bytes(b"the old index")
    argv = ["index-build", "--corpus", str(artifacts / "corpus.jsonl"), "--out", str(out)]
    launch = _console_entry() if how == "console entry" else ["-m", how.split()[-1]]
    proc = _interrupted_at_import(tmp_path, *launch, *argv)
    assert (proc.returncode, proc.stderr, proc.stdout) == (130, "error: interrupted\n", "")
    assert out.read_bytes() == b"the old index"


def test_interrupt_while_importing_kiqa_cli_as_a_library_still_raises(tmp_path):
    proc = _interrupted_at_import(tmp_path, "-c", "import kiqa.cli")
    assert proc.returncode not in (0, 1, 2, 130)
    assert proc.stderr.splitlines()[-1] == "KeyboardInterrupt"


def test_the_console_entry_runs_the_cli(artifacts, tmp_path):
    src = Path(kiqa.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, *_console_entry(),
         "index-build", "--corpus", str(artifacts / "corpus.jsonl"), "--out", str(tmp_path / "i")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "i").read_bytes() == (artifacts / "index.kiix").read_bytes()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_revise_writes_the_same_bytes_with_the_blas_thread_variables_unset_or_1(tmp_path):
    # With more than one core, OpenBLAS splits a large enough product over
    # threads by default, and the masked-token logits (M, d) @ (d, V) and
    # both their gradient products then round differently.  Four sentences
    # of 96 distinct words (V = 389 with the five special tokens) show it.
    if (os.cpu_count() or 1) < 2:
        pytest.skip("on one core OpenBLAS runs one thread either way, so the two runs "
                    "cannot differ whether the entry pins the threads or not")
    words = [f"w{i}" for i in range(4 * 96)]
    corpus = corpus_of([KnowledgeSentence(id=f"{i:08d}", text=" ".join(words[i::4]))
                        for i in range(4)])
    save_jsonl(corpus, tmp_path / "corpus.jsonl")
    (tmp_path / "revise.cfg").write_text("epochs = 1\nbatch_size = 4\n", encoding="utf-8")
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    unset["PYTHONPATH"] = str(Path(kiqa.__file__).parents[1])
    outs = []
    for env in (unset, {**unset, **dict.fromkeys(BLAS_THREAD_VARS, "1")}):
        out = tmp_path / f"encoder{len(outs)}.kenc"
        proc = subprocess.run(
            [sys.executable, "-m", "kiqa", "revise", "--corpus", str(tmp_path / "corpus.jsonl"),
             "--config", str(tmp_path / "revise.cfg"), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_out_of_memory_exits_1_and_keeps_the_old_output(artifacts, tmp_path, capsys, monkeypatch):
    out = tmp_path / "encoder.kenc"
    out.write_bytes(b"the old encoder")

    def init(*args, **kwargs):  # what numpy raises for d = 100000
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(kiqa.encoder.EncoderModel, "init", init)
    assert main(["revise", "--corpus", str(artifacts / "corpus.jsonl"),
                 "--config", str(artifacts / "revise.cfg"), "--out", str(out)]) == 1
    assert one_error_line(capsys) == "error: out of memory: Unable to allocate 74.5 GiB " \
        "for an array with shape (100000, 100000)"
    assert out.read_bytes() == b"the old encoder"
    assert os.listdir(tmp_path) == ["encoder.kenc"]


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# Each stage that writes one --out file, with the inputs it reads from the fixture.
OUT_STAGES = {
    "corpus-prep": lambda d: ["--input", d / "raw.txt"],
    "index-build": lambda d: ["--corpus", d / "corpus.jsonl"],
    "attach": lambda d: ["--dataset", d / "qs.jsonl", "--corpus", d / "corpus.jsonl",
                         "--index", d / "index.kiix", "--config", d / "attach.cfg"],
    "revise": lambda d: ["--corpus", d / "corpus.jsonl", "--config", d / "revise.cfg"],
    "train": lambda d: ["--dataset", d / "attached.jsonl", "--config", d / "train.cfg"],
    "eval": lambda d: ["--model", d / "model.bin", "--dataset", d / "attached.jsonl"],
    "sweep-m": lambda d: ["--model", d / "model.bin", "--train", d / "qs.jsonl",
                          "--eval", d / "qs.jsonl", "--corpus", d / "corpus.jsonl",
                          "--index", d / "index.kiix", "--config", d / "sweep.cfg"],
    "weight-report": lambda d: ["--model", d / "model.bin", "--dataset", d / "attached.jsonl"],
}


# Every command the parser has, so that one added later is held to the runner's output
# check too.  pfqa-gen is the exception: its --out is a directory that it makes only once
# the facts give three splits, and it checks the files in it itself, as
# test_pfqa_gen_checks_all_outputs_before_writing_any shows.
@pytest.mark.parametrize("where", ["nodir/out", "adir"])
@pytest.mark.parametrize("stage", sorted(set(subcommands()) - {"pfqa-gen"}))
def test_out_that_cannot_be_written_exits_2_naming_it(artifacts, tmp_path, capsys, stage, where):
    (tmp_path / "adir").mkdir()
    out = tmp_path / where
    assert main([stage, *map(str, OUT_STAGES[stage](artifacts)), "--out", str(out)]) == 2
    assert one_error_line(capsys).endswith(f": {str(out)!r}")
    assert os.listdir(tmp_path) == ["adir"] and os.listdir(tmp_path / "adir") == []


@pytest.mark.parametrize("where", ["nodir/p.jsonl", "adir"])
def test_eval_checks_both_outputs_before_writing_either(artifacts, tmp_path, capsys, where):
    (tmp_path / "adir").mkdir()
    report, preds = tmp_path / "r.json", tmp_path / where
    report.write_bytes(b"the old report\n")
    assert main(["eval", "--model", str(artifacts / "model.bin"),
                 "--dataset", str(artifacts / "attached.jsonl"),
                 "--predictions", str(preds), "--out", str(report)]) == 2
    assert one_error_line(capsys).endswith(f": {str(preds)!r}")
    assert report.read_bytes() == b"the old report\n"
    assert sorted(os.listdir(tmp_path)) == ["adir", "r.json"]
    assert os.listdir(tmp_path / "adir") == []


@pytest.mark.parametrize("report, preds, link", [
    ("r.json", "r.json", None),
    ("r.json", "./r.json", None),
    ("new.json", "./new.json", None),  # neither exists yet
    ("r.json", "p.jsonl", os.symlink),
    ("r.json", "p.jsonl", os.link),
])
def test_eval_refuses_report_and_predictions_in_one_file(artifacts, tmp_path, capsys,
                                                         monkeypatch, report, preds, link):
    monkeypatch.chdir(tmp_path)
    Path("r.json").write_bytes(b"the old report\n")
    if link:
        link("r.json", preds)
    before = sorted(os.listdir())
    assert main(["eval", "--model", str(artifacts / "model.bin"),
                 "--dataset", str(artifacts / "attached.jsonl"),
                 "--out", report, "--predictions", preds]) == 1
    assert one_error_line(capsys) == f"error: outputs {report} and {preds} are one file"
    assert Path("r.json").read_bytes() == b"the old report\n"
    assert sorted(os.listdir()) == before


# Each stage that writes one --out file, with every input it can be given.
ALL_INPUT_STAGES = {
    **OUT_STAGES,
    "attach": lambda d: [*OUT_STAGES["attach"](d), "--embeddings", d / "emb.txt"],
    "revise": lambda d: [*OUT_STAGES["revise"](d), "--encoder", d / "encoder.kenc"],
    "train": lambda d: [*OUT_STAGES["train"](d), "--corpus", d / "corpus.jsonl",
                        "--encoder", d / "encoder.kenc"],
    "sweep-m": lambda d: [*OUT_STAGES["sweep-m"](d), "--embeddings", d / "emb.txt"],
}


@pytest.mark.parametrize("stage, flag", [
    (stage, flag) for stage, argv in ALL_INPUT_STAGES.items() for flag in argv(Path())[::2]
])
def test_out_that_names_an_input_exits_1_and_keeps_it(artifacts, tmp_path, capsys, stage, flag):
    argv = ALL_INPUT_STAGES[stage](tmp_path)
    for path in argv[1::2]:
        shutil.copy(artifacts / path.name, path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    named = argv[argv.index(flag) + 1]
    assert main([stage, *map(str, argv), "--out", str(named)]) == 1
    assert one_error_line(capsys) == f"error: output {named} and input {named} are one file"
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_the_input_flags_are_every_flag_that_names_a_file_to_read():
    dests = {action.dest for sub in subcommands().values() for action in sub._actions}
    not_read = {"help", "seed", "out", "predictions", "schema", "format", "config_keys", "run"}
    assert sorted(dests - not_read) == sorted(kiqa.cli.INPUT_FLAGS)


@pytest.mark.parametrize("link", [None, os.symlink, os.link])
def test_eval_refuses_predictions_that_name_an_input(artifacts, tmp_path, capsys, monkeypatch,
                                                     link):
    monkeypatch.chdir(tmp_path)
    shutil.copy(artifacts / "model.bin", "model.bin")
    shutil.copy(artifacts / "attached.jsonl", "data.jsonl")
    preds = "./data.jsonl" if link is None else "p.jsonl"
    if link:
        link("data.jsonl", preds)
    before = {name: Path(name).read_bytes() for name in os.listdir()}
    assert main(["eval", "--model", "model.bin", "--dataset", "data.jsonl",
                 "--out", "r.json", "--predictions", preds]) == 1
    assert one_error_line(capsys) == f"error: output {preds} and input data.jsonl are one file"
    assert {name: Path(name).read_bytes() for name in os.listdir()} == before


@pytest.mark.parametrize("name", ["knowledge.jsonl", "train.jsonl", "dev.jsonl", "test.jsonl"])
def test_pfqa_gen_refuses_an_output_that_names_its_facts(tmp_path, capsys, name):
    out = tmp_path / "pfqa"
    out.mkdir()
    facts = out / name
    facts.write_text(FACTS, encoding="utf-8")
    assert main(["pfqa-gen", "--facts", str(facts), "--out", str(out)]) == 1
    assert one_error_line(capsys) == f"error: output {facts} and input {facts} are one file"
    assert os.listdir(out) == [name] and facts.read_text(encoding="utf-8") == FACTS


def test_unknown_flag_exits_1(artifacts, tmp_path, capsys):
    rc = main(["index-build", "--corpus", str(artifacts / "corpus.jsonl"),
               "--out", str(tmp_path / "i.json"), "--bogus"])
    assert rc == 1


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_config_key_exits_1(artifacts, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k9 = 1.2\n", encoding="utf-8")
    rc = main(["index-build", "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(cfg), "--out", str(tmp_path / "i.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "k9" in err and "k1" in err


def test_config_type_error_exits_1(artifacts, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text('k1 = "fast"\n', encoding="utf-8")
    rc = main(["index-build", "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(cfg), "--out", str(tmp_path / "i.json")])
    assert rc == 1
    assert "must be a float" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("train", "openbook", "false"),
    ("train", "revision", "true"),
    ("attach", "similarity", '"embedding-cosine"'),
    ("sweep-m", "similarity", '"token-jaccard"'),
], ids=["train-openbook", "train-revision", "attach-similarity", "sweep-m-similarity"])
def test_a_key_that_restated_an_input_is_unknown(artifacts, tmp_path, capsys, command, key, value):
    # closed book is head = "baseline", revision is train --corpus, and embedding
    # cosine is --embeddings, so these keys are gone
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    rc = main([command, *map(str, KEY_STAGES[command](artifacts)), "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert one_error_line(capsys).startswith(f"error: unknown config keys: {key} ")
    assert os.listdir(tmp_path) == ["old.cfg"]


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1, err
    return lines[0]


@pytest.mark.parametrize("posting", [(99, 1), (0, 0)])
def test_index_with_out_of_range_posting_exits_1(artifacts, tmp_path, capsys, posting):
    # The KIIX v4 payload ends with the (pos, tf) records of every term, in
    # sorted term order. "sky" occurs in one sentence, so its block is one record.
    data = (artifacts / "index.kiix").read_bytes()
    postings = load_index(artifacts / "index.kiix").postings
    terms = sorted(postings)
    after = sum(len(postings[t]) for t in terms[terms.index("sky"):])
    assert len(postings["sky"]) == 1
    at = len(unframe(data)[2]) - after * 8
    (tmp_path / "bad.idx").write_bytes(patched(data, at, struct.pack("<II", *posting)))
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"),
               "--index", str(tmp_path / "bad.idx"), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert "posting" in one_error_line(capsys)


# The stage that loads each binary artifact, with the corrupted copy and an output path.
LOADING_STAGES = {
    "index.kiix": lambda d, bad, out: [
        "attach", "--dataset", d / "qs.jsonl", "--corpus", d / "corpus.jsonl",
        "--index", bad, "--out", out],
    "encoder.kenc": lambda d, bad, out: [
        "revise", "--corpus", d / "corpus.jsonl", "--encoder", bad,
        "--config", d / "revise.cfg", "--out", out],
    "model.bin": lambda d, bad, out: [
        "eval", "--model", bad, "--dataset", d / "attached.jsonl", "--out", out],
}


@settings(max_examples=90, deadline=None)
@given(artifact=st.sampled_from(sorted(LOADING_STAGES)), data=st.data())
def test_truncated_or_bit_flipped_artifact_exits_1(artifacts, artifact, data):
    raw = (artifacts / artifact).read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        corrupt = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bits = data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4,
                                  unique=True), label="flipped bits")
        flipped = bytearray(raw)
        for bit in bits:
            flipped[bit // 8] ^= 1 << (bit % 8)
        corrupt = bytes(flipped)
    (artifacts / "fuzz").mkdir(exist_ok=True)
    bad, out = artifacts / "fuzz" / artifact, artifacts / "fuzz" / "out"
    bad.write_bytes(corrupt)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([str(a) for a in LOADING_STAGES[artifact](artifacts, bad, out)])
    assert rc == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}"), lines
    assert not out.exists()


def test_encoder_with_wrong_parameter_shape_exits_1(artifacts, tmp_path, capsys):
    encoder = load_model(artifacts / "model.bin").encoder
    encoder.params["att_wq"] = Tensor(np.zeros((3, 5)))
    save_encoder(encoder, tmp_path / "bad.bin")
    rc = main(["revise", "--corpus", str(artifacts / "corpus.jsonl"),
               "--encoder", str(tmp_path / "bad.bin"), "--out", str(tmp_path / "e.bin")])
    assert rc == 1
    assert "att_wq" in one_error_line(capsys)


def test_encoder_with_nan_weight_exits_1(artifacts, tmp_path, capsys):
    encoder = load_model(artifacts / "model.bin").encoder
    encoder.params["ffn_w1"].data[0, 0] = MARK
    save_encoder(encoder, tmp_path / "bad.bin")
    replace_f8(tmp_path / "bad.bin", MARK, np.nan)
    rc = main(["revise", "--corpus", str(artifacts / "corpus.jsonl"),
               "--encoder", str(tmp_path / "bad.bin"), "--out", str(tmp_path / "e.bin")])
    assert rc == 1
    line = one_error_line(capsys)
    assert "ffn_w1" in line and "learning rate" not in line
    assert not (tmp_path / "e.bin").exists()


def test_model_with_wrong_head_shape_exits_1(artifacts, tmp_path, capsys):
    model = load_model(artifacts / "model.bin")
    model.score_w = Tensor(np.zeros((model.encoder.config.d + 1, 1)))
    save_model(model, tmp_path / "bad.bin")
    rc = main(["eval", "--model", str(tmp_path / "bad.bin"),
               "--dataset", str(artifacts / "attached.jsonl"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "score_w" in one_error_line(capsys)


def test_perfbench_output_checks_pass_on_cli_artifacts(artifacts, tmp_path, monkeypatch):
    # perfbench/checks.py reads kiqa outside the stages, so a kiqa change
    # that breaks a check fails here, not only as a lower benchmark ok_share
    checks, d = load_perfbench("checks", monkeypatch), artifacts
    corpus, index = load_jsonl(d / "corpus.jsonl"), load_index(d / "index.kiix")
    oracle = checks.BruteBm25(corpus, index.params.k1, index.params.b)
    # revision lowers a held-out loss only on more text than the fixture's four lines
    zipf_lines = load_perfbench("inputs", monkeypatch).zipf_lines
    rng = np.random.default_rng(0)
    (tmp_path / "raw.txt").write_text(zipf_lines(rng, 200, 100, 1.1), encoding="utf-8")
    (tmp_path / "heldout.txt").write_text(zipf_lines(rng, 16, 100, 1.1), encoding="utf-8")
    (tmp_path / "revise.cfg").write_text("d = 8\nepochs = 1\n", encoding="utf-8")
    revision = [["corpus-prep", "--input", tmp_path / "raw.txt", "--out", tmp_path / "c.jsonl"],
                ["revise", "--corpus", tmp_path / "c.jsonl", "--config", tmp_path / "revise.cfg",
                 "--out", tmp_path / "e.kenc"]]
    assert [run_quietly(argv) for argv in revision] == [(0, [])] * 2
    results = [
        checks.bm25_oracle(oracle, index, d / "qs.jsonl", RETRIEVE_K),
        checks.premises(oracle, corpus, [(d / "qs.jsonl", d / "attached.jsonl")], 2, RETRIEVE_K),
        checks.revision_loss(tmp_path / "c.jsonl", tmp_path / "heldout.txt", tmp_path / "e.kenc",
                             8, 0.15),
    ]
    assert [result[:2] for result in results] == [
        ("bm25-oracle", True), ("premises", True), ("revision-loss", True)], results
    assert results[0][2] == "4/4 queries match"
    assert results[1][2] == "4/4 options ok []"


def test_model_with_an_unknown_head_kind_exits_1(artifacts, tmp_path):
    # the payload starts with the head column: count, length, then "concat"
    bad, out = tmp_path / "bad.bin", tmp_path / "r.json"
    bad.write_bytes(patched((artifacts / "model.bin").read_bytes(), 8, b"concot"))
    rc, lines = run_quietly(LOADING_STAGES["model.bin"](artifacts, bad, out))
    assert (rc, lines) == (1, [f"error: {bad}: unknown head kind 'concot'"])
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_with_non_finite_head_parameter_exits_1(artifacts, tmp_path, capsys, value):
    model = load_model(artifacts / "model.bin")
    model.score_w.data[:] = MARK
    save_model(model, tmp_path / "bad.bin")
    replace_f8(tmp_path / "bad.bin", MARK, value)
    rc = main(["eval", "--model", str(tmp_path / "bad.bin"),
               "--dataset", str(artifacts / "attached.jsonl"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "score_w" in one_error_line(capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_attach_with_non_finite_lambda_exits_1(artifacts, tmp_path, capsys, lam):
    cfg = tmp_path / "attach.cfg"
    cfg.write_text(f"m = 2\nlambda = {lam}\n", encoding="utf-8")
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--index", str(artifacts / "index.kiix"),
               "--config", str(cfg), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert "lambda" in one_error_line(capsys)
    assert not (tmp_path / "a.jsonl").exists()


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_sweep_m_with_non_finite_lambda_exits_1(artifacts, tmp_path, capsys, lam):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"m_values = [1, 2]\nretrain = false\nlambda = {lam}\n", encoding="utf-8")
    rc = main(["sweep-m", "--model", str(artifacts / "model.bin"),
               "--train", str(artifacts / "qs.jsonl"), "--eval", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "lambda" in one_error_line(capsys)
    assert not (tmp_path / "s.csv").exists()


def test_diverging_train_exits_1_without_checkpoint(tmp_path):
    corpus, dataset = make_planted_evidence_task(n_items=40, seed=0)
    save_mcq_jsonl(route_premises(dataset, corpus, m=1), tmp_path / "planted.jsonl")
    cfg = tmp_path / "hot.cfg"
    cfg.write_text('head = "concat"\nd = 8\nlr = 1e50\nepochs = 3\nbatch_size = 8\n',
                   encoding="utf-8")
    out = tmp_path / "m.bin"
    # A child process, so stderr holds whatever numpy would warn as well:
    # pytest's own warning capture would hide that in-process.
    env = {**os.environ, "PYTHONPATH": str(Path(kiqa.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "kiqa.cli", "train", "--dataset", str(tmp_path / "planted.jsonl"),
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    # the first update, 1e47 times the parameters, stops it before the loss overflows
    assert "times the parameters' norm" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("head", ["baseline", "concat"])
def test_collapsed_train_exits_1_without_checkpoint(artifacts, tmp_path, capsys, head):
    # On the 2-item fixture these heads saturate instead of overflowing: the loss
    # stays finite and the gradient goes to 0, so only the update's size shows it.
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(f'head = "{head}"\nd = 8\nlr = 1e50\nepochs = 10\n', encoding="utf-8")
    out = tmp_path / "m.bin"
    with np.errstate(all="ignore"):
        rc = main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                   "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "times the parameters' norm" in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("lr", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [("train", "lr"), ("train", "rev_lr"), ("revise", "lr")])
def test_non_finite_learning_rate_exits_1(artifacts, tmp_path, capsys, command, key, lr):
    cfg = tmp_path / "lr.cfg"
    cfg.write_text(f"d = 8\nepochs = 1\n{key} = {lr}\n", encoding="utf-8")
    out = tmp_path / "out.bin"
    source = ["--dataset", str(artifacts / "attached.jsonl")] if command == "train" else []
    rc = main([command, *source, "--corpus", str(artifacts / "corpus.jsonl"),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "learning rate must be finite" in one_error_line(capsys)
    assert list(tmp_path.iterdir()) == [cfg]


def test_index_of_another_corpus_exits_1(artifacts, tmp_path, capsys):
    # An index of the first three sentences, used with a corpus of the first one.
    corpus = load_jsonl(artifacts / "corpus.jsonl")
    save_index(build_index(corpus_of(corpus.sentences[:3])), tmp_path / "three.idx")
    save_jsonl(corpus_of(corpus.sentences[:1]), tmp_path / "one.jsonl")
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(tmp_path / "one.jsonl"),
               "--index", str(tmp_path / "three.idx"), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert "does not match the corpus" in one_error_line(capsys)
    assert not (tmp_path / "a.jsonl").exists()


def test_sweep_m_with_index_of_reordered_corpus_exits_1(artifacts, tmp_path, capsys):
    corpus = load_jsonl(artifacts / "corpus.jsonl")
    save_index(build_index(corpus_of(corpus.sentences[::-1])), tmp_path / "rev.idx")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("m_values = [1, 2]\nretrain = false\n", encoding="utf-8")
    rc = main(["sweep-m", "--model", str(artifacts / "model.bin"),
               "--train", str(artifacts / "qs.jsonl"), "--eval", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--index", str(tmp_path / "rev.idx"),
               "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "does not match the corpus" in one_error_line(capsys)


def _corpus_with_other_texts(artifacts, tmp_path):
    """The artifacts' corpus with the same ids, in order, but one text changed."""
    corpus = load_jsonl(artifacts / "corpus.jsonl")
    texts = list(corpus.texts)
    texts[1] = "the grass is blue here"
    other = KnowledgeCorpus(list(corpus.ids), texts, corpus.tags, corpus.titles)
    save_jsonl(other, tmp_path / "other.jsonl")
    return tmp_path / "other.jsonl"


def test_attach_with_index_of_same_ids_other_texts_exits_1(artifacts, tmp_path, capsys):
    other = _corpus_with_other_texts(artifacts, tmp_path)
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"), "--corpus", str(other),
               "--index", str(artifacts / "index.kiix"), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert "does not match the corpus" in one_error_line(capsys)
    assert not (tmp_path / "a.jsonl").exists()


def test_sweep_m_with_index_of_same_ids_other_texts_exits_1(artifacts, tmp_path, capsys):
    other = _corpus_with_other_texts(artifacts, tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("m_values = [1, 2]\nretrain = false\n", encoding="utf-8")
    rc = main(["sweep-m", "--model", str(artifacts / "model.bin"),
               "--train", str(artifacts / "qs.jsonl"), "--eval", str(artifacts / "qs.jsonl"),
               "--corpus", str(other), "--index", str(artifacts / "index.kiix"),
               "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "does not match the corpus" in one_error_line(capsys)
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("index-build", "[1, 2]"),
        ("index-build", "7"),
        ("index-build", '{"id": "s2", "text": 5}'),
        ("index-build", '{"id": 5, "text": "five"}'),
        ("revise", '{"paragraphs": [[0, 9]]}'),
        ("revise", '{"paragraphs": [["x", 1]]}'),
    ],
)
def test_malformed_prepared_corpus_exits_1_naming_the_line(tmp_path, capsys, command, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "s0", "text": "the sky"}\n{"id": "s1", "text": "the sea"}\n'
                    + line + "\n", encoding="utf-8")
    out = tmp_path / "out.bin"
    rc = main([command, "--corpus", str(path), "--out", str(out)])
    assert rc == 1
    assert f"{path}:3:" in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_attach_with_non_finite_embedding_exits_1(artifacts, tmp_path, capsys, component):
    table = tmp_path / "emb.txt"
    table.write_text(f"sky 0.5 1.0\nblue {component} 1.0\ngrass 1.0 0.0\n", encoding="utf-8")
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--index", str(artifacts / "index.kiix"),
               "--embeddings", str(table), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert f"{table}:2: non-finite" in one_error_line(capsys)
    assert not (tmp_path / "a.jsonl").exists()


def test_attach_with_an_overlong_embedding_vector_exits_1(artifacts, tmp_path, capsys):
    table = tmp_path / "emb.txt"
    table.write_text("sky 0.5 1.0\nblue 1e200 1e200\ngrass 1.0 0.0\n", encoding="utf-8")
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--index", str(artifacts / "index.kiix"),
               "--embeddings", str(table), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert f"{table}:2: vector too long" in one_error_line(capsys)
    assert not (tmp_path / "a.jsonl").exists()


@pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank-lines"])
def test_attach_with_an_embedding_table_without_vectors_exits_1(artifacts, tmp_path, capsys, text):
    table = tmp_path / "emb.txt"
    table.write_text(text, encoding="utf-8")
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--index", str(artifacts / "index.kiix"),
               "--embeddings", str(table), "--out", str(tmp_path / "a.jsonl")])
    assert rc == 1
    assert one_error_line(capsys) == f"error: {table}: no vectors"
    assert not (tmp_path / "a.jsonl").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0


def test_attach_rejects_pos_filter_as_an_unknown_key(artifacts, tmp_path, capsys):
    cfg = tmp_path / "attach.cfg"
    cfg.write_text("m = 2\npos_filter = true\n", encoding="utf-8")
    out = tmp_path / "a.jsonl"
    rc = main(["attach", "--dataset", str(artifacts / "qs.jsonl"),
               "--corpus", str(artifacts / "corpus.jsonl"), "--index", str(artifacts / "index.kiix"),
               "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "unknown config keys: pos_filter" in one_error_line(capsys)
    assert not out.exists()


# Each command's required inputs; none has to exist, the config is checked first.
REQUIRED_ARGS = {
    "corpus-prep": ["--input", "x"],
    "index-build": ["--corpus", "x"],
    "attach": ["--dataset", "x", "--corpus", "x"],
    "pfqa-gen": ["--facts", "x"],
    "revise": ["--corpus", "x"],
    "train": ["--dataset", "x"],
    "eval": ["--model", "x", "--dataset", "x"],
    "sweep-m": ["--model", "x", "--train", "x", "--eval", "x", "--corpus", "x"],
    "weight-report": ["--model", "x", "--dataset", "x"],
}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_help_names_exactly_the_config_keys_a_command_accepts(tmp_path, capsys, command):
    assert main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"\(config keys: ([^)]*)\)", help_text).group(1)
    cfg = tmp_path / "probe.cfg"
    cfg.write_text("no_such_key = 1\n", encoding="utf-8")
    rc = main([command, *REQUIRED_ARGS[command], "--config", str(cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    accepted = re.search(r"this command accepts: (.*)\)$", one_error_line(capsys)).group(1)
    assert sorted(listed.split(", ")) == accepted.split(", ")


@pytest.mark.parametrize(
    "line",
    [
        '{"id": "q2", "question": "q", "options": ["a", "b"], "gold": 1.5}',
        '{"id": "q2", "question": "q", "options": ["a", "b"], "gold": true}',
        '{"id": "q2", "question": "q", "options": "blue"}',
        '{"id": "q2", "question": "q", "options": ["a", 2]}',
        '{"id": "q2", "question": 5, "options": ["a", "b"]}',
        '{"id": 2, "question": "q", "options": ["a", "b"]}',
        '["q2", "q", ["a", "b"]]',
    ],
)
def test_generic_record_with_a_wrong_type_exits_1(tmp_path, capsys, line):
    path = tmp_path / "qs.jsonl"
    path.write_text(json.dumps(QUESTIONS[0]) + "\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "model.bin"
    assert main(["train", "--dataset", str(path), "--out", str(out)]) == 1
    assert one_error_line(capsys).startswith(f"error: {path}:2: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[1, 2]", "not json", '"fields"',
    # each of these used to pass, or to be blamed on the dataset
    '{"label_base": true}', '{"label": 5}', '{"fieldz": ["goal", "sol1", "sol2"]}',
    '{"id": 3}', '{"fields": "goal"}', '{"fields": ["goal", "sol1"]}',
])
def test_attach_with_a_bad_schema_map_exits_1(artifacts, tmp_path, capsys, text):
    map_path = tmp_path / "map.json"
    map_path.write_text(text, encoding="utf-8")
    out = tmp_path / "a.jsonl"
    rc = main(["attach", "--dataset", str(artifacts / "piqa.jsonl"), "--schema", "piqa",
               "--schema-map", str(map_path), "--corpus", str(artifacts / "corpus.jsonl"),
               "--out", str(out)])
    assert rc == 1
    assert one_error_line(capsys).startswith(f"error: {map_path}: ")
    assert not out.exists()


def test_attach_then_train_with_unicode_line_separators(tmp_path):
    # attach writes these raw inside JSON strings; train must read them back
    corpus = corpus_of([
        KnowledgeSentence(id="s0", text="the sky is blue\u2028today"),
        KnowledgeSentence(id="s1", text="the grass is green\u2029here"),
    ])
    save_jsonl(corpus, tmp_path / "corpus.jsonl")
    questions = [dict(QUESTIONS[0], question="what colour\u0085is the sky"), QUESTIONS[1]]
    (tmp_path / "qs.jsonl").write_text(
        "".join(json.dumps(q, ensure_ascii=False) + "\n" for q in questions), encoding="utf-8"
    )
    (tmp_path / "train.cfg").write_text("d = 8\nepochs = 1\n", encoding="utf-8")
    assert main(["attach", "--dataset", str(tmp_path / "qs.jsonl"),
                 "--corpus", str(tmp_path / "corpus.jsonl"),
                 "--out", str(tmp_path / "attached.jsonl")]) == 0
    attached = load_mcq(tmp_path / "attached.jsonl", "generic")
    assert attached.items[0].premises[0][0].text == "the sky is blue\u2028today"
    assert main(["train", "--dataset", str(tmp_path / "attached.jsonl"),
                 "--config", str(tmp_path / "train.cfg"),
                 "--out", str(tmp_path / "model.bin")]) == 0


# ---------------------------------------------------------------------------
# Text inputs: every one that cannot be decoded or parsed is named
# ---------------------------------------------------------------------------

def _attach(d, out, *extra, dataset=None):
    return ["attach", "--dataset", dataset or d / "qs.jsonl", "--corpus", d / "corpus.jsonl",
            "--index", d / "index.kiix", *extra, "--out", out]


# The stage that reads each text input of the fixture, given the input to read instead.
TEXT_STAGES = {
    "qs.jsonl": lambda d, src, out: _attach(d, out, dataset=src),
    "piqa.jsonl": lambda d, src, out: _attach(d, out, "--schema", "piqa", dataset=src),
    "attached.jsonl": lambda d, src, out: [
        "train", "--dataset", src, "--config", d / "train.cfg", "--out", out],
    "corpus.jsonl": lambda d, src, out: ["index-build", "--corpus", src, "--out", out],
    "attach.cfg": lambda d, src, out: _attach(d, out, "--config", src),
    "map.json": lambda d, src, out: _attach(
        d, out, "--schema", "piqa", "--schema-map", src, dataset=d / "piqa.jsonl"),
    "emb.txt": lambda d, src, out: _attach(d, out, "--embeddings", src),
    "facts.tsv": lambda d, src, out: ["pfqa-gen", "--facts", src, "--out", out],
}


def run_stage(artifacts, name, src, out):
    """Exit code and stderr lines of the stage reading ``src`` as input ``name``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([str(a) for a in TEXT_STAGES[name](artifacts, src, out)])
    return rc, err.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(TEXT_STAGES))
def test_text_stage_reads_its_fixture_input(artifacts, tmp_path, name):
    assert run_stage(artifacts, name, artifacts / name, tmp_path / "out") == (0, [])


DEEP = b"[" * 100_000


@pytest.mark.parametrize("name, content", [
    pytest.param("qs.jsonl", b'{"id": "q1", "question": "sky \xff", "options": ["a", "b"]}\n',
                 id="dataset-not-utf8"),
    pytest.param("emb.txt", b"sky 0.5 \xff\n", id="embeddings-not-utf8"),
    pytest.param("attach.cfg", b"m = \xff\n", id="config-not-utf8"),
    pytest.param("facts.tsv", b"Alice\tB\xffob\n", id="facts-not-utf8"),
    pytest.param("qs.jsonl", DEEP + b"\n", id="dataset-deep"),
    pytest.param("attach.cfg", b"m = " + DEEP + b"\n", id="config-deep"),
    pytest.param("map.json", DEEP, id="schema-map-deep"),
    pytest.param("piqa.jsonl", b'{"goal": ["sky", "x"], "sol1": "blue", "sol2": "green", '
                 b'"label": true}\n', id="piqa-list-goal"),
    pytest.param("qs.jsonl", b'{"id": "q1", "question": "sky", "options": ["a", "b"], '
                 b'"extras": [1]}\n', id="extras-list"),
    pytest.param("attached.jsonl", b'{"id": "q1", "question": "sky", "options": ["a", "b"], '
                 b'"premises": [[{"id": 5, "text": ["x"]}], []]}\n', id="premise-list-text"),
])
def test_bad_text_input_exits_1_naming_the_file(artifacts, tmp_path, name, content):
    bad, out = tmp_path / name, tmp_path / "out"
    bad.write_bytes(content)
    rc, lines = run_stage(artifacts, name, bad, out)
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}"), lines
    assert not out.exists()


@settings(max_examples=160, deadline=None)
@given(name=st.sampled_from(sorted(TEXT_STAGES)), data=st.data())
def test_corrupted_text_input_exits_cleanly(artifacts, name, data):
    raw = (artifacts / name).read_bytes()
    how = data.draw(st.sampled_from(["truncate", "flip", "0xff"]), label="how")
    if how == "truncate":
        corrupt = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif how == "flip":
        corrupt = bytearray(raw)
        for at in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=4,
                                     unique=True), label="flipped bytes"):
            corrupt[at] ^= data.draw(st.integers(1, 255), label="xor")
    else:
        at = data.draw(st.integers(0, len(raw)), label="position")
        corrupt = raw[:at] + b"\xff" + raw[at:]
    (artifacts / "textfuzz").mkdir(exist_ok=True)
    bad, out = artifacts / "textfuzz" / name, artifacts / "textfuzz" / "out"
    bad.write_bytes(bytes(corrupt))
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    rc, lines = run_stage(artifacts, name, bad, out)
    assert rc in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    if rc:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()


# ---------------------------------------------------------------------------
# Config file syntax
# ---------------------------------------------------------------------------

def test_config_parses_all_value_kinds(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# a comment\n"
        "\n"
        'name = "quoted string"\n'
        "bare = weighted-sum\n"
        "flag = true\n"
        "other = false\n"
        "count = 7\n"
        "rate = 0.25  # trailing comment\n"
        "values = [1, 2, 3]\n"
        'head = "concat"  # the head\n'
        "m_values = [1, 2]# depths\n"
        'hashed = "a # b"\n',
        encoding="utf-8",
    )
    assert parse_config_file(cfg) == {
        "head": "concat",
        "m_values": [1, 2],
        "hashed": "a # b",
        "name": "quoted string",
        "bare": "weighted-sum",
        "flag": True,
        "other": False,
        "count": 7,
        "rate": 0.25,
        "values": [1, 2, 3],
    }


@pytest.mark.parametrize(
    "line, message",
    [
        ("[section]", "sections are not supported"),
        ("just words", "expected 'key = value'"),
        ("key =", "missing value"),
        ("key = [1, 2", "malformed value"),
        ('key = "x" y', "malformed value"),
        ("= 3", "empty key"),
    ],
)
def test_config_syntax_errors(tmp_path, line, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=message):
        parse_config_file(cfg)


@pytest.mark.parametrize("sep", ["\u2028", "\u0085"])
def test_config_line_ends_only_at_newline(tmp_path, sep):
    (tmp_path / "raw.txt").write_text(RAW_LINES, encoding="utf-8")
    (tmp_path / "c.cfg").write_text(f'source_tag = "a{sep}b"\nm = 1\n', encoding="utf-8")
    assert parse_config_file(tmp_path / "c.cfg") == {"source_tag": f"a{sep}b", "m": 1}
    (tmp_path / "c.cfg").write_text(f'source_tag = "a{sep}b"\n', encoding="utf-8")
    assert main(["corpus-prep", "--input", str(tmp_path / "raw.txt"), "--config",
                 str(tmp_path / "c.cfg"), "--out", str(tmp_path / "c.jsonl")]) == 0
    assert load_jsonl(tmp_path / "c.jsonl").tags == [f"a{sep}b"] * 4


def test_config_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m = 1\nm = 2\n", encoding="utf-8")
    with pytest.raises(InputError, match="duplicate key"):
        parse_config_file(cfg)


# ---------------------------------------------------------------------------
# Config keys
# ---------------------------------------------------------------------------

# Each command on the fixture's inputs, with the flags under which it reads every key it declares.
KEY_STAGES = {
    "corpus-prep": lambda d: ["--input", d / "raw.txt"],
    "index-build": lambda d: ["--corpus", d / "corpus.jsonl"],
    "attach": lambda d: ["--dataset", d / "qs.jsonl", "--corpus", d / "corpus.jsonl",
                         "--index", d / "index.kiix"],
    "pfqa-gen": lambda d: ["--facts", d / "facts.tsv"],
    "revise": lambda d: ["--corpus", d / "corpus.jsonl"],
    "train": lambda d: ["--dataset", d / "attached.jsonl"],
    "eval": lambda d: ["--model", d / "model.bin", "--dataset", d / "attached.jsonl"],
    "sweep-m": lambda d: ["--model", d / "model.bin", "--train", d / "qs.jsonl",
                          "--eval", d / "qs.jsonl", "--corpus", d / "corpus.jsonl",
                          "--index", d / "index.kiix"],
    "weight-report": lambda d: ["--model", d / "model.bin", "--dataset", d / "attached.jsonl"],
}
# The optional inputs a command may also be given, as (flag, fixture file); each turns on the
# step that reads it.
EMBEDDINGS = ("--embeddings", "emb.txt")
ENCODER = ("--encoder", "encoder.kenc")
REVISION_CORPUS = ("--corpus", "corpus.jsonl")
OPTIONAL_INPUTS = {
    "attach": [EMBEDDINGS],
    "sweep-m": [EMBEDDINGS],
    "revise": [ENCODER],
    "train": [ENCODER, REVISION_CORPUS],
}


def optional_flags(d: Path, inputs) -> list:
    return [arg for flag, name in inputs for arg in (flag, d / name)]


def declared_keys(command: str) -> dict:
    return build_parser().parse_args([command, *REQUIRED_ARGS[command], "--out", "x"]).config_keys


def config_text(values: dict) -> str:
    """``values`` as config lines; ``repr`` writes NaN and infinities as the parser reads them."""
    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return json.dumps(value) if isinstance(value, (str, list)) else repr(value)
    return "".join(f"{key} = {text(value)}\n" for key, value in values.items())


def run_quietly(argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``main(argv)``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue().splitlines()


def test_the_readme_quickstart_sets_only_keys_its_commands_declare(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.replace("\\\n", " ").splitlines()  # join continued shell lines
    written = {m[2]: m[1] for m in (re.match(r"printf '(.*)' > (\S+\.cfg)$", line.strip())
                                    for line in lines) if m}
    readers = {m[2]: m[1] for m in (re.match(r"kiqa ([\w-]+) .*--config (\S+)", line.strip())
                                    for line in lines) if m}
    assert written and sorted(written) == sorted(readers)
    for name, text in written.items():
        cfg = tmp_path / name
        cfg.write_text(text.replace("\\n", "\n"), encoding="utf-8")
        Config(parse_config_file(cfg), declared_keys(readers[name]))


def test_a_key_has_one_type_in_every_command():
    kinds = collections.defaultdict(set)
    for command in KEY_STAGES:
        for key, kind in declared_keys(command).items():
            kinds[key].add(kind)
    assert {key: k for key, k in kinds.items() if len(k) > 1} == {}


@pytest.mark.parametrize("command, inputs, config, message", [
    ("sweep-m", [], 'm_values = [1]\nretrain = false\nlr = "fast"\n',
     "config key 'lr' must be a float, got 'fast'"),
    ("sweep-m", [], "m_values = [1]\nretrain = false\nepochs = -3\n",
     "epochs must be >= 0 and batch size >= 1"),
    # without --corpus train does not revise, and still checks the rev_ keys
    ("train", [], 'rev_lr = "fast"\n', "config key 'rev_lr' must be a float, got 'fast'"),
    ("train", [], "rev_epochs = true\n", "config key 'rev_epochs' must be an int, got a boolean"),
    ("train", [], "rev_batch_size = 2.5\n", "config key 'rev_batch_size' must be an int, got 2.5"),
    ("train", [], "rev_epochs = -3\n", "epochs must be >= 0 and batch size >= 1"),
    ("train", [], "rev_mask_prob = 1.5\n", "mask probability must be in (0, 1)"),
    # with --encoder the checkpoint sets the size, and the encoder keys are still range-checked
    ("revise", [ENCODER], 'd = "wide"\n', "config key 'd' must be an int, got 'wide'"),
    ("revise", [ENCODER], "d = 0\n", "d must be >= 1 and max_len >= 4"),
    ("train", [ENCODER], "max_len = 2\n", "d must be >= 1 and max_len >= 4"),
], ids=["sweep-m-lr", "sweep-m-epochs", "train-rev_lr", "train-rev_epochs",
        "train-rev_batch_size", "train-rev_epochs-range", "train-rev_mask_prob-range",
        "revise-encoder-d", "revise-encoder-d-range", "train-encoder-max_len-range"])
def test_a_bad_key_exits_1_where_the_run_would_not_read_it(
        artifacts, tmp_path, command, inputs, config, message):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    cfg.write_text(config, encoding="utf-8")
    rc, lines = run_quietly([command, *KEY_STAGES[command](artifacts),
                             *optional_flags(artifacts, inputs),
                             "--config", cfg, "--out", out])
    assert (rc, lines) == (1, [f"error: {message}"])
    assert not out.exists()


@pytest.mark.parametrize("command", ["revise", "train"])
@pytest.mark.parametrize("key, value, has", [("d", 64, 8), ("max_len", 16, 256)])
def test_encoder_key_other_than_the_encoder_checkpoint_exits_1(
        artifacts, tmp_path, command, key, value, has):
    cfg, out = tmp_path / "enc.cfg", tmp_path / "out"
    cfg.write_text(f"{key} = {value}\nepochs = 1\n", encoding="utf-8")
    rc, lines = run_quietly([command, *KEY_STAGES[command](artifacts),
                             *optional_flags(artifacts, [ENCODER]), "--config", cfg, "--out", out])
    assert (rc, lines) == (1, [f"error: config key {key!r} is {value} but the --encoder "
                               f"checkpoint has {key} = {has}"])
    assert not out.exists()


# The kiqa.cli names through which each key reaches the library.
SPIED = ("load_corpus", "build_index", "attach_premises", "revision_train", "train", "sweep_m")
# Small, fast settings each command runs under unless a case sets the key itself.
BASE_CONFIG = {
    "revise": {"d": 8, "epochs": 1},
    "train": {"d": 8, "epochs": 1},
    "sweep-m": {"m_values": [1], "epochs": 1},
}
SGD_CASES = [("lr", 0.05), ("epochs", 2), ("batch_size", 1), ("momentum", 0.5)]
# (command, key, a non-default value, extra config, the optional inputs to give): the spied
# call it must reach, the path to it in that call's arguments, and what is found there.
ROUTES = [
    ("corpus-prep", "source_tag", "t", {}, [], "load_corpus", "source_tag", "t"),
    ("index-build", "k1", 0.9, {}, [], "build_index", "params.k1", 0.9),
    ("index-build", "b", 0.5, {}, [], "build_index", "params.b", 0.5),
    ("attach", "m", 3, {}, [], "attach_premises", "rr_config.m", 3),
    ("attach", "lambda", 0.5, {}, [], "attach_premises", "rr_config.lambda_", 0.5),
    ("attach", "retrieve_k", 7, {}, [], "attach_premises", "retrieve_k", 7),
    ("revise", "d", 6, {}, [], "revision_train", "model.config.d", 6),
    ("revise", "max_len", 16, {}, [], "revision_train", "model.config.max_len", 16),
    *[("revise", key, value, {}, [], "revision_train", f"config.{key}", value)
      for key, value in [*SGD_CASES, ("mask_prob", 0.3)]],
    ("train", "d", 6, {}, [], "train", "model.encoder.config.d", 6),
    ("train", "max_len", 16, {}, [], "train", "model.encoder.config.max_len", 16),
    *[("train", key, value, {}, [], "train", f"config.{key}", value) for key, value in SGD_CASES],
    ("train", "head", "simple-sum", {}, [], "train", "model.head", "simple-sum"),
    ("train", "tied", True, {}, [], "train", "model.tied", True),
    ("train", "freeze_encoder", True, {}, [], "train", "freeze_encoder", True),
    # --corpus turns revision on
    *[("train", "rev_" + key, value, {}, [REVISION_CORPUS], "revision_train", f"config.{key}",
       value) for key, value in [*SGD_CASES, ("mask_prob", 0.3)]],
    *[("sweep-m", key, value, {}, [], "sweep_m", f"train_config.{key}", value)
      for key, value in SGD_CASES],
    ("sweep-m", "m_values", [1, 2], {}, [], "sweep_m", "m_values", [1, 2]),
    ("sweep-m", "retrain", False, {}, [], "sweep_m", "train_config", None),
    ("sweep-m", "lambda", 0.5, {}, [], "sweep_m", "rr_config.lambda_", 0.5),
    ("sweep-m", "retrieve_k", 7, {}, [], "sweep_m", "retrieve_k", 7),
    ("sweep-m", "freeze_encoder", True, {}, [], "sweep_m", "freeze_encoder", True),
]


def test_every_declared_key_has_a_route():
    declared = {(command, key) for command in KEY_STAGES for key in declared_keys(command)}
    assert sorted({route[:2] for route in ROUTES}) == sorted(declared)


@pytest.mark.parametrize("command, key, value, extra, inputs, spied, path, arrives", ROUTES,
                         ids=[f"{route[0]}-{route[1]}" for route in ROUTES])
def test_a_set_key_reaches_its_setting(artifacts, tmp_path, monkeypatch,
                                       command, key, value, extra, inputs, spied, path, arrives):
    calls = collections.defaultdict(list)
    for name in SPIED:
        real = getattr(kiqa.cli, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[_name].append(bound.arguments)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kiqa.cli, name, spy)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text({**BASE_CONFIG.get(command, {}), **extra, key: value}),
                   encoding="utf-8")
    rc, lines = run_quietly([command, *KEY_STAGES[command](artifacts),
                             *optional_flags(artifacts, inputs),
                             "--config", cfg, "--out", tmp_path / "out"])
    assert (rc, lines) == (0, [])
    first, *rest = path.split(".")
    found = [functools.reduce(getattr, rest, arguments[first]) for arguments in calls[spied]]
    assert found == [arrives]


def _values_for(kind):
    """Edge values of a declared type, and values of every other type."""
    valid = {
        int: st.integers(-1, 12),  # keeps d, max_len, epochs, batch sizes and depths cheap
        float: st.sampled_from([0.0, -1.0, 0.5, 2, math.nan, math.inf, -math.inf, 1e300]),
        bool: st.booleans(),
        str: st.sampled_from(["", "x", "baseline", "concat", "weighted-sum",
                              "token-jaccard", "embedding-cosine"]),
        list: st.lists(st.integers(-1, 6), max_size=3),
    }[kind]
    other = st.sampled_from([0, -1, 1.5, math.nan, 1e300, True, "fast", [1]])
    return st.one_of(valid, valid, other)  # two in three from the declared type


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(sorted(KEY_STAGES)), data=st.data())
def test_any_config_value_exits_cleanly(artifacts, command, data):
    keys = declared_keys(command)
    chosen = data.draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=4)
                       if keys else st.just([]), label="keys")
    values = {**BASE_CONFIG.get(command, {}),
              **{key: data.draw(_values_for(keys[key]), label=key) for key in chosen}}
    given_inputs = [i for i in OPTIONAL_INPUTS.get(command, [])
                    if data.draw(st.booleans(), label=f"give {i[0]}")]
    flags = optional_flags(artifacts, given_inputs)
    work = artifacts / "keyfuzz"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    cfg, out = work / "fuzz.cfg", work / "out"
    cfg.write_text(config_text(values), encoding="utf-8")
    if command == "pfqa-gen":  # writes a directory
        out.mkdir()
        (out / "train.jsonl").write_bytes(b"the old split\n")
    else:
        out.write_bytes(b"the old output\n")
    before = {p: p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    rc, lines = run_quietly([command, *KEY_STAGES[command](artifacts), *flags,
                             "--config", cfg, "--out", out])
    assert rc in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    if rc:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert {p: p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()} == before


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_train_is_byte_deterministic(artifacts, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"m{tag}.bin"
        assert main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                     "--config", str(artifacts / "train.cfg"), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == (artifacts / "model.bin").read_bytes()


def test_seed_changes_the_model(artifacts, tmp_path):
    out = tmp_path / "m.bin"
    assert main(["train", "--dataset", str(artifacts / "attached.jsonl"),
                 "--config", str(artifacts / "train.cfg"), "--seed", "7",
                 "--out", str(out)]) == 0
    assert out.read_bytes() != (artifacts / "model.bin").read_bytes()
