"""Command-line pipeline driver.

Each stage is an independent process reading and writing files, so any
stage's artifact can be cached, inspected, or swapped out:

* ``corpus-prep``    raw knowledge source → prepared corpus (JSONL)
* ``index-build``    prepared corpus → ranked-retrieval index (binary KIIX)
* ``attach``         dataset + corpus → dataset with premises attached
* ``pfqa-gen``       parent-facts file → knowledge + train/dev/test splits
* ``revise``         corpus [+ encoder] → masked-token-pretrained encoder
* ``train``          attached dataset [+ corpus] → fusion model checkpoint
* ``eval``           model + dataset → accuracy report [+ predictions]
* ``sweep-m``        model + datasets + corpus → accuracy-vs-m CSV
* ``weight-report``  weighted-sum model + dataset → weight/overlap CSV

Configuration comes from ``--config``, a flat TOML-style file of
``key = value`` lines (strings bare or double-quoted, ``true``/``false``
booleans, numbers, and ``[1, 2, 3]`` lists; ``#`` starts a comment; no
sections).  Each command declares its keys and their types once.  Unknown
keys are rejected so typos cannot silently fall back to defaults.  Every
key the file sets is type-checked when the config loads and range-checked
by the library object it feeds, even where the run does not use it; a key
it does not set takes the library's default.

Each setting has one spelling, and an optional input turns on the step
that reads it.  ``train --corpus`` revises the encoder on that corpus
(masked-token pretraining) before supervised training; ``--embeddings``
re-ranks by the cosine of mean word vectors instead of token overlap; the
``baseline`` head is closed book, and every other head reads the premises.

Seeds are derived from the global ``--seed`` (default 0): encoder init
uses ``seed``, head init ``seed+1``, supervised training ``seed+2``, and
revision ``seed+3``, so stages stay reproducible independently.

Every command runs through one runner, :func:`main`: it checks the config,
and that each output can be written and names no input, before the command
reads anything; then it runs the command and prints the one line it returns.
``pfqa-gen`` makes its output directory only once the facts give three
non-empty splits, and checks the files in it after making it.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error,
130 interrupted.  Every command with identical inputs, config, and seed
writes byte-identical outputs.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":  # python -m kiqa.cli: the imports below run under the entry's guard
    from kiqa.__main__ import main as _entry

    sys.exit(_entry())

import argparse
import errno
import json
import os
from collections.abc import Callable
from pathlib import Path

from .corpus import (
    FORMATS,
    CorpusRows,
    KnowledgeCorpus,
    KnowledgeSentence,
    load_corpus,
    load_jsonl,
    save_jsonl,
)
from .datasets import SCHEMA_TAGS, attach_premises, load_mcq, save_mcq_jsonl
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainConfig,
    Vocab,
    load_encoder,
    revision_train,
    save_encoder,
)
from .evalreport import (
    evaluate,
    save_report,
    sweep_m,
    weight_overlap_report,
    write_sweep_csv,
    write_weight_report_csv,
)
from .fusion import FusionModel, load_model, save_model, save_predictions, train
from .index import Bm25Params, InvertedIndex, build_index, load_index, save_index
from .pfqa import assign_splits, generate_questions, load_facts, render_fact, to_dataset
from .rerank import RerankConfig, SimilarityFn, load_embedding_table
from .textio import read_text
from .toytasks import training_vocab


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

def parse_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` file; see the module docstring for the syntax."""
    path = Path(path)
    values: dict[str, object] = {}
    for lineno, raw in enumerate(read_text(path, CliError).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            raise CliError(f"{path}:{lineno}: sections are not supported; use flat keys")
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if not key:
            raise CliError(f"{path}:{lineno}: empty key")
        if key in values:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(text.strip(), path, lineno)
    return values


def _parse_value(text: str, path: Path, lineno: int):
    if text.startswith(('"', '[')):  # a JSON value, then at most a comment
        try:
            value, end = json.JSONDecoder().raw_decode(text)
        except (ValueError, RecursionError) as exc:
            raise CliError(f"{path}:{lineno}: malformed value: invalid JSON: {exc}") from None
        if text[end:].lstrip()[:1] not in ("", "#"):
            raise CliError(f"{path}:{lineno}: malformed value: {text[end:].strip()!r} follows it")
        return value
    text = text.split("#", 1)[0].strip()
    if not text:
        raise CliError(f"{path}:{lineno}: missing value")
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


class Config(dict):
    """The config file's values, each checked against the type its command declares."""

    def __init__(self, values: dict, keys: dict[str, type]):
        unknown = sorted(set(values) - set(keys))
        if unknown:
            raise CliError(
                f"unknown config keys: {', '.join(unknown)} "
                f"(this command accepts: {_key_list(sorted(keys))})"
            )
        super().__init__({key: _checked(key, value, keys[key]) for key, value in values.items()})

    def pick(self, *keys: str, prefix: str = "", **renamed: str) -> dict:
        """Keyword arguments from the keys the file sets: ``prefix + key`` as
        ``key``, and ``renamed[name]`` as ``name``; the library has the defaults."""
        wanted = {key: prefix + key for key in keys} | renamed
        return {name: self[key] for name, key in wanted.items() if key in self}


def _checked(key: str, value, kind: type):
    """``value`` if it has the type declared for ``key``; an int reads as a float."""
    if kind is float and type(value) is int:
        return float(value)
    if kind is list:
        if value and isinstance(value, list) and all(type(v) is int for v in value):
            return value
        raise CliError(f"config key {key!r} must be a non-empty list of integers")
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    got = "a boolean" if isinstance(value, bool) else repr(value)
    raise CliError(f"config key {key!r} must be {'an' if kind is int else 'a'} "
                   f"{kind.__name__}, got {got}")


def _key_list(keys) -> str:
    return ", ".join(keys) or "none"


def _input(path_str: str | Path) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"cannot read {path}: no such file")
    return path


# The flags that name a file a command reads.
INPUT_FLAGS = ("config", "input", "facts", "dataset", "schema_map", "corpus", "index",
               "embeddings", "encoder", "model", "train", "eval")


def _one_file(a: str, b: str) -> bool:
    """The same path, or two links to one file."""
    return Path(a).resolve() == Path(b).resolve() or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _check_outputs(args, *paths: str | Path | None) -> None:
    """Raise what writing would raise for an output in a missing directory or naming one.

    A stage checks all its outputs before it writes any, and refuses an
    output that is one file with another output or with one of its inputs.
    """
    inputs = [str(getattr(args, flag)) for flag in INPUT_FLAGS if getattr(args, flag, None)]
    seen: list[str] = []
    for path in map(str, filter(None, paths)):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for other in seen:
            if _one_file(path, other):
                raise CliError(f"outputs {other} and {path} are one file")
        for other in inputs:
            if _one_file(path, other):
                raise CliError(f"output {path} and input {other} are one file")
        seen.append(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

ENCODER_KEYS = {"d": int, "max_len": int}
SGD_KEYS = {"lr": float, "epochs": int, "batch_size": int, "momentum": float}
REVISION_KEYS = {**SGD_KEYS, "mask_prob": float}


def _cmd_corpus_prep(args, cfg: Config) -> str:
    if args.format == "prepared-jsonl":
        corpus = load_jsonl(_input(args.input))
    else:
        corpus = load_corpus(_input(args.input), args.format, seed=args.seed,
                             **cfg.pick("source_tag"))
    save_jsonl(corpus, args.out)
    return f"wrote {len(corpus)} sentences to {args.out}"


def _cmd_index_build(args, cfg: Config) -> str:
    params = Bm25Params(**cfg.pick("k1", "b"))
    corpus = load_jsonl(_input(args.corpus))
    index = build_index(corpus, params)
    save_index(index, args.out)
    return f"indexed {len(corpus)} sentences to {args.out}"


def _corpus_and_index(args) -> tuple[CorpusRows, InvertedIndex]:
    """The ``--corpus`` and its index: built here, or the ``--index`` file.

    The index is loaded first, so a corpus file whose sha256 it records is
    hashed instead of parsed, and only the rows the stage reads are parsed.
    """
    corpus_path = _input(args.corpus)
    if not args.index:
        corpus = load_jsonl(corpus_path)
        return corpus, build_index(corpus)
    index = load_index(_input(args.index))
    corpus = load_jsonl(corpus_path, file_sha256=index.corpus_file_sha256,
                        digest=index.corpus_digest, ids=index.doc_ids)
    return corpus, index


def _similarity(embeddings_path) -> SimilarityFn:
    """Embedding cosine over the ``--embeddings`` table, or token overlap without one."""
    table = None if embeddings_path is None else load_embedding_table(_input(embeddings_path))
    return SimilarityFn(table)


def _cmd_attach(args, cfg: Config) -> str:
    schema_map = _input(args.schema_map) if args.schema_map else None
    dataset = load_mcq(_input(args.dataset), args.schema, schema_map=schema_map)
    corpus, index = _corpus_and_index(args)
    rr_config = RerankConfig(**cfg.pick("m", lambda_="lambda"),
                             similarity=_similarity(args.embeddings))
    attached = attach_premises(dataset, corpus, index, rr_config, **cfg.pick("retrieve_k"))
    save_mcq_jsonl(attached, args.out)
    return f"attached premises for {len(attached)} items to {args.out}"


def _cmd_pfqa_gen(args, cfg: Config) -> str:
    facts = load_facts(_input(args.facts))
    questions = generate_questions(facts, seed=args.seed)
    splits = dict(zip(("train", "dev", "test"), assign_splits(questions, seed=args.seed)))
    counts = "/".join(str(len(split)) for split in splits.values())
    if empty := [name for name, split in splits.items() if not split]:
        raise CliError(f"no questions in the {' or '.join(empty)} split "
                       f"({counts} train/dev/test); give more facts")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {out_dir / f"{name}.jsonl": split for name, split in splits.items()}
    _check_outputs(args, out_dir / "knowledge.jsonl", *paths)
    knowledge = KnowledgeCorpus([
        KnowledgeSentence(id=f"pfqa-k-{n:06d}", text=render_fact(f), source_tag="pfqa")
        for n, f in enumerate(facts)])
    save_jsonl(knowledge, out_dir / "knowledge.jsonl")
    for path, split in paths.items():
        save_mcq_jsonl(to_dataset(split), path)
    return (f"wrote {len(knowledge)} knowledge sentences and "
            f"{counts} train/dev/test questions to {out_dir}")


def _encoder(args, cfg: Config, encoder_config: EncoderConfig, revision_config: TrainConfig,
             vocab: Callable[[], Vocab], corpus: CorpusRows | None) -> EncoderModel:
    """The ``--encoder`` checkpoint, whose size the encoder keys the config sets
    must match, or a new encoder over ``vocab()``; revised on ``corpus`` if given."""
    if args.encoder:
        encoder = load_encoder(_input(args.encoder))
        for key, value in cfg.pick(*ENCODER_KEYS).items():
            if value != (has := getattr(encoder.config, key)):
                raise CliError(f"config key {key!r} is {value!r} but the --encoder checkpoint "
                               f"has {key} = {has!r}")
    else:
        encoder = EncoderModel.init(vocab(), encoder_config, seed=args.seed)
    if corpus is not None:
        revision_train(encoder, corpus, revision_config)
    return encoder


# Both build their encoder and revision settings before reading any input, so a
# bad key fails even where the run starts from --encoder or does not revise.
def _cmd_revise(args, cfg: Config) -> str:
    encoder_config = EncoderConfig(**cfg.pick(*ENCODER_KEYS))
    revision_config = TrainConfig(seed=args.seed + 3, **cfg.pick(*REVISION_KEYS))
    corpus = load_jsonl(_input(args.corpus))
    encoder = _encoder(args, cfg, encoder_config, revision_config,
                       lambda: Vocab.from_texts(corpus.texts), corpus)
    save_encoder(encoder, args.out)
    return f"revised encoder on {len(corpus)} sentences to {args.out}"


def _cmd_train(args, cfg: Config) -> str:
    encoder_config = EncoderConfig(**cfg.pick(*ENCODER_KEYS))
    revision_config = TrainConfig(seed=args.seed + 3, **cfg.pick(*REVISION_KEYS, prefix="rev_"))
    train_config = TrainConfig(seed=args.seed + 2, **cfg.pick(*SGD_KEYS))
    head = cfg.get("head", "weighted-sum")
    dataset = load_mcq(_input(args.dataset), args.schema)
    corpus = load_jsonl(_input(args.corpus)) if args.corpus else None
    encoder = _encoder(args, cfg, encoder_config, revision_config,
                       lambda: training_vocab(dataset, corpus), corpus)
    model = FusionModel(encoder, head, seed=args.seed + 1, **cfg.pick("tied"))
    train(model, dataset, train_config, **cfg.pick("freeze_encoder"))
    save_model(model, args.out)
    return f"trained {head} model on {len(dataset)} items to {args.out}"


def _cmd_eval(args, cfg: Config) -> str:
    model = load_model(_input(args.model))
    dataset = load_mcq(_input(args.dataset), args.schema)
    report = evaluate(model, dataset,
                      configs={"head": model.head, "tied": model.tied, "seed": args.seed})
    save_report(report, args.out)
    if args.predictions:
        save_predictions(model, dataset, args.predictions)
    return f"accuracy {report.accuracy!r} over {report.n_items} items; report in {args.out}"


def _cmd_sweep_m(args, cfg: Config) -> str:
    if "m_values" not in cfg:
        raise CliError("sweep-m needs m_values in the config, e.g. m_values = [1, 2, 5]")
    m_values = cfg["m_values"]
    train_config = TrainConfig(seed=args.seed + 2, **cfg.pick(*SGD_KEYS))
    model = load_model(_input(args.model))
    train_set = load_mcq(_input(args.train), args.schema)
    eval_set = load_mcq(_input(args.eval), args.schema)
    corpus, index = _corpus_and_index(args)
    rows = sweep_m(
        model, train_set, eval_set, corpus, index, m_values,
        rr_config=RerankConfig(
            m=m_values[0], **cfg.pick(lambda_="lambda"),
            similarity=_similarity(args.embeddings),
        ),
        train_config=train_config if cfg.get("retrain", True) else None,
        **cfg.pick("retrieve_k", "freeze_encoder"),
    )
    write_sweep_csv(rows, args.out)
    return f"swept m over {m_values} to {args.out}"


def _cmd_weight_report(args, cfg: Config) -> str:
    model = load_model(_input(args.model))
    dataset = load_mcq(_input(args.dataset), args.schema)
    rows = weight_overlap_report(model, dataset)
    write_weight_report_csv(rows, args.out)
    return f"wrote {len(rows)} weight/overlap rows to {args.out}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliError(f"{self.prog}: {message}")


def _add_common(sub, run, out_help: str, config_keys: dict[str, type], outputs=("out",)):
    """The flags every command takes; its run, config keys and output flags for :func:`main`."""
    sub.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    sub.add_argument(
        "--config",
        help=f"TOML-style key = value configuration file (config keys: {_key_list(config_keys)})",
    )
    sub.add_argument("--out", required=True, help=out_help)
    sub.set_defaults(run=run, config_keys=config_keys, outputs=outputs)


def _add_retrieval(sub):
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--index", help="prebuilt binary KIIX index (default: build from the corpus)")
    sub.add_argument("--embeddings", help="word-embedding table for embedding-cosine re-ranking")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kiqa", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = commands.add_parser("corpus-prep", help="prepare a raw knowledge source into a corpus")
    sub.add_argument("--input", required=True, help="raw knowledge source file")
    sub.add_argument(
        "--format", choices=(*FORMATS, "prepared-jsonl"), default="plain-lines",
        help="input layout (default plain-lines)",
    )
    _add_common(sub, _cmd_corpus_prep, "prepared corpus JSONL", {"source_tag": str})

    sub = commands.add_parser("index-build", help="build the retrieval index for a corpus")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    _add_common(sub, _cmd_index_build, "binary KIIX index file", {"k1": float, "b": float})

    sub = commands.add_parser("attach", help="retrieve and attach premises to a dataset")
    sub.add_argument("--dataset", required=True, help="question file")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="question file schema")
    sub.add_argument("--schema-map", help="JSON field-name overrides for off-spec dumps")
    _add_retrieval(sub)
    _add_common(sub, _cmd_attach, "attached dataset JSONL",
                {"m": int, "lambda": float, "retrieve_k": int})

    sub = commands.add_parser("pfqa-gen", help="generate the synthetic family-relations dataset")
    sub.add_argument("--facts", required=True, help="parent-facts file, one 'Child<TAB>Parent' per line")
    # --out is a directory, made once the facts give three splits; the command checks its files
    _add_common(sub, _cmd_pfqa_gen, "output directory for knowledge.jsonl and train/dev/test.jsonl",
                {}, outputs=())

    sub = commands.add_parser("revise", help="pretrain an encoder on a corpus (masked tokens)")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--encoder", help="existing encoder checkpoint to continue from")
    _add_common(sub, _cmd_revise, "encoder checkpoint", {**ENCODER_KEYS, **REVISION_KEYS})

    sub = commands.add_parser("train", help="train a fusion model on an attached dataset")
    sub.add_argument("--dataset", required=True, help="attached dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--corpus", help="prepared corpus JSONL to revise the encoder on first")
    sub.add_argument("--encoder", help="pretrained encoder checkpoint to start from")
    _add_common(sub, _cmd_train, "model checkpoint", {
        **ENCODER_KEYS, **SGD_KEYS, "head": str, "tied": bool, "freeze_encoder": bool,
        **{"rev_" + key: kind for key, kind in REVISION_KEYS.items()},
    })

    sub = commands.add_parser("eval", help="evaluate a model and write the accuracy report")
    sub.add_argument("--model", required=True, help="model checkpoint")
    sub.add_argument("--dataset", required=True, help="labelled dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--predictions", help="also write per-item predictions JSONL here")
    _add_common(sub, _cmd_eval, "evaluation report JSON", {}, outputs=("out", "predictions"))

    sub = commands.add_parser("sweep-m", help="accuracy as a function of premises per option")
    sub.add_argument("--model", required=True, help="model checkpoint to start each point from")
    sub.add_argument("--train", required=True, help="training dataset (raw; premises are re-attached)")
    sub.add_argument("--eval", required=True, help="evaluation dataset (raw)")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    _add_retrieval(sub)
    _add_common(sub, _cmd_sweep_m, "CSV of (m, accuracy) rows", {
        **SGD_KEYS, "m_values": list, "retrain": bool, "lambda": float, "retrieve_k": int,
        "freeze_encoder": bool,
    })

    sub = commands.add_parser("weight-report", help="per-passage weights vs. token overlap")
    sub.add_argument("--model", required=True, help="weighted-sum model checkpoint")
    sub.add_argument("--dataset", required=True, help="attached dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    _add_common(sub, _cmd_weight_report, "CSV of (item, option, passage, weight, overlap) rows", {})

    return parser


def main(argv=None) -> int:
    """Run one command as the module docstring says; return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = parse_config_file(_input(args.config)) if args.config else {}
        cfg = Config(values, args.config_keys)
        _check_outputs(args, *(getattr(args, flag) for flag in args.outputs))
        print(args.run(args, cfg))
        return 0
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

