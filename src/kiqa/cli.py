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

Training strategy is the config pair ``revision`` / ``openbook``:
``openbook`` controls whether attached premises reach the scoring head
(off forces the knowledge-free baseline head), ``revision`` controls
whether the encoder is pretrained on the corpus with the masked-token
objective before supervised training.  The three useful combinations are
openbook-only, revision-only, and both.

Seeds are derived from the global ``--seed`` (default 0): encoder init
uses ``seed``, head init ``seed+1``, supervised training ``seed+2``, and
revision ``seed+3``, so stages stay reproducible independently.

Exit codes: 0 success, 1 validation error or out of memory, 2 I/O error,
130 interrupted.
Every command with identical inputs, config, and seed writes byte-identical outputs.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .corpus import (
    FORMATS,
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
from .index import Bm25Params, build_index, load_index, save_index
from .pfqa import assign_splits, generate_questions, load_facts, render_fact, to_dataset
from .querygen import QueryGenConfig
from .rerank import RerankConfig, SimilarityFn, load_embedding_table
from .textio import loads, read_text
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
    if not text.startswith(('"', '[')) and "#" in text:
        text = text.split("#", 1)[0].strip()
    if not text:
        raise CliError(f"{path}:{lineno}: missing value")
    if text.startswith(('"', '[')):
        return loads(text, f"{path}:{lineno}: malformed value", CliError)
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


def _load_config(args) -> Config:
    """The ``--config`` file, checked against the keys the subparser declared."""
    values = parse_config_file(_input(args.config)) if args.config else {}
    return Config(values, args.config_keys)


def _input(path_str: str | Path) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"cannot read {path}: no such file")
    return path


def _check_outputs(*paths: str | Path | None) -> None:
    """Raise what writing would raise for an output in a missing directory or naming one.

    A stage with several outputs checks them all before it writes any.
    """
    for path in map(str, filter(None, paths)):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

ENCODER_KEYS = {"d": int, "max_len": int}
SGD_KEYS = {"lr": float, "epochs": int, "batch_size": int, "momentum": float}
REVISION_KEYS = {**SGD_KEYS, "mask_prob": float}


def _cmd_corpus_prep(args) -> int:
    cfg = _load_config(args)
    if args.format == "prepared-jsonl":
        corpus = load_jsonl(_input(args.input))
    else:
        corpus = load_corpus(
            _input(args.input), args.format, seed=args.seed, **cfg.pick("source_tag")
        )
    save_jsonl(corpus, args.out)
    print(f"wrote {len(corpus)} sentences to {args.out}")
    return 0


def _cmd_index_build(args) -> int:
    cfg = _load_config(args)
    params = Bm25Params(**cfg.pick("k1", "b"))
    corpus = load_jsonl(_input(args.corpus))
    index = build_index(corpus, params)
    save_index(index, args.out)
    print(f"indexed {len(corpus)} sentences to {args.out}")
    return 0


def _similarity(cfg: Config, embeddings_path) -> SimilarityFn:
    """The configured similarity; an embedding table makes embedding-cosine the default."""
    settings = cfg.pick(kind="similarity")
    if embeddings_path is not None:
        table = load_embedding_table(_input(embeddings_path))
        settings = {"kind": "embedding-cosine", **settings, "table": table}
    return SimilarityFn(**settings)


def _cmd_attach(args) -> int:
    cfg = _load_config(args)
    schema_map = _input(args.schema_map) if args.schema_map else None
    dataset = load_mcq(_input(args.dataset), args.schema, schema_map=schema_map)
    corpus = load_jsonl(_input(args.corpus))
    index = load_index(_input(args.index)) if args.index else build_index(corpus)
    rr_config = RerankConfig(
        **cfg.pick("m", lambda_="lambda"), similarity=_similarity(cfg, args.embeddings)
    )
    attached = attach_premises(
        dataset, corpus, index, QueryGenConfig(), rr_config, **cfg.pick("retrieve_k")
    )
    save_mcq_jsonl(attached, args.out)
    print(f"attached premises for {len(attached)} items to {args.out}")
    return 0


def _cmd_pfqa_gen(args) -> int:
    _load_config(args)
    facts = load_facts(_input(args.facts))
    questions = generate_questions(facts, seed=args.seed)
    train_q, dev_q, test_q = assign_splits(questions, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = {out_dir / f"{name}.jsonl": split
              for name, split in (("train", train_q), ("dev", dev_q), ("test", test_q))}
    _check_outputs(out_dir / "knowledge.jsonl", *splits)
    knowledge = KnowledgeCorpus(
        sentences=[
            KnowledgeSentence(id=f"pfqa-k-{n:06d}", text=render_fact(f), source_tag="pfqa")
            for n, f in enumerate(facts)
        ]
    )
    save_jsonl(knowledge, out_dir / "knowledge.jsonl")
    for path, split in splits.items():
        save_mcq_jsonl(to_dataset(split), path)
    print(
        f"wrote {len(knowledge)} knowledge sentences and "
        f"{len(train_q)}/{len(dev_q)}/{len(test_q)} train/dev/test questions to {out_dir}"
    )
    return 0


def _load_encoder(cfg: Config, path) -> EncoderModel:
    """The ``--encoder`` checkpoint; the encoder keys the config sets must match it."""
    encoder = load_encoder(_input(path))
    for key, value in cfg.pick(*ENCODER_KEYS).items():
        if value != (has := getattr(encoder.config, key)):
            raise CliError(f"config key {key!r} is {value!r} but the --encoder checkpoint "
                           f"has {key} = {has!r}")
    return encoder


def _cmd_revise(args) -> int:
    cfg = _load_config(args)
    encoder_config = EncoderConfig(**cfg.pick(*ENCODER_KEYS))
    revision_config = TrainConfig(seed=args.seed + 3, **cfg.pick(*REVISION_KEYS))
    corpus = load_jsonl(_input(args.corpus))
    if args.encoder:
        encoder = _load_encoder(cfg, args.encoder)
    else:
        vocab = Vocab.from_texts(corpus.texts)
        encoder = EncoderModel.init(vocab, encoder_config, seed=args.seed)
    revision_train(encoder, corpus, revision_config)
    save_encoder(encoder, args.out)
    print(f"revised encoder on {len(corpus)} sentences to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    encoder_config = EncoderConfig(**cfg.pick(*ENCODER_KEYS))
    revision_config = TrainConfig(seed=args.seed + 3, **cfg.pick(*REVISION_KEYS, prefix="rev_"))
    train_config = TrainConfig(seed=args.seed + 2, **cfg.pick(*SGD_KEYS))
    revision = cfg.get("revision", False)
    head = cfg.get("head", "weighted-sum")
    if not cfg.get("openbook", True):
        if "head" in cfg and head != "baseline":
            raise CliError("openbook = false runs the baseline head; do not set head")
        head = "baseline"
    if revision and not args.corpus:
        raise CliError("revision = true needs --corpus to pretrain on")
    dataset = load_mcq(_input(args.dataset), args.schema)
    corpus = load_jsonl(_input(args.corpus)) if args.corpus else None

    if args.encoder:
        encoder = _load_encoder(cfg, args.encoder)
    else:
        vocab = training_vocab(dataset, corpus if revision else None)
        encoder = EncoderModel.init(vocab, encoder_config, seed=args.seed)
    if revision:
        revision_train(encoder, corpus, revision_config)
    model = FusionModel.init(encoder, head, seed=args.seed + 1, **cfg.pick("tied"))
    train(model, dataset, train_config, **cfg.pick("freeze_encoder"))
    save_model(model, args.out)
    print(f"trained {head} model on {len(dataset)} items to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    _load_config(args)
    _check_outputs(args.out, args.predictions)
    model = load_model(_input(args.model))
    dataset = load_mcq(_input(args.dataset), args.schema)
    report = evaluate(
        model, dataset,
        configs={"head": model.head, "tied": model.tied, "seed": args.seed},
    )
    save_report(report, args.out)
    if args.predictions:
        save_predictions(model, dataset, args.predictions)
    print(f"accuracy {report.accuracy!r} over {report.n_items} items; report in {args.out}")
    return 0


def _cmd_sweep_m(args) -> int:
    cfg = _load_config(args)
    if "m_values" not in cfg:
        raise CliError("sweep-m needs m_values in the config, e.g. m_values = [1, 2, 5]")
    m_values = cfg["m_values"]
    train_config = TrainConfig(seed=args.seed + 2, **cfg.pick(*SGD_KEYS))
    model = load_model(_input(args.model))
    train_set = load_mcq(_input(args.train), args.schema)
    eval_set = load_mcq(_input(args.eval), args.schema)
    corpus = load_jsonl(_input(args.corpus))
    index = load_index(_input(args.index)) if args.index else build_index(corpus)
    rows = sweep_m(
        model, train_set, eval_set, corpus, index, m_values,
        rr_config=RerankConfig(
            m=m_values[0], **cfg.pick(lambda_="lambda"),
            similarity=_similarity(cfg, args.embeddings),
        ),
        train_config=train_config if cfg.get("retrain", True) else None,
        **cfg.pick("retrieve_k", "freeze_encoder"),
    )
    write_sweep_csv(rows, args.out)
    print(f"swept m over {m_values} to {args.out}")
    return 0


def _cmd_weight_report(args) -> int:
    _load_config(args)
    model = load_model(_input(args.model))
    dataset = load_mcq(_input(args.dataset), args.schema)
    rows = weight_overlap_report(model, dataset)
    write_weight_report_csv(rows, args.out)
    print(f"wrote {len(rows)} weight/overlap rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliError(f"{self.prog}: {message}")


def _add_common(sub, out_help: str, config_keys: dict[str, type]):
    sub.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    sub.add_argument(
        "--config",
        help=f"TOML-style key = value configuration file (config keys: {_key_list(config_keys)})",
    )
    sub.add_argument("--out", required=True, help=out_help)
    sub.set_defaults(config_keys=config_keys)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kiqa", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = commands.add_parser(
        "corpus-prep", parents=[], help="prepare a raw knowledge source into a corpus"
    )
    sub.add_argument("--input", required=True, help="raw knowledge source file")
    sub.add_argument(
        "--format", choices=(*FORMATS, "prepared-jsonl"), default="plain-lines",
        help="input layout (default plain-lines)",
    )
    _add_common(sub, "prepared corpus JSONL", {"source_tag": str})
    sub.set_defaults(run=_cmd_corpus_prep)

    sub = commands.add_parser("index-build", help="build the retrieval index for a corpus")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    _add_common(sub, "binary KIIX index file", {"k1": float, "b": float})
    sub.set_defaults(run=_cmd_index_build)

    sub = commands.add_parser("attach", help="retrieve and attach premises to a dataset")
    sub.add_argument("--dataset", required=True, help="question file")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="question file schema")
    sub.add_argument("--schema-map", help="JSON field-name overrides for off-spec dumps")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--index", help="prebuilt binary KIIX index (default: build from the corpus)")
    sub.add_argument("--embeddings", help="word-embedding table for embedding-cosine re-ranking")
    _add_common(sub, "attached dataset JSONL",
                {"m": int, "lambda": float, "retrieve_k": int, "similarity": str})
    sub.set_defaults(run=_cmd_attach)

    sub = commands.add_parser("pfqa-gen", help="generate the synthetic family-relations dataset")
    sub.add_argument("--facts", required=True, help="parent-facts file, one 'Child<TAB>Parent' per line")
    _add_common(sub, "output directory for knowledge.jsonl and train/dev/test.jsonl", {})
    sub.set_defaults(run=_cmd_pfqa_gen)

    sub = commands.add_parser("revise", help="pretrain an encoder on a corpus (masked tokens)")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--encoder", help="existing encoder checkpoint to continue from")
    _add_common(sub, "encoder checkpoint", {**ENCODER_KEYS, **REVISION_KEYS})
    sub.set_defaults(run=_cmd_revise)

    sub = commands.add_parser("train", help="train a fusion model on an attached dataset")
    sub.add_argument("--dataset", required=True, help="attached dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--corpus", help="prepared corpus JSONL (needed when revision = true)")
    sub.add_argument("--encoder", help="pretrained encoder checkpoint to start from")
    _add_common(sub, "model checkpoint", {
        **ENCODER_KEYS, **SGD_KEYS, "head": str, "tied": bool, "freeze_encoder": bool,
        "openbook": bool, "revision": bool,
        **{"rev_" + key: kind for key, kind in REVISION_KEYS.items()},
    })
    sub.set_defaults(run=_cmd_train)

    sub = commands.add_parser("eval", help="evaluate a model and write the accuracy report")
    sub.add_argument("--model", required=True, help="model checkpoint")
    sub.add_argument("--dataset", required=True, help="labelled dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--predictions", help="also write per-item predictions JSONL here")
    _add_common(sub, "evaluation report JSON", {})
    sub.set_defaults(run=_cmd_eval)

    sub = commands.add_parser("sweep-m", help="accuracy as a function of premises per option")
    sub.add_argument("--model", required=True, help="model checkpoint to start each point from")
    sub.add_argument("--train", required=True, help="training dataset (raw; premises are re-attached)")
    sub.add_argument("--eval", required=True, help="evaluation dataset (raw)")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--index", help="prebuilt binary KIIX index (default: build from the corpus)")
    sub.add_argument("--embeddings", help="word-embedding table for embedding-cosine re-ranking")
    _add_common(sub, "CSV of (m, accuracy) rows", {
        **SGD_KEYS, "m_values": list, "retrain": bool, "lambda": float, "retrieve_k": int,
        "freeze_encoder": bool, "similarity": str,
    })
    sub.set_defaults(run=_cmd_sweep_m)

    sub = commands.add_parser("weight-report", help="per-passage weights vs. token overlap")
    sub.add_argument("--model", required=True, help="weighted-sum model checkpoint")
    sub.add_argument("--dataset", required=True, help="attached dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    _add_common(sub, "CSV of (item, option, passage, weight, overlap) rows", {})
    sub.set_defaults(run=_cmd_weight_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
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


if __name__ == "__main__":
    sys.exit(main())
