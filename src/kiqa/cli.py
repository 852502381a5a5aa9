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
sections).  Unknown keys are rejected so typos cannot silently fall back
to defaults.

Training strategy is the config pair ``revision`` / ``openbook``:
``openbook`` controls whether attached premises reach the scoring head
(off forces the knowledge-free baseline head), ``revision`` controls
whether the encoder is pretrained on the corpus with the masked-token
objective before supervised training.  The three useful combinations are
openbook-only, revision-only, and both.

Seeds are derived from the global ``--seed`` (default 0): encoder init
uses ``seed``, head init ``seed+1``, supervised training ``seed+2``, and
revision ``seed+3``, so stages stay reproducible independently.

Exit codes: 0 success, 1 validation error, 2 I/O error, 130 interrupted.
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


class Config:
    """Typed access to config values; every command rejects unknown keys."""

    def __init__(self, values: dict, allowed: tuple[str, ...]):
        unknown = sorted(set(values) - set(allowed))
        if unknown:
            raise CliError(
                f"unknown config keys: {', '.join(unknown)} "
                f"(this command accepts: {_key_list(sorted(allowed))})"
            )
        self._values = values

    def get(self, key: str, default, kind) -> object:
        if key not in self._values:
            return default
        value = self._values[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if kind is not bool and isinstance(value, bool):
            raise CliError(f"config key {key!r} must be a {kind.__name__}, got a boolean")
        if not isinstance(value, kind):
            raise CliError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
        return value

    def int_list(self, key: str, default):
        if key not in self._values:
            return default
        value = self._values[key]
        if not isinstance(value, list) or not value or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise CliError(f"config key {key!r} must be a non-empty list of integers")
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._values


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

ENCODER_KEYS = ("d", "max_len")
SGD_KEYS = ("lr", "epochs", "batch_size", "momentum")


def _encoder_config(cfg: Config) -> EncoderConfig:
    return EncoderConfig(
        d=cfg.get("d", 32, int), max_len=cfg.get("max_len", 256, int)
    )


def _train_config(cfg: Config, seed: int, prefix: str = "", mask: bool = False) -> TrainConfig:
    g = lambda key, default, kind: cfg.get(prefix + key, default, kind)
    kwargs = dict(
        seed=seed,
        lr=g("lr", 0.1, float),
        epochs=g("epochs", 10, int),
        batch_size=g("batch_size", 32, int),
        momentum=g("momentum", 0.9, float),
    )
    if mask:
        kwargs["mask_prob"] = g("mask_prob", 0.15, float)
    return TrainConfig(**kwargs)


def _cmd_corpus_prep(args) -> int:
    cfg = _load_config(args)
    tag = cfg.get("source_tag", None, str)
    if args.format == "prepared-jsonl":
        corpus = load_jsonl(_input(args.input))
    else:
        corpus = load_corpus(_input(args.input), args.format, seed=args.seed, source_tag=tag)
    save_jsonl(corpus, args.out)
    print(f"wrote {len(corpus)} sentences to {args.out}")
    return 0


def _cmd_index_build(args) -> int:
    cfg = _load_config(args)
    corpus = load_jsonl(_input(args.corpus))
    params = Bm25Params(k1=cfg.get("k1", 1.2, float), b=cfg.get("b", 0.75, float))
    index = build_index(corpus, params)
    save_index(index, args.out)
    print(f"indexed {len(corpus)} sentences to {args.out}")
    return 0


def _similarity(cfg: Config, embeddings_path) -> SimilarityFn:
    kind = cfg.get("similarity", "token-jaccard", str)
    table = None
    if embeddings_path is not None:
        table = load_embedding_table(_input(embeddings_path))
        if "similarity" not in cfg:
            kind = "embedding-cosine"
    return SimilarityFn(kind=kind, table=table)


def _cmd_attach(args) -> int:
    cfg = _load_config(args)
    schema_map = _input(args.schema_map) if args.schema_map else None
    dataset = load_mcq(_input(args.dataset), args.schema, schema_map=schema_map)
    corpus = load_jsonl(_input(args.corpus))
    index = load_index(_input(args.index)) if args.index else build_index(corpus)
    rr_config = RerankConfig(
        m=cfg.get("m", 10, int),
        lambda_=cfg.get("lambda", 1.0, float),
        similarity=_similarity(cfg, args.embeddings),
    )
    attached = attach_premises(
        dataset, corpus, index, QueryGenConfig(), rr_config,
        retrieve_k=cfg.get("retrieve_k", 50, int),
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


def _cmd_revise(args) -> int:
    cfg = _load_config(args)
    corpus = load_jsonl(_input(args.corpus))
    if args.encoder:
        encoder = load_encoder(_input(args.encoder))
    else:
        vocab = Vocab.from_texts(corpus.texts)
        encoder = EncoderModel.init(vocab, _encoder_config(cfg), seed=args.seed)
    revision_train(encoder, corpus, _train_config(cfg, args.seed + 3, mask=True))
    save_encoder(encoder, args.out)
    print(f"revised encoder on {len(corpus)} sentences to {args.out}")
    return 0


TRAIN_KEYS = ENCODER_KEYS + SGD_KEYS + (
    "head", "tied", "freeze_encoder", "openbook", "revision",
    "rev_lr", "rev_epochs", "rev_batch_size", "rev_momentum", "rev_mask_prob",
)


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    dataset = load_mcq(_input(args.dataset), args.schema)
    corpus = load_jsonl(_input(args.corpus)) if args.corpus else None

    openbook = cfg.get("openbook", True, bool)
    revision = cfg.get("revision", False, bool)
    head = cfg.get("head", "weighted-sum", str)
    if not openbook:
        if "head" in cfg and head != "baseline":
            raise CliError("openbook = false runs the baseline head; do not set head")
        head = "baseline"
    if revision and corpus is None:
        raise CliError("revision = true needs --corpus to pretrain on")

    if args.encoder:
        encoder = load_encoder(_input(args.encoder))
    else:
        vocab = training_vocab(dataset, corpus if revision else None)
        encoder = EncoderModel.init(vocab, _encoder_config(cfg), seed=args.seed)
    if revision:
        revision_train(
            encoder, corpus, _train_config(cfg, args.seed + 3, prefix="rev_", mask=True)
        )
    model = FusionModel.init(
        encoder, head, seed=args.seed + 1, tied=cfg.get("tied", False, bool)
    )
    train(
        model, dataset, _train_config(cfg, args.seed + 2),
        freeze_encoder=cfg.get("freeze_encoder", False, bool),
    )
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
    m_values = cfg.int_list("m_values", None)
    if m_values is None:
        raise CliError("sweep-m needs m_values in the config, e.g. m_values = [1, 2, 5]")
    model = load_model(_input(args.model))
    train_set = load_mcq(_input(args.train), args.schema)
    eval_set = load_mcq(_input(args.eval), args.schema)
    corpus = load_jsonl(_input(args.corpus))
    index = load_index(_input(args.index)) if args.index else build_index(corpus)
    retrain = cfg.get("retrain", True, bool)
    rows = sweep_m(
        model, train_set, eval_set, corpus, index, m_values,
        rr_config=RerankConfig(
            m=m_values[0],
            lambda_=cfg.get("lambda", 1.0, float),
            similarity=_similarity(cfg, args.embeddings),
        ),
        train_config=_train_config(cfg, args.seed + 2) if retrain else None,
        retrieve_k=cfg.get("retrieve_k", 50, int),
        freeze_encoder=cfg.get("freeze_encoder", False, bool),
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


def _add_common(sub, out_help: str, config_keys: tuple[str, ...] = ()):
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
    _add_common(sub, "prepared corpus JSONL", ("source_tag",))
    sub.set_defaults(run=_cmd_corpus_prep)

    sub = commands.add_parser("index-build", help="build the retrieval index for a corpus")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    _add_common(sub, "binary KIIX index file", ("k1", "b"))
    sub.set_defaults(run=_cmd_index_build)

    sub = commands.add_parser("attach", help="retrieve and attach premises to a dataset")
    sub.add_argument("--dataset", required=True, help="question file")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="question file schema")
    sub.add_argument("--schema-map", help="JSON field-name overrides for off-spec dumps")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--index", help="prebuilt binary KIIX index (default: build from the corpus)")
    sub.add_argument("--embeddings", help="word-embedding table for embedding-cosine re-ranking")
    _add_common(sub, "attached dataset JSONL", ("m", "lambda", "retrieve_k", "similarity"))
    sub.set_defaults(run=_cmd_attach)

    sub = commands.add_parser("pfqa-gen", help="generate the synthetic family-relations dataset")
    sub.add_argument("--facts", required=True, help="parent-facts file, one 'Child<TAB>Parent' per line")
    _add_common(sub, "output directory for knowledge.jsonl and train/dev/test.jsonl")
    sub.set_defaults(run=_cmd_pfqa_gen)

    sub = commands.add_parser("revise", help="pretrain an encoder on a corpus (masked tokens)")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--encoder", help="existing encoder checkpoint to continue from")
    _add_common(sub, "encoder checkpoint", ENCODER_KEYS + SGD_KEYS + ("mask_prob",))
    sub.set_defaults(run=_cmd_revise)

    sub = commands.add_parser("train", help="train a fusion model on an attached dataset")
    sub.add_argument("--dataset", required=True, help="attached dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--corpus", help="prepared corpus JSONL (needed when revision = true)")
    sub.add_argument("--encoder", help="pretrained encoder checkpoint to start from")
    _add_common(sub, "model checkpoint", TRAIN_KEYS)
    sub.set_defaults(run=_cmd_train)

    sub = commands.add_parser("eval", help="evaluate a model and write the accuracy report")
    sub.add_argument("--model", required=True, help="model checkpoint")
    sub.add_argument("--dataset", required=True, help="labelled dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--predictions", help="also write per-item predictions JSONL here")
    _add_common(sub, "evaluation report JSON")
    sub.set_defaults(run=_cmd_eval)

    sub = commands.add_parser("sweep-m", help="accuracy as a function of premises per option")
    sub.add_argument("--model", required=True, help="model checkpoint to start each point from")
    sub.add_argument("--train", required=True, help="training dataset (raw; premises are re-attached)")
    sub.add_argument("--eval", required=True, help="evaluation dataset (raw)")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    sub.add_argument("--corpus", required=True, help="prepared corpus JSONL")
    sub.add_argument("--index", help="prebuilt binary KIIX index (default: build from the corpus)")
    sub.add_argument("--embeddings", help="word-embedding table for embedding-cosine re-ranking")
    _add_common(sub, "CSV of (m, accuracy) rows", SGD_KEYS + (
        "m_values", "retrain", "lambda", "retrieve_k", "freeze_encoder", "similarity",
    ))
    sub.set_defaults(run=_cmd_sweep_m)

    sub = commands.add_parser("weight-report", help="per-passage weights vs. token overlap")
    sub.add_argument("--model", required=True, help="weighted-sum model checkpoint")
    sub.add_argument("--dataset", required=True, help="attached dataset JSONL")
    sub.add_argument("--schema", choices=SCHEMA_TAGS, default="generic", help="dataset schema")
    _add_common(sub, "CSV of (item, option, passage, weight, overlap) rows")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
