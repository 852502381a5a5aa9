"""Unified multiple-choice dataset model, schema loaders, premise attachment.

Supported input schemas (JSON lines, one record per ``\\n``-separated line,
read through :mod:`kiqa.textio`):

* ``anli``: abductive pairs — ``obs1``/``obs2`` become the context, the two
  hypotheses become the options, and the question is a fixed prompt since
  the source task has none.
* ``piqa``: physical goals — ``goal`` is the question, ``sol1``/``sol2``
  the options, no context.
* ``socialiqa``: ``context`` + ``question`` + three answers, 1-based label.
* ``generic``: the canonical schema this package writes, PFQA splits too:
  ``{"id", "context"?, "question", "options", "gold"?, "knowledge"?,
  "premises"?, "extras"?}``.

Field names of the ``anli``, ``piqa`` and ``socialiqa`` schemas can be
overridden with a small JSON schema map for off-spec dumps of the same
shape; the map is checked before any record is read, and a bad one is a
:class:`DatasetError` naming the map.  Field types are checked, not
coerced; a bad record or file is a :class:`DatasetError` naming the file
and line.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import CorpusError, CorpusRows, KnowledgeSentence, _sentence_fields
from .index import InvertedIndex, search
from .querygen import EmptyQueryError, QueryGenConfig, generate_query
from .rerank import RerankConfig, rerank
from .textio import json_lines, loads, read_text, write_json_lines

RETRIEVE_K = 50  # BM25 hits per option that the re-rank picks premises from
ANLI_QUESTION = "What is the most plausible explanation?"


class DatasetError(ValueError):
    pass


@dataclass
class McqItem:
    id: str
    question: str
    options: list[str]
    gold: int | None = None
    context: str | None = None
    premises: list[list[KnowledgeSentence]] | None = None
    knowledge: list[str] = field(default_factory=list)  # item-level gold facts
    extras: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.options) < 2:
            raise DatasetError(f"item {self.id!r}: need at least 2 options")
        if self.gold is not None and not 0 <= self.gold < len(self.options):
            raise DatasetError(f"item {self.id!r}: gold index {self.gold} out of range")
        if self.premises is not None and len(self.premises) != len(self.options):
            raise DatasetError(
                f"item {self.id!r}: {len(self.premises)} premise lists for "
                f"{len(self.options)} options"
            )

    @property
    def n(self) -> int:
        return len(self.options)


@dataclass
class McqDataset:
    items: list[McqItem]

    def __post_init__(self):
        seen = set()
        for item in self.items:
            if item.id in seen:
                raise DatasetError(f"duplicate item id {item.id!r}")
            seen.add(item.id)
        sizes = {item.n for item in self.items}
        if len(sizes) > 1:
            raise DatasetError(f"mixed option counts in one dataset: {sorted(sizes)}")

    def __len__(self) -> int:
        return len(self.items)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

_DEFAULT_MAPS = {
    "anli": {
        "id": "story_id",
        "fields": ["obs1", "obs2", "hyp1", "hyp2"],
        "label": "label",
        "label_base": 1,
    },
    "piqa": {
        "id": "id",
        "fields": ["goal", "sol1", "sol2"],
        "label": "label",
        "label_base": 0,
    },
    "socialiqa": {
        "id": "id",
        "fields": ["context", "question", "answerA", "answerB", "answerC"],
        "label": "label",
        "label_base": 1,
    },
}

SCHEMA_TAGS = ("anli", "piqa", "socialiqa", "generic")


def load_mcq(
    path: str | Path,
    schema_tag: str,
    schema_map: str | Path | None = None,
) -> McqDataset:
    """Load one JSON-lines file into the unified model.

    ``schema_map``, the path of a JSON file, overrides the default field
    names of an ``anli``, ``piqa`` or ``socialiqa`` load.  It is checked
    before any record is read: its keys must be among the built-in
    mapping's, ``id`` and ``label`` a field name or null, ``label_base``
    an integer, and ``fields`` the tag's number of field names.
    """
    if schema_tag not in SCHEMA_TAGS:
        raise DatasetError(f"unknown schema tag {schema_tag!r}")
    path = Path(path)
    mapping = dict(_DEFAULT_MAPS.get(schema_tag, {}))
    if schema_map is not None:
        name = str(schema_map)
        schema = loads(read_text(name, DatasetError), name, DatasetError)
        mapping.update(_check_schema_map(schema, schema_tag, f"{name}: schema map"))

    items = []
    for lineno, rec in json_lines(path, DatasetError):
        try:
            if type(rec) is not dict:
                raise TypeError(f"record must be a JSON object, got {type(rec).__name__}")
            if schema_tag == "generic":
                items.append(_item_from_generic(rec))
            else:
                items.append(_item_from_mapped(rec, schema_tag, mapping, lineno))
        except (KeyError, TypeError, ValueError) as exc:  # McqItem's DatasetError is one too
            raise DatasetError(f"{path}:{lineno}: malformed record: {exc}") from None
    if not items:
        raise DatasetError(f"empty dataset: {path}")
    try:
        return McqDataset(items=items)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _check_schema_map(schema_map, schema_tag: str, where: str) -> dict:
    """``schema_map`` once every key and value fits ``schema_tag``'s mapping."""
    if schema_tag not in _DEFAULT_MAPS:
        raise DatasetError(f"{where} applies only to {', '.join(_DEFAULT_MAPS)}, not {schema_tag}")
    if type(schema_map) is not dict:
        raise DatasetError(f"{where} must be a JSON object, got {type(schema_map).__name__}")
    n_fields = len(_DEFAULT_MAPS[schema_tag]["fields"])
    for key, value in schema_map.items():
        if key in ("id", "label"):
            ok, want = value is None or type(value) is str, "a field name or null"
        elif key == "label_base":
            ok, want = type(value) is int, "an integer"
        elif key == "fields":
            ok = _is_str_list(value) and len(value) == n_fields
            want = f"a list of {n_fields} field names"
        else:
            raise DatasetError(
                f"{where}: unknown key {key!r} (expected id, fields, label, label_base)"
            )
        if not ok:
            raise DatasetError(f"{where}: {key!r} must be {want}, got {reprlib.repr(value)}")
    return schema_map


def _item_from_mapped(rec: dict, schema_tag: str, mapping: dict, lineno: int) -> McqItem:
    fields = [rec[name] for name in mapping["fields"]]
    for name, value in zip(mapping["fields"], fields):
        if type(value) is not str:
            raise TypeError(f"{name!r} must be a string, got {type(value).__name__}")
    if schema_tag == "anli":
        context, question, options = f"{fields[0]} {fields[1]}", ANLI_QUESTION, fields[2:]
    elif schema_tag == "piqa":
        context, question, options = None, fields[0], fields[1:]
    else:  # socialiqa
        context, question, options = fields[0], fields[1], fields[2:]

    gold = None
    label_field = mapping.get("label")
    if label_field and rec.get(label_field) is not None:
        label = rec[label_field]
        if type(label) is str:  # SocialIQA ships its labels as strings
            label = int(label)
        if type(label) is not int:
            raise TypeError(f"label must be an integer or null, got {type(label).__name__}")
        gold = label - int(mapping.get("label_base", 0))
        if not 0 <= gold < len(options):
            raise ValueError(f"label {rec[label_field]!r} out of range")

    id_field = mapping.get("id")
    item_id = rec[id_field] if id_field and id_field in rec else f"{schema_tag}-{lineno:06d}"
    if type(item_id) is not str:
        raise TypeError(f"{id_field!r} must be a string, got {type(item_id).__name__}")
    return McqItem(id=item_id, question=question, options=options, gold=gold, context=context)


def _is_str_list(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _item_from_generic(rec: dict) -> McqItem:
    """A canonical record; ``premises`` are checked as a prepared corpus's records are."""
    for key in ("id", "question"):
        if not isinstance(rec.get(key), str):
            raise TypeError(f"{key!r} must be a string, got {type(rec.get(key)).__name__}")
    options = rec.get("options")
    if not _is_str_list(options):
        raise TypeError("'options' must be a list of strings")
    gold = rec.get("gold")
    if gold is not None and (not isinstance(gold, int) or isinstance(gold, bool)):
        raise TypeError(f"'gold' must be an integer or absent, got {type(gold).__name__}")
    context = rec.get("context")
    if context is not None and type(context) is not str:
        raise TypeError(f"'context' must be a string or null, got {type(context).__name__}")
    knowledge, extras = rec.get("knowledge", []), rec.get("extras", {})
    if not _is_str_list(knowledge):
        raise TypeError("'knowledge' must be a list of strings")
    if type(extras) is not dict or not _is_str_list(list(extras.values())):
        raise TypeError("'extras' must be an object of strings")
    premises = rec.get("premises")
    if premises is not None:
        if type(premises) is not list or not all(type(p) is list for p in premises):
            raise TypeError("'premises' must be a list of lists")
        try:
            premises = [
                [KnowledgeSentence(*_sentence_fields(p)) for p in plist] for plist in premises
            ]
        except CorpusError as exc:
            raise TypeError(f"premise: {exc}") from None
    return McqItem(rec["id"], rec["question"], options, gold, context, premises, knowledge, extras)


def save_mcq_jsonl(dataset: McqDataset, path: str | Path) -> None:
    """Canonical generic JSON-lines with premises embedded; fixed key order."""
    write_json_lines(path, map(_mcq_record, dataset.items))


def _mcq_record(item: McqItem) -> dict:
    rec: dict = {"id": item.id, "question": item.question, "options": item.options}
    if item.gold is not None:
        rec["gold"] = item.gold
    if item.context is not None:
        rec["context"] = item.context
    if item.knowledge:
        rec["knowledge"] = item.knowledge
    if item.premises is not None:
        rec["premises"] = [
            [
                {"id": p.id, "text": p.text, "source": p.source_tag, "title": p.title}
                for p in plist
            ]
            for plist in item.premises
        ]
    if item.extras:
        rec["extras"] = item.extras
    return rec


# ---------------------------------------------------------------------------
# Premise attachment (open-book preparation)
# ---------------------------------------------------------------------------

def attach_premises(
    dataset: McqDataset,
    corpus: CorpusRows,
    index: InvertedIndex,
    rr_config: RerankConfig,
    retrieve_k: int = RETRIEVE_K,
) -> McqDataset:
    """The dataset with every option's premises retrieved and re-ranked.

    Of the corpus only ``digest``, ``len`` and ``at`` are read.  It must be
    the one the index was built over, which is checked by the corpus digest
    the index records (a sha256 of the corpus's ids and texts).  Hits carry
    document positions, and candidates are read with ``corpus.at``, so the
    rows that :func:`kiqa.corpus.load_jsonl` returns for a file the index
    pins parse only the lines retrieved.  Queries are generated under the
    default :class:`QueryGenConfig`, the packaged stopword list.  An option
    whose query is all stopwords, or whose query retrieves nothing, gets an
    empty premise list.  Re-rank features are prepared once per distinct
    text in one memo, which is dropped when the call returns.
    """
    if index.corpus_digest != corpus.digest:
        raise DatasetError(
            f"index does not match the corpus: it was built over other ids or texts "
            f"({index.doc_count} documents; the corpus has {len(corpus)} sentences); "
            f"rebuild it with index-build"
        )
    qg_config = QueryGenConfig()
    out_items = []
    prepared: dict[str, object] = {}  # re-rank features by text, for this call only
    for item in dataset.items:
        premises: list[list[KnowledgeSentence]] = []
        for opt_ix in range(item.n):
            try:
                query = generate_query(item, opt_ix, qg_config)
            except EmptyQueryError:
                premises.append([])
                continue
            hits = search(index, query.terms, k=retrieve_k)
            if not hits:
                premises.append([])
                continue
            candidates = [corpus.at(h.pos) for h in hits]
            query_text = " ".join(query.terms)
            premises.append(rerank(candidates, query_text, rr_config, prepared=prepared))
        out_items.append(replace(item, premises=premises))
    return McqDataset(items=out_items)
