"""Schema loaders, the unified model, and premise attachment."""

import json
import re

import pytest

from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence
from kiqa.datasets import (
    ANLI_QUESTION,
    DatasetError,
    McqDataset,
    McqItem,
    attach_premises,
    load_mcq,
    save_mcq_jsonl,
)
from kiqa.index import build_index
from kiqa.rerank import RerankConfig


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


# --- schema loaders ----------------------------------------------------------

def test_load_anli(tmp_path):
    path = tmp_path / "anli.jsonl"
    write_jsonl(
        path,
        [
            {
                "story_id": "s1",
                "obs1": "It rained all night.",
                "obs2": "The street was dry.",
                "hyp1": "A tarp covered the street.",
                "hyp2": "It kept raining.",
                "label": 1,
            },
            {
                "story_id": "s2",
                "obs1": "A",
                "obs2": "B",
                "hyp1": "C",
                "hyp2": "D",
                "label": 2,
            },
        ],
    )
    ds = load_mcq(path, "anli")
    assert len(ds) == 2 and ds.items[0].n == 2
    first = ds.items[0]
    assert first.id == "s1"
    assert first.context == "It rained all night. The street was dry."
    assert first.question == ANLI_QUESTION
    assert first.options == ["A tarp covered the street.", "It kept raining."]
    assert first.gold == 0
    assert ds.items[1].gold == 1


def test_load_piqa(tmp_path):
    path = tmp_path / "piqa.jsonl"
    write_jsonl(
        path,
        [
            {"goal": "keep bread fresh", "sol1": "freeze it", "sol2": "soak it", "label": 0},
            {"goal": "open a jar", "sol1": "twist the lid", "sol2": "paint the lid", "label": 0},
        ],
    )
    ds = load_mcq(path, "piqa")
    assert ds.items[0].n == 2
    assert ds.items[0].context is None
    assert ds.items[0].question == "keep bread fresh"
    assert ds.items[0].id == "piqa-000001"  # no id field: generated from line number
    assert ds.items[1].id == "piqa-000002"


def test_load_socialiqa(tmp_path):
    path = tmp_path / "siqa.jsonl"
    write_jsonl(
        path,
        [
            {
                "context": "Remy hosted a party.",
                "question": "How would others feel?",
                "answerA": "left out",
                "answerB": "welcome",
                "answerC": "angry",
                "label": "2",
            }
        ],
    )
    ds = load_mcq(path, "socialiqa")
    assert ds.items[0].n == 3
    item = ds.items[0]
    assert item.context == "Remy hosted a party."
    assert item.gold == 1
    assert item.options == ["left out", "welcome", "angry"]


def test_label_out_of_range(tmp_path):
    path = tmp_path / "anli.jsonl"
    write_jsonl(path, [{"story_id": "s", "obs1": "a", "obs2": "b", "hyp1": "c", "hyp2": "d", "label": 3}])
    with pytest.raises(DatasetError, match="out of range"):
        load_mcq(path, "anli")


def test_missing_label_is_unlabeled(tmp_path):
    path = tmp_path / "piqa.jsonl"
    write_jsonl(path, [{"goal": "g", "sol1": "a", "sol2": "b"}])
    assert load_mcq(path, "piqa").items[0].gold is None


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"goal": "g", "sol1": "a", "sol2": "b"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DatasetError, match=r":2:"):
        load_mcq(path, "piqa")


def test_missing_field_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [{"goal": "g", "sol1": "only one"}])
    with pytest.raises(DatasetError, match=r":1:.*sol2"):
        load_mcq(path, "piqa")


def test_unknown_schema_tag(tmp_path):
    with pytest.raises(DatasetError, match="schema tag"):
        load_mcq(tmp_path / "x.jsonl", "csv")


def map_file(tmp_path, schema_map):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(schema_map), encoding="utf-8")
    return path


def test_schema_map_override(tmp_path):
    path = tmp_path / "renamed.jsonl"
    write_jsonl(path, [{"g": "goal text", "a": "one", "b": "two", "y": 1}])
    ds = load_mcq(path, "piqa", schema_map=map_file(tmp_path, {"fields": ["g", "a", "b"],
                                                                  "label": "y"}))
    assert ds.items[0].question == "goal text"
    assert ds.items[0].gold == 1


def test_schema_map_from_file(tmp_path):
    path = tmp_path / "renamed.jsonl"
    write_jsonl(path, [{"g": "goal", "a": "one", "b": "two"}])
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"fields": ["g", "a", "b"]}), encoding="utf-8")
    ds = load_mcq(path, "piqa", schema_map=map_path)
    assert ds.items[0].options == ["one", "two"]


def test_schema_map_null_id_and_label_make_ids_and_drop_gold(tmp_path):
    path = tmp_path / "piqa.jsonl"
    write_jsonl(path, [{"id": "p1", "goal": "g", "sol1": "a", "sol2": "b", "label": 1}])
    ds = load_mcq(path, "piqa", schema_map=map_file(tmp_path, {"id": None, "label": None}))
    assert (ds.items[0].id, ds.items[0].gold) == ("piqa-000001", None)


@pytest.mark.parametrize("schema, schema_map, message", [
    ("generic", {}, "applies only to anli, piqa, socialiqa, not generic"),
    ("anli", ["id"], "must be a JSON object, got list"),
    ("socialiqa", {"fields": ["c", "q", "a", "b"]}, "'fields' must be a list of 5 field names"),
    ("anli", {"fields": ["o1", "o2", "h1", 4]}, "'fields' must be a list of 4 field names"),
    ("anli", {"label_base": None}, "'label_base' must be an integer, got None"),
    ("piqa", {"label": ["label"]}, "'label' must be a field name or null"),
    ("piqa", {"gold": "label"}, "unknown key 'gold'"),
])
def test_bad_schema_map_is_refused_before_any_record_is_read(tmp_path, schema, schema_map,
                                                            message):
    never_opened, map_path = tmp_path / "missing.jsonl", map_file(tmp_path, schema_map)
    with pytest.raises(DatasetError,
                       match=f"^{re.escape(str(map_path))}: schema map.*{re.escape(message)}"):
        load_mcq(never_opened, schema, schema_map=map_path)


PIQA = {"id": "p1", "goal": "g", "sol1": "a", "sol2": "b", "label": 0}
GENERIC = {"id": "q1", "question": "q", "options": ["a", "b"]}


@pytest.mark.parametrize("schema, record, message", [
    ("piqa", dict(PIQA, goal=["sky", "x"]), "'goal' must be a string"),
    ("piqa", dict(PIQA, sol2=2), "'sol2' must be a string"),
    ("piqa", dict(PIQA, id=7), "'id' must be a string"),
    ("piqa", dict(PIQA, label=True), "label must be an integer"),
    ("piqa", dict(PIQA, label=0.0), "label must be an integer"),
    ("piqa", dict(PIQA, label="x"), "invalid literal"),
    ("generic", dict(GENERIC, context=5), "'context' must be a string or null"),
    ("generic", dict(GENERIC, knowledge="fact"), "'knowledge' must be a list of strings"),
    ("generic", dict(GENERIC, knowledge=None), "'knowledge' must be a list of strings"),
    ("generic", dict(GENERIC, extras=[1]), "'extras' must be an object of strings"),
    ("generic", dict(GENERIC, extras={"k": 1}), "'extras' must be an object of strings"),
    ("generic", dict(GENERIC, premises="k1"), "'premises' must be a list of lists"),
    ("generic", dict(GENERIC, premises=[[{"id": "k1"}], []]), "premise: missing field 'text'"),
    ("generic", dict(GENERIC, premises=[[{"id": 5, "text": ["x"]}], []]), "premise: id, text"),
    ("generic", dict(GENERIC, premises=[["k1"], []]), "premise: record must be a JSON object"),
    ("generic", dict(GENERIC, gold=2), "item 'q1': gold index 2 out of range"),
])
def test_record_with_a_wrong_field_type_names_its_line(tmp_path, schema, record, message):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [PIQA if schema == "piqa" else GENERIC, record])
    with pytest.raises(DatasetError, match=f"bad.jsonl:2: malformed record: {message}"):
        load_mcq(path, schema)


def test_dataset_level_error_names_the_file(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, [GENERIC, GENERIC])
    with pytest.raises(DatasetError, match="dup.jsonl: duplicate item id 'q1'"):
        load_mcq(path, "generic")


def test_generic_round_trip(tmp_path):
    premises = [
        [KnowledgeSentence(id="k1", text="Fact one.", source_tag="plain")],
        [],
    ]
    ds = McqDataset(
        items=[
            McqItem(
                id="i1",
                question="Who?",
                options=["alice", "bob"],
                gold=1,
                context="Some story.",
                premises=premises,
                knowledge=["The parent of A is B."],
                extras={"person": "A", "qtype": "parent"},
            )
        ],
    )
    path = tmp_path / "ds.jsonl"
    save_mcq_jsonl(ds, path)
    back = load_mcq(path, "generic")
    assert back.items == ds.items


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_round_trip_keeps_unicode_line_separators(tmp_path, sep):
    # written raw (ensure_ascii=False), so only "\n" may end a record
    premise = KnowledgeSentence(id="k1", text=f"Fact{sep}one.", source_tag="plain")
    items = [
        McqItem(
            id=f"i{sep}1", question=f"Who{sep}?", options=[f"a{sep}", "b"], gold=0,
            context=f"Story{sep}.", premises=[[premise], []], knowledge=[f"K{sep}"],
            extras={"note": f"x{sep}y"},
        ),
        McqItem(id="i2", question="q", options=["c", "d"]),
    ]
    path = tmp_path / "ds.jsonl"
    save_mcq_jsonl(McqDataset(items=items), path)
    assert path.read_text(encoding="utf-8").count("\n") == 2
    assert load_mcq(path, "generic").items == items


def test_save_is_deterministic(tmp_path):
    items = [McqItem(id="i1", question="q", options=["a", "b"], gold=0)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_mcq_jsonl(McqDataset(items=items), a)
    save_mcq_jsonl(McqDataset(items=list(items)), b)
    assert a.read_bytes() == b.read_bytes()


# --- model invariants ----------------------------------------------------------

def test_item_needs_two_options():
    with pytest.raises(DatasetError, match="2 options"):
        McqItem(id="x", question="q", options=["only"])


def test_item_gold_in_range():
    with pytest.raises(DatasetError, match="out of range"):
        McqItem(id="x", question="q", options=["a", "b"], gold=2)


def test_item_premises_length_checked():
    with pytest.raises(DatasetError, match="premise lists"):
        McqItem(id="x", question="q", options=["a", "b"], premises=[[]])


def test_dataset_rejects_duplicate_ids():
    items = [
        McqItem(id="x", question="q", options=["a", "b"]),
        McqItem(id="x", question="r", options=["c", "d"]),
    ]
    with pytest.raises(DatasetError, match="duplicate"):
        McqDataset(items=items)


def test_dataset_rejects_mixed_option_counts():
    items = [
        McqItem(id="x", question="q", options=["a", "b"]),
        McqItem(id="y", question="r", options=["c", "d", "e"]),
    ]
    with pytest.raises(DatasetError, match="mixed option counts"):
        McqDataset(items=items)


# --- attach_premises ----------------------------------------------------------

def make_corpus(texts):
    return KnowledgeCorpus([KnowledgeSentence(id=f"{i:08d}", text=t) for i, t in enumerate(texts)])


def planted_setup():
    # One planted sentence per option carries that option's rare token; the
    # question word appears nowhere in the corpus, so the planted sentence
    # is the only possible hit for its option.
    corpus = make_corpus(
        [
            "the zugzwang move ended the game",   # option 0 of item a
            "a quokka smiled at the camera",      # option 1 of item a
            "teal paint dried slowly",            # option 0 of item b
            "the marimba rang out",               # option 1 of item b
        ]
    )
    items = [
        McqItem(id="a", question="pick one describing", options=["zugzwang", "quokka"]),
        McqItem(id="b", question="pick one describing", options=["teal", "marimba"]),
    ]
    ds = McqDataset(items=items)
    return ds, corpus, build_index(corpus)


def test_attach_finds_planted_sentences():
    ds, corpus, idx = planted_setup()
    out = attach_premises(ds, corpus, idx, RerankConfig(m=10))
    assert [p[0].id for p in out.items[0].premises] == ["00000000", "00000001"]
    assert [p[0].id for p in out.items[1].premises] == ["00000002", "00000003"]
    # premises always come from the corpus
    for item in out.items:
        for plist in item.premises:
            assert all(p.id in corpus for p in plist)


def test_attach_respects_m():
    ds, corpus, idx = planted_setup()
    out = attach_premises(ds, corpus, idx, RerankConfig(m=1))
    assert all(len(plist) <= 1 for item in out.items for plist in item.premises)


def test_attach_is_deterministic():
    ds, corpus, idx = planted_setup()
    a = attach_premises(ds, corpus, idx, RerankConfig(m=2))
    b = attach_premises(ds, corpus, idx, RerankConfig(m=2))
    assert a.items == b.items


def test_attach_unmatched_option_gets_empty_list():
    corpus = make_corpus(["completely unrelated words here"])
    ds = McqDataset(items=[McqItem(id="a", question="xylophone", options=["quasar", "nebula"])])
    out = attach_premises(ds, corpus, build_index(corpus), RerankConfig())
    assert out.items[0].premises == [[], []]


def test_attach_all_stopwords_option_gets_empty_list():
    corpus = make_corpus(["some words to index"])
    ds = McqDataset(items=[McqItem(id="a", question="the", options=["of the", "words"])])
    out = attach_premises(ds, corpus, build_index(corpus), RerankConfig())
    assert out.items[0].premises[0] == []
    assert [p.id for p in out.items[0].premises[1]] == ["00000000"]


def test_attach_preserves_original_dataset():
    ds, corpus, idx = planted_setup()
    attach_premises(ds, corpus, idx, RerankConfig())
    assert all(item.premises is None for item in ds.items)
