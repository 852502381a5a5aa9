"""attach and sweep-m on an index that pins its corpus file, against the full load.

index-build records the sha256 of the corpus file it read.  Given that very
file, attach and sweep-m hash it instead of parsing it, and parse only the
rows they read.  The oracle is the full load: the same stage without
``--index`` parses every row and builds the index in memory.  The outputs
must match byte for byte.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kiqa.corpus
from kiqa.cli import main
from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence, save_jsonl
from kiqa.datasets import load_mcq
from kiqa.index import build_index, load_index, save_index, search
from kiqa.querygen import QueryGenConfig, generate_query

WORDS = ["sky", "blue", "green", "grass", "sun", "yellow", "sea", "salt", "café", "日本"]
# escaped quotes and backslashes, a line separator inside a string, non-ASCII
ODD = ['"', "\\", '\\"', "\u2028", "é", "ß", "😀"]
RETRIEVE_K = 3
ATTACH_CFG = f"m = 2\nretrieve_k = {RETRIEVE_K}\n"
SWEEP_CFG = f"m_values = [1, 2]\nretrain = false\nretrieve_k = {RETRIEVE_K}\n"


def questions(words_of_items):
    return [{"id": f"q{i}", "question": f"what is {a} {b}", "options": [c, d], "gold": 0}
            for i, (a, b, c, d) in enumerate(words_of_items)]


def write_inputs(d, corpus, items):
    save_jsonl(corpus, d / "c.jsonl")
    (d / "qs.jsonl").write_text("".join(json.dumps(q) + "\n" for q in items), encoding="utf-8")
    (d / "attach.cfg").write_text(ATTACH_CFG, encoding="utf-8")
    (d / "sweep.cfg").write_text(SWEEP_CFG, encoding="utf-8")


def attach(d, out, corpus="c.jsonl", index="i.kiix"):
    argv = ["attach", "--dataset", str(d / "qs.jsonl"), "--corpus", str(d / corpus),
            "--config", str(d / "attach.cfg"), "--out", str(d / out)]
    return main(argv + (["--index", str(d / index)] if index else []))


def sweep(d, out, model, index="i.kiix"):
    argv = ["sweep-m", "--model", str(model), "--train", str(d / "qs.jsonl"),
            "--eval", str(d / "qs.jsonl"), "--corpus", str(d / "c.jsonl"),
            "--config", str(d / "sweep.cfg"), "--out", str(d / out)]
    return main(argv + (["--index", str(d / index)] if index else []))


def index_build(d, corpus="c.jsonl", out="i.kiix"):
    return main(["index-build", "--corpus", str(d / corpus), "--out", str(d / out)])


def sha256(path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def plain_corpus(n, tag="plain"):
    """n sentences of two to four of WORDS each, ids ascending."""
    return KnowledgeCorpus(
        KnowledgeSentence(id=f"{i:08d}", source_tag=tag, text=" ".join(
            WORDS[(i * k + k) % len(WORDS)] for k in range(1, 2 + i % 3 + 1)))
        for i in range(n))


ITEMS = questions([("sky", "blue", "green", "sun"), ("sea", "salt", "grass", "café")])


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A small concat model; sweep-m starts every depth from it."""
    d = tmp_path_factory.mktemp("model")
    write_inputs(d, plain_corpus(20), ITEMS)
    (d / "train.cfg").write_text('head = "concat"\nd = 8\nepochs = 1\n', encoding="utf-8")
    assert attach(d, "attached.jsonl", index=None) == 0
    assert main(["train", "--dataset", str(d / "attached.jsonl"), "--config",
                 str(d / "train.cfg"), "--out", str(d / "model.kfus")]) == 0
    return d / "model.kfus"


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 24))
    sentences = [
        KnowledgeSentence(
            id=f"s{i:03d}{draw(st.sampled_from(['', *ODD]))}",
            text=" ".join(draw(st.permutations(
                draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))
                + draw(st.lists(st.sampled_from(ODD), max_size=3))))),
            source_tag=draw(st.sampled_from(["plain", *ODD])),
            title=draw(st.none() | st.sampled_from(ODD)),
        )
        for i in range(n)
    ]
    paragraphs = [(0, n)] if draw(st.booleans()) else None  # a trailing paragraphs line
    return KnowledgeCorpus(sentences, paragraphs=paragraphs)


_ITEM_WORDS = st.tuples(*[st.sampled_from(WORDS)] * 4)


@given(corpus=corpora(), items=st.lists(_ITEM_WORDS, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_pinned_attach_and_sweep_m_equal_the_full_load(tmp_path_factory, model, corpus, items):
    d = tmp_path_factory.mktemp("pin")
    write_inputs(d, corpus, questions(items))
    assert index_build(d) == 0
    assert load_index(d / "i.kiix").corpus_file_sha256 == sha256(d / "c.jsonl")
    assert attach(d, "pinned.jsonl") == 0
    assert attach(d, "full.jsonl", index=None) == 0
    assert (d / "pinned.jsonl").read_bytes() == (d / "full.jsonl").read_bytes()
    assert sweep(d, "pinned.csv", model) == 0
    assert sweep(d, "full.csv", model, index=None) == 0
    assert (d / "pinned.csv").read_bytes() == (d / "full.csv").read_bytes()


@pytest.fixture
def parsed_ids(monkeypatch):
    """The id of every sentence record the corpus module parses."""
    seen = []
    fields = kiqa.corpus._sentence_fields

    def spy(rec):
        parsed = fields(rec)
        seen.append(parsed[0])
        return parsed

    monkeypatch.setattr(kiqa.corpus, "_sentence_fields", spy)
    return seen


def candidate_ids(d, questions_file="qs.jsonl") -> set[str]:
    """The ids of every BM25 hit attach re-ranks for the questions in ``d``."""
    index = load_index(d / "i.kiix")
    found = set()
    for item in load_mcq(d / questions_file, "generic").items:
        for option in range(item.n):
            terms = generate_query(item, option, QueryGenConfig()).terms
            found |= {hit.sentence_id for hit in search(index, terms, k=RETRIEVE_K)}
    return found


def test_pinned_attach_parses_only_the_candidate_lines(tmp_path, parsed_ids):
    write_inputs(tmp_path, plain_corpus(80), ITEMS)
    assert index_build(tmp_path) == 0
    parsed_ids.clear()
    assert attach(tmp_path, "a.jsonl") == 0
    expected = candidate_ids(tmp_path)
    assert 0 < len(expected) <= 4 * RETRIEVE_K
    assert sorted(parsed_ids) == sorted(expected)


def test_a_resaved_corpus_with_another_source_tag_takes_the_full_load(tmp_path, parsed_ids):
    write_inputs(tmp_path, plain_corpus(40), ITEMS)
    assert index_build(tmp_path) == 0
    save_jsonl(plain_corpus(40, tag="resaved"), tmp_path / "c.jsonl")  # same ids and texts
    parsed_ids.clear()
    assert attach(tmp_path, "pinned.jsonl") == 0
    assert len(parsed_ids) == 40
    assert attach(tmp_path, "full.jsonl", index=None) == 0
    assert (tmp_path / "pinned.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
    assert '"source": "resaved"' in (tmp_path / "pinned.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("variant", ["blank line", "blank first line", "crlf", "paragraphs first"])
def test_a_corpus_whose_rows_do_not_lead_the_file_gets_a_zero_file_hash(
        tmp_path, parsed_ids, variant):
    write_inputs(tmp_path, plain_corpus(30), ITEMS)
    lines = (tmp_path / "c.jsonl").read_bytes().split(b"\n")
    if variant == "blank line":
        lines.insert(11, b"")
    elif variant == "blank first line":
        lines.insert(0, b"  ")
    elif variant == "paragraphs first":
        lines.insert(0, b'{"paragraphs": [[0, 30]]}')
    data = b"\n".join(lines)
    (tmp_path / "c.jsonl").write_bytes(data.replace(b"\n", b"\r\n") if variant == "crlf" else data)
    assert index_build(tmp_path) == 0
    assert load_index(tmp_path / "i.kiix").corpus_file_sha256 == bytes(32)
    parsed_ids.clear()
    assert attach(tmp_path, "a.jsonl") == 0
    assert len(parsed_ids) == 30  # the full load
    assert attach(tmp_path, "full.jsonl", index=None) == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()


def test_a_malformed_line_exits_1_naming_it_when_attach_reads_it(tmp_path, capsys):
    good = plain_corpus(30)
    write_inputs(tmp_path, good, ITEMS)
    save_index(build_index(good), tmp_path / "i.kiix")
    (tmp_path / "q0.jsonl").write_text(json.dumps(ITEMS[0]) + "\n", encoding="utf-8")
    (tmp_path / "q1.jsonl").write_text(json.dumps(ITEMS[1]) + "\n", encoding="utf-8")
    only_q0 = candidate_ids(tmp_path, "q0.jsonl") - candidate_ids(tmp_path, "q1.jsonl")
    bad_row = good.ids.index(min(only_q0))
    lines = (tmp_path / "c.jsonl").read_bytes().split(b"\n")
    lines[bad_row] = json.dumps({"id": good.ids[bad_row], "text": 5}).encode()
    (tmp_path / "c.jsonl").write_bytes(b"\n".join(lines))
    # a hand-made index: the good corpus's ids and digest, the bad file's sha256
    index = dataclasses.replace(build_index(good), corpus_file_sha256=sha256(tmp_path / "c.jsonl"))
    save_index(index, tmp_path / "i.kiix")
    for questions_file, rc in [("q0.jsonl", 1), ("q1.jsonl", 0)]:
        (tmp_path / "qs.jsonl").write_bytes((tmp_path / questions_file).read_bytes())
        capsys.readouterr()
        assert attach(tmp_path, questions_file + ".out") == rc
        err = capsys.readouterr().err
        if rc:
            assert "Traceback" not in err and len(err.splitlines()) == 1
            assert err.startswith(f"error: {tmp_path / 'c.jsonl'}:{bad_row + 1}: ")
            assert "must be strings" in err
    assert not (tmp_path / "q0.jsonl.out").exists()
