"""Corpus preparation: splitting, templating, loading, serialization."""

import hashlib
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa import corpus
from kiqa.textio import InputError

from corpora import corpus_of

# ---------------------------------------------------------------------------
# Sentence splitting: hand-labeled paragraphs
# ---------------------------------------------------------------------------

# Labels follow the documented rules: split after terminal punctuation
# (plus trailing quotes/brackets) followed by whitespace, except after
# known abbreviations and single-letter initials; whitespace inside each
# sentence is normalized to single spaces.
SPLIT_CASES = [
    ("The cat sat on the mat. It purred.", ["The cat sat on the mat.", "It purred."]),
    ("Dr. Smith arrived at noon. He was late.", ["Dr. Smith arrived at noon.", "He was late."]),
    ("Is it raining? Yes, it is!", ["Is it raining?", "Yes, it is!"]),
    ("We visited St. Paul in June.", ["We visited St. Paul in June."]),
    ("The recipe needs 2.5 cups of flour.", ["The recipe needs 2.5 cups of flour."]),
    ('He said "stop." Then he left.', ['He said "stop."', "Then he left."]),
    (
        "Pack boxes early. Label every box. Stack them high.",
        ["Pack boxes early.", "Label every box.", "Stack them high."],
    ),
    ("Mr. and Mrs. Jones left. They went home.", ["Mr. and Mrs. Jones left.", "They went home."]),
    ("E. coli is a bacterium.", ["E. coli is a bacterium."]),
    ("Use tape, e.g. duct tape, to seal boxes.", ["Use tape, e.g. duct tape, to seal boxes."]),
    ("It costs $5. That is cheap.", ["It costs $5.", "That is cheap."]),
    ("No terminator here", ["No terminator here"]),
    ("   Leading spaces. And trailing.   ", ["Leading spaces.", "And trailing."]),
    ("One!!! Two??? Three.", ["One!!!", "Two???", "Three."]),
    ("The U.S. economy grew.", ["The U.S. economy grew."]),
    ("Wait... what happened?", ["Wait...", "what happened?"]),
    ("approx. 50 people came. All stayed.", ["approx. 50 people came.", "All stayed."]),
    ("(He left.) (She stayed.)", ["(He left.)", "(She stayed.)"]),
    ("Really?! No way.", ["Really?!", "No way."]),
    ("i.e. the best option", ["i.e. the best option"]),
    ("Version 2. It shipped.", ["Version 2.", "It shipped."]),
    ("Hello world", ["Hello world"]),
    ("First  sentence.  Second   one.", ["First sentence.", "Second one."]),
    ("Line one.\nLine two.", ["Line one.", "Line two."]),
    (
        "Numbers 3.14 and 2.71 are constants. True.",
        ["Numbers 3.14 and 2.71 are constants.", "True."],
    ),
    ("A. Lincoln spoke.", ["A. Lincoln spoke."]),
    ("He asked why? Because.", ["He asked why?", "Because."]),
    ("End with exclaim!", ["End with exclaim!"]),
    ('Quote at end: "Done."', ['Quote at end: "Done."']),
    ("fig. 3 shows growth. See fig. 4.", ["fig. 3 shows growth.", "See fig. 4."]),
    ("etc. and so on. Done.", ["etc. and so on.", "Done."]),
    ("He lives in the U.S.", ["He lives in the U.S."]),
    (
        "Ph.D. candidates may apply. Deadlines vary.",
        ["Ph.D. candidates may apply.", "Deadlines vary."],
    ),
    ("Meet at 5 p.m. sharp tomorrow.", ["Meet at 5 p.m. sharp tomorrow."]),
    ("Trains run at 9 a.m. They are fast.", ["Trains run at 9 a.m. They are fast."]),
    (
        "Step 1. Gather tools. Step 2. Measure twice.",
        ["Step 1.", "Gather tools.", "Step 2.", "Measure twice."],
    ),
    (
        "Boxes, tape, markers, etc. were sold out. We waited.",
        ["Boxes, tape, markers, etc. were sold out.", "We waited."],
    ),
    ("Он пришёл. Она ушла.", ["Он пришёл.", "Она ушла."]),
    ("¿Qué pasa? ¡Nada!", ["¿Qué pasa?", "¡Nada!"]),
    ("The file is report.txt and it works.", ["The file is report.txt and it works."]),
    ("Visit www.example.com. Then sign up.", ["Visit www.example.com.", "Then sign up."]),
    (
        'He whispered, "Is anyone there?" No one answered.',
        ['He whispered, "Is anyone there?"', "No one answered."],
    ),
    (
        "Mix flour and water. Knead the dough! Let it rest?",
        ["Mix flour and water.", "Knead the dough!", "Let it rest?"],
    ),
    (
        "Temperatures hit 100.5 degrees. Stay inside.",
        ["Temperatures hit 100.5 degrees.", "Stay inside."],
    ),
    (
        "Prof. Lee teaches math. Dr. Ray teaches physics.",
        ["Prof. Lee teaches math.", "Dr. Ray teaches physics."],
    ),
    ("One sentence only.", ["One sentence only."]),
    ("Tabs\tand\nnewlines. Are normalized.", ["Tabs and newlines.", "Are normalized."]),
    ("He scored 10 vs. 8 last week. Rematch soon.", ["He scored 10 vs. 8 last week.", "Rematch soon."]),
    ("Items: a) rope. b) glue. c) nails.", ["Items: a) rope.", "b) glue.", "c) nails."]),
    ("", []),
]


@pytest.mark.parametrize("paragraph,expected", SPLIT_CASES, ids=range(len(SPLIT_CASES)))
def test_split_sentences_labeled_sample(paragraph, expected):
    assert corpus.split_sentences(paragraph) == expected


@given(st.text(max_size=300))
def test_split_preserves_non_whitespace(paragraph):
    parts = corpus.split_sentences(paragraph)
    want = "".join(paragraph.split())
    got = "".join("".join(p.split()) for p in parts)
    assert got == want
    assert all(p == " ".join(p.split()) and p for p in parts)


# ---------------------------------------------------------------------------
# Titled paragraphs
# ---------------------------------------------------------------------------

def test_titled_prefixes_each_sentence():
    texts, titles, ranges = corpus.prepare_titled(
        [("How to Pack for Self Storage", "Stand sofas on end. Cover with blankets.")]
    )
    assert texts == [
        "How to Pack for Self Storage . Stand sofas on end.",
        "How to Pack for Self Storage . Cover with blankets.",
    ]
    assert ranges == [(0, 2)]
    assert titles == ["How to Pack for Self Storage"] * 2


def test_an_empty_title_prefixes_nothing_and_is_null():
    texts, titles, _ = corpus.prepare_titled([("  ", "A b. C d.")])
    assert texts == ["A b.", "C d."]
    assert titles == [None, None]


def test_titled_paragraph_ranges_cover_all_sentences(tmp_path):
    paras = [("T1", "A b. C d. E f."), ("T2", ""), ("T3", "G h.")]
    texts, titles, ranges = corpus.prepare_titled(paras)
    assert len(texts) == len(titles) == 4
    assert ranges == [(0, 3), (3, 4)]  # empty paragraph contributes no range
    src = tmp_path / "paras.jsonl"
    src.write_text("".join(json.dumps({"title": t, "text": b}) + "\n" for t, b in paras),
                   encoding="utf-8")
    loaded = corpus.load_corpus(src, "titled-paragraphs")
    assert loaded.ids == ["00000000", "00000001", "00000002", "00000003"]
    assert (loaded.texts, loaded.titles, loaded.paragraphs) == (texts, titles, ranges)


@pytest.mark.parametrize("fmt, record, tag", [
    ("plain-lines", "Ice melts.", "plain"),
    ("titled-paragraphs", {"title": "Ice", "text": "Ice melts."}, "wikihow"),
    ("atomic-events", {"event": "PersonX melts ice", "dimension": "xReact",
                       "inference": "cold"}, "atomic"),
])
def test_load_corpus_numbers_ids_and_tags_each_format(tmp_path, fmt, record, tag):
    src = tmp_path / "raw"
    src.write_text("".join((r if fmt == "plain-lines" else json.dumps(r)) + "\n"
                           for r in [record, record]), encoding="utf-8")
    loaded = corpus.load_corpus(src, fmt)
    assert loaded.ids == ["00000000", "00000001"] and loaded.tags == [tag, tag]
    assert corpus.load_corpus(src, fmt, source_tag="mine").tags == ["mine", "mine"]


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abc XY", min_size=1, max_size=10),
            st.text(alphabet="abcd. ", max_size=60),
        ),
        max_size=8,
    )
)
def test_titled_counts_match_split(paras):
    texts, titles, ranges = corpus.prepare_titled(paras)
    expected_total = sum(len(corpus.split_sentences(body)) for _, body in paras)
    assert len(texts) == len(titles) == expected_total
    # ranges partition the output
    flat = [i for lo, hi in ranges for i in range(lo, hi)]
    assert flat == list(range(len(texts)))


# ---------------------------------------------------------------------------
# Event templating
# ---------------------------------------------------------------------------

def test_wants_template_renders_full_sentence():
    events = [
        {
            "event": "PersonX takes PersonX's dog to the dog park",
            "dimension": "xWant",
            "inference": "to socialize with other dog owners",
        }
    ]
    texts = corpus.prepare_atomic(events, ["Jody"], seed=0)
    assert len(texts) == 1
    assert texts[0] == (
        "Jody takes Jody's dog to the dog park, "
        "as a result Jody wants to socialize with other dog owners."
    )


def test_all_eight_dimensions_render():
    templates = corpus.load_atomic_templates()
    assert len(templates) == 8
    events = [
        {"event": "PersonX wins the race", "dimension": dim, "inference": "happy"}
        for dim in templates
    ]
    texts = corpus.prepare_atomic(events, ["Morgan"], seed=1)
    assert len(texts) == 8
    assert all("Morgan wins the race" in text for text in texts)
    assert all(text.endswith(".") for text in texts)


def test_two_persons_get_distinct_names():
    events = [{"event": "PersonX thanks PersonY", "dimension": "xReact", "inference": "grateful"}]
    for seed in range(20):
        (text,) = corpus.prepare_atomic(events, ["Ada", "Bo"], seed=seed)
        assert "Ada" in text and "Bo" in text


def test_blank_events_are_skipped():
    events = [
        {"event": "PersonX fills in the ___", "dimension": "xWant", "inference": "to finish"},
        {"event": "PersonX waters the garden", "dimension": "xEffect", "inference": "gets muddy"},
    ]
    texts = corpus.prepare_atomic(events, ["Kai"], seed=3)
    assert texts == ["Kai waters the garden, as a result Kai gets muddy."]


def test_unknown_dimension_rejected():
    events = [{"event": "PersonX sings", "dimension": "xBogus", "inference": "joyful"}]
    with pytest.raises(InputError, match="dimension"):
        corpus.prepare_atomic(events, ["Kai"], seed=0)


def test_single_name_pool_with_two_persons_rejected():
    events = [{"event": "PersonX calls PersonY", "dimension": "oReact", "inference": "glad"}]
    with pytest.raises(InputError, match="pool"):
        corpus.prepare_atomic(events, ["Solo"], seed=0)


def test_empty_name_pool_rejected():
    events = [{"event": "PersonX sings", "dimension": "xReact", "inference": "joyful"}]
    with pytest.raises(InputError, match="^empty name pool$"):
        corpus.prepare_atomic(events, [], seed=0)


def test_corpus_columns_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="^corpus columns differ in length$"):
        corpus.KnowledgeCorpus(["a", "b"], ["x", "y"], ["t", "t"], [None])


_SEED_EVENTS = [
    {"event": "PersonX plants a tree", "dimension": "xWant", "inference": "to see it grow"},
    {"event": "PersonX greets PersonY", "dimension": "oReact", "inference": "welcome"},
    {"event": "PersonX paints the ___", "dimension": "xAttr", "inference": "artistic"},
    {"event": "PersonX reads a book", "dimension": "xIntent", "inference": "to learn"},
]
_SEED_POOL = ["Jody", "Quinn", "Rowan", "Sage"]


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=30)
def test_seed_changes_names_but_not_structure(seed_a, seed_b):
    a = corpus.prepare_atomic(_SEED_EVENTS, _SEED_POOL, seed_a)
    b = corpus.prepare_atomic(_SEED_EVENTS, _SEED_POOL, seed_b)
    assert len(a) == len(b)  # so load_corpus numbers the same ids

    def skeleton(text):
        for name in _SEED_POOL:
            text = text.replace(name, "<P>")
        return text

    assert list(map(skeleton, a)) == list(map(skeleton, b))


def test_same_seed_reproduces_exactly():
    a = corpus.prepare_atomic(_SEED_EVENTS, _SEED_POOL, seed=42)
    b = corpus.prepare_atomic(_SEED_EVENTS, _SEED_POOL, seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# Loading and round trips
# ---------------------------------------------------------------------------

def test_load_plain_lines_round_trip(tmp_path):
    src = tmp_path / "kb.txt"
    src.write_text("Water boils at 100 C.\nIce is frozen water.\n", encoding="utf-8")
    loaded = corpus.load_corpus(src, "plain-lines")
    assert [s.id for s in loaded.sentences] == ["00000000", "00000001"]
    assert loaded.texts == ["Water boils at 100 C.", "Ice is frozen water."]


def test_load_same_file_twice_is_identical(tmp_path):
    src = tmp_path / "kb.txt"
    src.write_text("A b.\nC d.\n", encoding="utf-8")
    c1 = corpus.load_corpus(src, "plain-lines")
    c2 = corpus.load_corpus(src, "plain-lines")
    assert c1.sentences == c2.sentences


def test_jsonl_round_trip_keeps_metadata(tmp_path):
    paras = [{"title": "Knots", "text": "Pull the rope tight. Tie a loop."}]
    src = tmp_path / "paras.jsonl"
    src.write_text("\n".join(json.dumps(p) for p in paras) + "\n", encoding="utf-8")
    loaded = corpus.load_corpus(src, "titled-paragraphs")
    assert loaded.paragraphs == [(0, 2)]

    out = tmp_path / "corpus.jsonl"
    corpus.save_jsonl(loaded, out)
    again = corpus.load_jsonl(out)
    assert again.sentences == loaded.sentences
    assert again.paragraphs == [(0, 2)]


def test_load_atomic_events_file(tmp_path):
    src = tmp_path / "events.jsonl"
    src.write_text(
        json.dumps(
            {"event": "PersonX bakes bread", "dimension": "xReact", "inference": "proud"}
        )
        + "\n",
        encoding="utf-8",
    )
    loaded = corpus.load_corpus(src, "atomic-events", seed=9)
    name = random.Random(9).choice(corpus.load_name_pool())  # the first draw names PersonX
    assert loaded.sentences[0].text == f"{name} bakes bread, as a result {name} feels proud."
    assert loaded.sentences[0].source_tag == "atomic"


def test_empty_file_is_an_error(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty corpus"):
        corpus.load_corpus(src, "plain-lines")


def test_malformed_jsonl_reports_line_number(tmp_path):
    src = tmp_path / "bad.jsonl"
    src.write_text('{"title": "T", "text": "A b."}\n{not json}\n', encoding="utf-8")
    with pytest.raises(InputError, match=r":2:"):
        corpus.load_corpus(src, "titled-paragraphs")


def test_missing_field_reports_line_number(tmp_path):
    src = tmp_path / "bad.jsonl"
    src.write_text('{"title": "T"}\n', encoding="utf-8")
    with pytest.raises(InputError, match=r":1:.*text"):
        corpus.load_corpus(src, "titled-paragraphs")


def test_unknown_format_rejected(tmp_path):
    src = tmp_path / "kb.txt"
    src.write_text("A b.\n", encoding="utf-8")
    with pytest.raises(InputError, match="format"):
        corpus.load_corpus(src, "csv")


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        corpus.load_corpus(tmp_path / "nope.txt", "plain-lines")


# ---------------------------------------------------------------------------
# Corpus container invariants
# ---------------------------------------------------------------------------

def test_duplicate_ids_rejected():
    sents = [
        corpus.KnowledgeSentence(id="x", text="A b."),
        corpus.KnowledgeSentence(id="x", text="C d."),
    ]
    with pytest.raises(InputError, match="duplicate"):
        corpus_of(sents)


def test_blank_sentence_rejected():
    with pytest.raises(InputError, match="empty"):
        corpus_of([corpus.KnowledgeSentence(id="x", text="   ")])


def test_stats_and_lookup():
    kc = corpus_of(
        [
            corpus.KnowledgeSentence(id="a", text="Water boils at 100 C."),
            corpus.KnowledgeSentence(id="b", text="Ice melts."),
        ]
    )
    assert len(kc) == 2
    assert kc.at(1).text == "Ice melts."
    assert "a" in kc and "z" not in kc


# ---------------------------------------------------------------------------
# Column store: fast loaders and saver against the per-line code they replaced
# ---------------------------------------------------------------------------

def oracle_save_jsonl(kc, path):
    """One json.dumps per record, as the writer was before the column store."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent in kc.sentences:
            rec = {"id": sent.id, "text": sent.text, "source": sent.source_tag, "title": sent.title}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        if kc.paragraphs is not None:
            fh.write(json.dumps({"paragraphs": kc.paragraphs}) + "\n")


def oracle_load_jsonl(path):
    """One json.loads and one KnowledgeSentence per record.

    This is the loader from before the column store with one change: it
    splits records at "\n", where the old one used str.splitlines, which
    also splits at U+2028 and U+0085 inside a string value (see
    test_line_separators_inside_a_text_round_trip).
    """
    sentences, paragraphs = [], None
    for line in path.read_text(encoding="utf-8").split("\n"):
        if not line.strip():
            continue
        rec = json.loads(line)
        if "paragraphs" in rec and "id" not in rec:
            paragraphs = [tuple(r) for r in rec["paragraphs"]]
            continue
        sentences.append(corpus.KnowledgeSentence(
            id=rec["id"], text=rec["text"], source_tag=rec.get("source", "generic"),
            title=rec.get("title"),
        ))
    return sentences, paragraphs


def oracle_plain_lines(raw, tag="plain"):
    return [
        corpus.KnowledgeSentence(id=f"{i:08d}", text=" ".join(line.split()), source_tag=tag)
        for i, line in enumerate(ln for ln in raw.splitlines() if ln.strip())
    ]


# quotes, backslashes, control characters, line separators, non-BMP
_TRICKY = st.sampled_from(list('"\\\x00\x01\x08\t\n\r\x0b\x0c\x1c\x1f\x7f\x85\u2028\u2029é日\U0001f600\U0010ffff '))
_CHARS = st.one_of(_TRICKY, st.characters(blacklist_categories=("Cs",)))
_TEXT = st.text(_CHARS, min_size=1, max_size=12).filter(str.strip)


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(_CHARS, max_size=6), min_size=n, max_size=n, unique=True))
    sentences = [
        corpus.KnowledgeSentence(
            id=sid, text=draw(_TEXT), source_tag=draw(st.text(_CHARS, max_size=5)),
            title=draw(st.none() | st.text(_CHARS, max_size=8)),
        )
        for sid in ids
    ]
    paragraphs = None
    if draw(st.booleans()):
        inner = st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set())
        cuts = sorted(draw(inner) | {0, n})
        paragraphs = list(zip(cuts, cuts[1:]))
    return corpus_of(sentences, paragraphs=paragraphs)


@given(corpora())
@settings(max_examples=150, deadline=None)
def test_save_and_load_jsonl_match_the_per_line_oracles(tmp_path_factory, kc):
    d = tmp_path_factory.mktemp("jsonl")
    fast, slow = d / "fast.jsonl", d / "slow.jsonl"
    corpus.save_jsonl(kc, fast)
    oracle_save_jsonl(kc, slow)
    assert fast.read_bytes() == slow.read_bytes()
    loaded = corpus.load_jsonl(fast)
    assert (loaded.sentences, loaded.paragraphs) == oracle_load_jsonl(fast)
    assert loaded.sentences == kc.sentences and loaded.paragraphs == kc.paragraphs


@st.composite
def hand_written_jsonl(draw):
    """Records with and without source and title, any escaping, blank lines."""
    lines = []
    for n in range(draw(st.integers(1, 5))):
        rec = {"id": f"s{n}", "text": draw(_TEXT)}
        if draw(st.booleans()):
            rec["source"] = draw(st.text(_CHARS, max_size=5))
        if draw(st.booleans()):
            rec["title"] = draw(st.none() | st.text(_CHARS, max_size=8))
        lines.append(json.dumps(rec, ensure_ascii=draw(st.booleans())))
        lines += [""] * draw(st.integers(0, 1))
    if draw(st.booleans()):
        lines.append(json.dumps({"paragraphs": [[0, 1]]}))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(hand_written_jsonl())
@settings(max_examples=150, deadline=None)
def test_load_jsonl_matches_the_oracle_on_hand_written_records(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("hand") / "c.jsonl"
    path.write_bytes(text.encode("utf-8"))
    loaded = corpus.load_jsonl(path)
    assert (loaded.sentences, loaded.paragraphs) == oracle_load_jsonl(path)


_LINE = st.text(st.one_of(_TRICKY, st.sampled_from(list("ab \t")), st.characters(
    blacklist_categories=("Cs",))), max_size=10)


@given(st.lists(_LINE, min_size=1, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=150, deadline=None)
def test_plain_lines_loader_matches_the_oracle(tmp_path_factory, lines, sep):
    path = tmp_path_factory.mktemp("plain") / "kb.txt"
    path.write_bytes(sep.join(lines).encode("utf-8"))
    expected = oracle_plain_lines(path.read_text(encoding="utf-8"), tag="t")
    if not expected:
        with pytest.raises(InputError, match="empty corpus"):
            corpus.load_corpus(path, "plain-lines", source_tag="t")
        return
    assert corpus.load_corpus(path, "plain-lines", source_tag="t").sentences == expected


def test_line_separators_inside_a_text_round_trip(tmp_path):
    kc = corpus_of([
        corpus.KnowledgeSentence(id="a", text="one\u2028two"),
        corpus.KnowledgeSentence(id="b", text="three\x85four", title="t\u2029"),
    ])
    corpus.save_jsonl(kc, tmp_path / "c.jsonl")
    assert corpus.load_jsonl(tmp_path / "c.jsonl").sentences == kc.sentences


def test_columns_make_no_sentence_objects(tmp_path, monkeypatch):
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return corpus.KnowledgeSentence.__wrapped__(*args, **kwargs)

    from kiqa.index import build_index

    src = tmp_path / "kb.txt"
    src.write_text("Water boils.\n\nIce melts.\n", encoding="utf-8")
    monkeypatch.setattr(counting, "__wrapped__", corpus.KnowledgeSentence, raising=False)
    monkeypatch.setattr(corpus, "KnowledgeSentence", counting)
    kc = corpus.load_corpus(src, "plain-lines")
    corpus.save_jsonl(kc, tmp_path / "c.jsonl")
    again = corpus.load_jsonl(tmp_path / "c.jsonl")
    build_index(again)
    assert made == [] and again.texts == ["Water boils.", "Ice melts."]
    assert again.at(1).text == "Ice melts." and len(made) == 1


def test_digest_pins_ids_and_texts_only():
    def kc(pairs, tag="x", title=None):
        return corpus_of(
            [corpus.KnowledgeSentence(id=i, text=t, source_tag=tag, title=title) for i, t in pairs]
        )

    base = kc([("a", "b c"), ("d", "e")])
    assert base.digest == kc([("a", "b c"), ("d", "e")], tag="y", title="T").digest
    assert len(base.digest) == 32
    for other in (
        kc([("a", "b c"), ("d", "f")]),   # another text
        kc([("a", "b c"), ("x", "e")]),   # another id
        kc([("d", "e"), ("a", "b c")]),   # another order
        kc([("a", "b"), ("c d", "e")]),   # the same characters, other boundaries
        kc([("a", "b c")]),
    ):
        assert other.digest != base.digest


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "JSON object"),
        ("7", "JSON object"),
        ('{"id": "z", "text": 5}', "must be strings"),
        ('{"id": 5, "text": "t"}', "must be strings"),
        ('{"id": "z", "text": "t", "source": null}', "must be strings"),
        ('{"id": "z", "text": "t", "title": 3}', "title"),
        ('{"text": "t"}', "missing field 'id'"),
        ('{"id": "z"}', "missing field 'text'"),
        ('{"paragraphs": [[0, 9]]}', "paragraphs"),
        ('{"paragraphs": [["x", 1]]}', "paragraphs"),
        ('{"paragraphs": [[1, 1]]}', "paragraphs"),
        ('{"paragraphs": [[0, true]]}', "paragraphs"),
        ('{"paragraphs": 3}', "paragraphs"),
        ("{not json}", "invalid JSON"),
        ("[" * 100_000, "invalid JSON"),
    ],
)
def test_malformed_prepared_record_names_its_line(tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "A b."}\n{"id": "b", "text": "C d."}\n' + line + "\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match=f"bad.jsonl:3: .*{message}"):
        corpus.load_jsonl(path)


def test_second_paragraphs_record_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "A b."}\n{"paragraphs": [[0, 1]]}\n'
                    '{"paragraphs": [[0, 1]]}\n', encoding="utf-8")
    with pytest.raises(InputError, match=r":3: second paragraphs"):
        corpus.load_jsonl(path)


def test_prepared_corpus_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "a", "text": "\xff"}\n')
    with pytest.raises(InputError, match="UTF-8"):
        corpus.load_jsonl(path)


def test_duplicate_id_in_prepared_corpus_names_the_file(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text('{"id": "a", "text": "A b."}\n{"id": "a", "text": "C d."}\n', encoding="utf-8")
    with pytest.raises(InputError, match="dup.jsonl: duplicate sentence id 'a'"):
        corpus.load_jsonl(path)


# ---------------------------------------------------------------------------
# A corpus file pinned by its sha256: rows parsed on demand
# ---------------------------------------------------------------------------

def _pinned(path, full):
    return corpus.load_jsonl(path, file_sha256=full.file_sha256, digest=full.digest, ids=full.ids)


@given(corpora())
@settings(max_examples=150, deadline=None)
def test_pinned_rows_equal_the_full_load(tmp_path_factory, kc):
    path = tmp_path_factory.mktemp("pinned") / "c.jsonl"
    corpus.save_jsonl(kc, path)
    full = corpus.load_jsonl(path)
    assert full.file_sha256 == hashlib.sha256(path.read_bytes()).digest()
    with mock.patch.object(corpus, "_sentence_fields", wraps=corpus._sentence_fields) as parse:
        pinned = _pinned(path, full)
        assert not isinstance(pinned, corpus.KnowledgeCorpus)
        assert (len(pinned), pinned.digest) == (len(full), full.digest)
        assert parse.call_count == 0
        last = len(full) - 1
        assert pinned.at(last) == full.at(last) and pinned.at(last) is pinned.at(last)
        assert parse.call_count == 1
        assert [pinned.at(pos) for pos in reversed(range(len(full)))] == full.sentences[::-1]
        assert parse.call_count == len(full)
    assert pinned.digest == full.digest == corpus_of(full.sentences).digest


def test_a_pin_that_does_not_match_loads_in_full(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "text": "A b."}\n{"id": "b", "text": "C d."}\n', encoding="utf-8")
    full = corpus.load_jsonl(path)
    for file_sha256, ids in [(bytes(32), full.ids), (hashlib.sha256(b"x").digest(), full.ids),
                             (full.file_sha256, ["a", "b", "c"])]:  # more rows than lines
        loaded = corpus.load_jsonl(path, file_sha256=file_sha256, digest=b"pinned", ids=ids)
        assert type(loaded) is corpus.KnowledgeCorpus
        assert loaded.sentences == full.sentences and loaded.digest == full.digest


@pytest.mark.parametrize(
    "text, file_hash",
    [
        ('{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}\n', True),
        ('{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}', True),  # no last newline
        ('{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}\n\n \n', True),  # blank tail
        ('{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}\n{"paragraphs": [[0, 2]]}\n', True),
        ('{"id": "a", "text": "A"}\n\n{"id": "b", "text": "B"}\n', False),  # a blank line
        ('\n{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}\n', False),
        ('{"paragraphs": [[0, 2]]}\n{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}\n', False),
        ('{"id": "a", "text": "A"}\r\n{"id": "b", "text": "B"}\r\n', False),
        ('{"id": "a", "text": "A"}\n{"id": "b", "text": "B"}\r', False),
    ],
)
def test_the_file_sha256_is_kept_only_when_the_rows_lead_the_file(tmp_path, text, file_hash):
    path = tmp_path / "c.jsonl"
    path.write_bytes(text.encode("utf-8"))
    loaded = corpus.load_jsonl(path)
    assert loaded.ids == ["a", "b"]
    assert loaded.file_sha256 == (hashlib.sha256(text.encode()).digest() if file_hash
                                  else bytes(32))


def test_an_in_memory_corpus_has_no_file_sha256():
    assert corpus_of([corpus.KnowledgeSentence("a", "A")]).file_sha256 == bytes(32)


BAD_PINNED_ROWS = [
    (b'{"id": "b", "text": 5}', "must be strings"),
    (b'{"id": "x", "text": "t"}', "sentence id 'x' is not the index's 'b'"),
    (b'{"id": "b", "text": " "}', "sentence 'b' is empty"),
    (b'{"id": "b", "text": "\xff"}', "not valid UTF-8"),
    (b'{"paragraphs": [[0, 1]]}', "missing field 'id'"),
    (b"{not json", "invalid JSON"),
    (b"", "invalid JSON"),
]


@pytest.mark.parametrize("line, message", BAD_PINNED_ROWS)
def test_a_bad_pinned_row_names_its_line_when_it_is_read(tmp_path, line, message):
    assert_bad_pinned_row_is_named(tmp_path, line, message)


def assert_bad_pinned_row_is_named(tmp_path, line, message):
    """A pinned file whose second row is ``line`` reads its good rows, and
    reading the bad one fails with ``message`` after the row's path:line."""
    path = tmp_path / "c.jsonl"
    data = b'{"id": "a", "text": "A b."}\n' + line + b'\n{"id": "c", "text": "C"}\n'
    path.write_bytes(data)
    pinned = corpus.load_jsonl(path, file_sha256=hashlib.sha256(data).digest(), digest=b"d",
                               ids=["a", "b", "c"])
    assert pinned.at(0) == corpus.KnowledgeSentence("a", "A b.", "generic")
    assert pinned.at(2).text == "C"
    with pytest.raises(InputError, match=f"c.jsonl:2: .*{message}"):
        pinned.at(1)
