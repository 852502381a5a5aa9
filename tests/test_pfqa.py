"""Family-relations generator: distances, distractors, graphs, splits."""

import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kiqa.datasets import load_mcq, save_mcq_jsonl
from kiqa.pfqa import (
    FactsError,
    ParentFact,
    PfqaQuestion,
    assign_splits,
    edit_distance,
    first_name,
    generate_questions,
    load_facts,
    select_distractors,
    to_dataset,
)


# --- oracles ----------------------------------------------------------------
# Answer-set checker: re-derive the answers from a question's own knowledge
# sentences, so gold answers never rely on facts the model cannot see.

_FACT_RE = re.compile(r"^The parent of (.+) is (.+)\.$")


def parse_knowledge(sentences):
    facts = []
    for sentence in sentences:
        match = _FACT_RE.match(sentence)
        if match is None:
            raise FactsError(f"not a parent-fact sentence: {sentence!r}")
        facts.append(ParentFact(child=match.group(1), parent=match.group(2)))
    return facts


def knowledge_supports(question):
    """True when the gold option is reachable using only the question's facts,
    by a walk over the parsed facts that shares no code with the generator's."""
    facts = parse_knowledge(question.knowledge)

    def parents_of(name):
        return {f.parent for f in facts if f.child == name}

    person = question.person
    if question.qtype == "parent":
        answers = parents_of(person)
    elif question.qtype == "grandparent":
        answers = {g for p in parents_of(person) for g in parents_of(p)}
    else:
        answers = {f.child for f in facts if f.parent in parents_of(person)} - {person}
    return question.options[question.gold] in {first_name(a) for a in answers}


# Textbook full-matrix Levenshtein, no shared code with the two-row version.

def levenshtein_oracle(a, b):
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


# --- edit distance -----------------------------------------------------------

def test_edit_distance_basics():
    assert edit_distance("John", "John") == 0
    assert edit_distance("John", "Jon") == 1
    assert edit_distance("John", "Johan") == 1
    assert edit_distance("John", "Joan") == 1
    assert edit_distance("", "abc") == 3
    assert edit_distance("kitten", "sitting") == 3


def test_edit_distance_is_case_sensitive():
    assert edit_distance("john", "John") == 1


@given(st.text(max_size=10), st.text(max_size=10))
@settings(max_examples=200)
def test_edit_distance_matches_dp_oracle(a, b):
    assert edit_distance(a, b) == levenshtein_oracle(a, b)


@given(st.text(max_size=8), st.text(max_size=8))
def test_edit_distance_symmetric(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


# --- distractor selection ------------------------------------------------------

def test_distractors_prefer_close_names():
    pool = ["Jon", "Johan", "Joan", "Robert", "Margaret"]
    out = select_distractors("John", pool, count=3, seed=1)
    assert set(out) == {"Jon", "Johan", "Joan"}


def test_distractors_fill_distance_one_then_two():
    # two names at distance 1, the rest at distance 2: both 1s must appear
    pool = ["Jon", "Joan", "Jo", "Johnny", "Jahn"]
    # distances to John: Jon 1, Joan 1, Jo 2, Johnny 2, Jahn 1
    out = select_distractors("John", pool, count=3, seed=7)
    assert set(out) == {"Jon", "Joan", "Jahn"}


def test_distractors_fall_back_to_nearest():
    pool = ["Wilhelmina", "Bartholomew", "Maximiliano"]
    out = select_distractors("Jo", pool, count=3, seed=0)
    assert sorted(out) == sorted(pool)
    assert "Jo" not in out


def test_distractors_never_include_gold():
    pool = ["John", "Jon", "Joan", "Jahn", "Johan"]
    for seed in range(10):
        assert "John" not in select_distractors("John", pool, count=3, seed=seed)


def test_distractors_deterministic():
    pool = ["Jon", "Joan", "Jahn", "Johan", "Jean"]
    a = select_distractors("John", pool, count=3, seed=123)
    b = select_distractors("John", pool, count=3, seed=123)
    assert a == b


def test_distractors_need_three_candidates():
    with pytest.raises(FactsError, match="candidates"):
        select_distractors("John", ["Jon", "John"], count=3, seed=0)


# --- fixtures ------------------------------------------------------------------

FAMILY = [
    ParentFact("John Smith", "Mary Smith"),
    ParentFact("John Smith", "David Smith"),
    ParentFact("Jane Smith", "Mary Smith"),
    ParentFact("Mary Smith", "Ann Lee"),
    ParentFact("Jon Park", "Rita Park"),
    ParentFact("Johan Berg", "Rita Park"),
    ParentFact("Joan Hale", "Rita Park"),
    ParentFact("Mara Voss", "Rita Park"),
    ParentFact("Dave Cruz", "Rita Park"),
    ParentFact("Anna Ray", "Rita Park"),
]


def by_key(questions):
    return {(q.person, q.qtype): q for q in questions}


# --- generation ----------------------------------------------------------------

def test_grandparent_composition():
    q = by_key(generate_questions(FAMILY, seed=0))[("John Smith", "grandparent")]
    assert q.options[q.gold] == "Ann"
    assert q.knowledge == (
        "The parent of John Smith is Mary Smith.",
        "The parent of Mary Smith is Ann Lee.",
    )
    assert q.question == "Who is the grandparent of John Smith?"


def test_sibling_from_shared_parent():
    q = by_key(generate_questions(FAMILY, seed=0))[("Jane Smith", "sibling")]
    assert q.options[q.gold] == "John"
    assert q.knowledge == (
        "The parent of Jane Smith is Mary Smith.",
        "The parent of John Smith is Mary Smith.",
    )


def test_single_fact_person_gets_parent_question_only():
    # Rita's children have no grandparents and are siblings of each other;
    # Ann Lee has no facts as child, so only appears as an answer.
    questions = by_key(generate_questions(FAMILY, seed=0))
    assert ("Mary Smith", "parent") in questions
    assert ("Mary Smith", "grandparent") not in questions
    assert questions[("Mary Smith", "parent")].options[
        questions[("Mary Smith", "parent")].gold
    ] == "Ann"


def test_other_true_answers_never_appear_as_distractors():
    questions = generate_questions(FAMILY, seed=3)
    q = by_key(questions)[("John Smith", "parent")]
    # both Mary and David are true parents; whichever is gold, the other
    # must be absent entirely
    gold_name = q.options[q.gold]
    assert gold_name in {"Mary", "David"}
    other = {"Mary", "David"} - {gold_name}
    assert not other & set(q.options)


def test_every_question_is_supported_by_its_knowledge():
    questions = generate_questions(FAMILY, seed=5)
    assert questions
    for q in questions:
        assert knowledge_supports(q), (q.person, q.qtype)


def test_composed_questions_need_two_facts():
    for q in generate_questions(FAMILY, seed=2):
        if q.qtype in ("grandparent", "sibling"):
            assert len(q.knowledge) >= 2
        else:
            assert all(f"The parent of {q.person} is" in s for s in q.knowledge)


def test_sibling_relation_is_symmetric():
    questions = generate_questions(FAMILY, seed=4)
    parents = {}
    for f in FAMILY:
        parents.setdefault(f.child, set()).add(f.parent)

    def siblings(person):
        return {
            other
            for other, ps in parents.items()
            if other != person and ps & parents.get(person, set())
        }

    for q in questions:
        if q.qtype != "sibling":
            continue
        gold_name = q.options[q.gold]
        matches = [s for s in siblings(q.person) if first_name(s) == gold_name]
        assert matches
        for sib in matches:
            assert q.person in siblings(sib)


def test_generation_is_deterministic():
    assert generate_questions(FAMILY, seed=11) == generate_questions(FAMILY, seed=11)


def test_generation_ignores_fact_order():
    shuffled = list(FAMILY)
    random.Random(99).shuffle(shuffled)
    assert generate_questions(FAMILY, seed=11) == generate_questions(shuffled, seed=11)


def test_seed_changes_choices_not_coverage():
    a = by_key(generate_questions(FAMILY, seed=0))
    b = by_key(generate_questions(FAMILY, seed=1))
    assert a.keys() == b.keys()


def test_tiny_graph_yields_nothing():
    # three first names cannot field one gold plus three distinct distractors
    facts = [ParentFact("A One", "B Two"), ParentFact("B Two", "C Three")]
    assert generate_questions(facts, seed=0) == []


def test_options_are_four_distinct_first_names():
    for q in generate_questions(FAMILY, seed=8):
        assert len(q.options) == 4
        assert len(set(q.options)) == 4
        assert all(" " not in o for o in q.options)


# --- splits ----------------------------------------------------------------------

def make_questions(n_persons, per_person):
    out = []
    for p in range(n_persons):
        for k in range(per_person):
            out.append(
                PfqaQuestion(
                    person=f"Person {p:03d}",
                    qtype="parent",
                    question=f"Who is the parent of Person {p:03d}?",
                    options=(f"g{k}", "x", "y", "z"),
                    gold=0,
                    knowledge=(f"The parent of Person {p:03d} is G.",),
                )
            )
    return out


def test_splits_keep_persons_together():
    questions = make_questions(20, 3)
    train, dev, test = assign_splits(questions, seed=0)
    assert len(train) + len(dev) + len(test) == len(questions)
    membership = {}
    for name, split in (("train", train), ("dev", dev), ("test", test)):
        for q in split:
            assert membership.setdefault(q.person, name) == name


def test_splits_roughly_match_ratios():
    questions = make_questions(50, 2)
    train, dev, test = assign_splits(questions, seed=1)
    assert 70 <= len(train) <= 90
    assert 4 <= len(dev) <= 16
    assert 4 <= len(test) <= 16


def test_splits_deterministic():
    questions = make_questions(10, 2)
    assert assign_splits(questions, seed=7) == assign_splits(questions, seed=7)


# --- facts file ----------------------------------------------------------------

def test_load_facts(tmp_path):
    path = tmp_path / "facts.tsv"
    path.write_text(
        "John Smith\tMary Smith\nJane Smith\tMary Smith\nJohn Smith\tMary Smith\n",
        encoding="utf-8",
    )
    facts = load_facts(path)
    assert facts == [
        ParentFact("John Smith", "Mary Smith"),
        ParentFact("Jane Smith", "Mary Smith"),
    ]


def test_load_facts_bad_columns(tmp_path):
    path = tmp_path / "facts.tsv"
    path.write_text("John Smith\n", encoding="utf-8")
    with pytest.raises(FactsError, match=r":1:"):
        load_facts(path)


def test_load_facts_self_parent(tmp_path):
    path = tmp_path / "facts.tsv"
    path.write_text("A B\tA B\n", encoding="utf-8")
    with pytest.raises(FactsError, match=r":1:.*own parent"):
        load_facts(path)


def test_load_facts_empty_name(tmp_path):
    path = tmp_path / "facts.tsv"
    path.write_text("A B\t \n", encoding="utf-8")
    with pytest.raises(FactsError, match=r":1:"):
        load_facts(path)


def test_load_facts_empty_file(tmp_path):
    path = tmp_path / "facts.tsv"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(FactsError, match="no facts"):
        load_facts(path)


# --- dataset conversion ----------------------------------------------------------

def test_to_dataset_round_trips_through_generic_schema(tmp_path):
    questions = generate_questions(FAMILY, seed=0)
    ds = to_dataset(questions)
    assert ds.items[0].n == 4
    for item, q in zip(ds.items, questions):
        assert item.extras == {"person": q.person, "qtype": q.qtype}
        assert item.knowledge == list(q.knowledge)
        assert item.options[item.gold] == q.options[q.gold]
    path = tmp_path / "pfqa.jsonl"
    save_mcq_jsonl(ds, path)
    assert load_mcq(path, "generic").items == ds.items


# sha256 of each split's save_mcq_jsonl on a fixed 40-person fact set with
# up to two parents each, so grandparent and sibling questions have several
# derivations: a change to any generated byte shows here.
SPLIT_SHA256 = (
    "4886c6dcc18f1662ec13d218ef75497f67f50f90cf974c1eff2e0e26240c4a0c",
    "a92e4563556f334d04be86b7f1637478b889f85601b1e8901cc46641b35ed692",
    "d23c29e4da291082f63e202f9929d1877f3404f5faf9dba622c2a93b4e4683d3",
)


def pinned_facts():
    names = [f"{a}{b} {c}" for a, b, c in itertools.product("BDKMRT", "aeio", ("Lee", "Ray"))]
    rng = random.Random(27)
    return [
        ParentFact(names[i], parent)
        for i in range(1, 40)
        for parent in sorted({names[rng.randrange(i)] for _ in range(2)})
    ]


def test_split_bytes_are_pinned(tmp_path):
    splits = assign_splits(generate_questions(pinned_facts(), seed=0), seed=0)
    assert [len(s) for s in splits] == [93, 9, 11]
    for split, want in zip(splits, SPLIT_SHA256):
        save_mcq_jsonl(to_dataset(split), tmp_path / "split.jsonl")
        assert hashlib.sha256((tmp_path / "split.jsonl").read_bytes()).hexdigest() == want


def test_parse_knowledge_rejects_non_facts():
    with pytest.raises(FactsError, match="parent-fact"):
        parse_knowledge(["The grandparent of A is B."])


def test_question_invariants_enforced():
    with pytest.raises(FactsError, match="distinct"):
        PfqaQuestion(
            person="P",
            qtype="parent",
            question="Who?",
            options=("a", "a", "b", "c"),
            gold=0,
            knowledge=(),
        )
    with pytest.raises(FactsError, match="type"):
        PfqaQuestion(
            person="P", qtype="cousin", question="?", options=("a", "b", "c", "d"),
            gold=0, knowledge=(),
        )
    with pytest.raises(FactsError, match="gold index out of range"):
        PfqaQuestion(
            person="P", qtype="parent", question="?", options=("a", "b", "c", "d"),
            gold=4, knowledge=(),
        )
