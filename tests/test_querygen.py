"""Query generation: stopword removal and error paths."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kiqa.datasets import McqItem
from kiqa.querygen import (
    EmptyQueryError,
    Query,
    QueryGenConfig,
    generate_query,
    load_stopwords,
)


def item(question, options, context=None):
    return McqItem(id="q1", question=question, options=list(options), context=context)


def test_stopwords_removed_from_question_and_option():
    cfg = QueryGenConfig(stopwords=frozenset({"can"}))
    q = generate_query(item("Blankets", ["can cover lights", "other"]), 0, cfg)
    assert Counter(q.terms) == Counter({"blankets": 1, "cover": 1, "lights": 1})
    assert q.item_id == "q1" and q.option_index == 0


def test_context_is_included():
    cfg = QueryGenConfig(stopwords=frozenset())
    q = generate_query(item("why", ["go", "stay"], context="rain fell"), 1, cfg)
    assert q.terms == ("rain", "fell", "why", "stay")


def test_terms_keep_multiplicity():
    cfg = QueryGenConfig(stopwords=frozenset({"the", "a"}))
    q = generate_query(item("the fox saw a fox", ["den", "tree"]), 0, cfg)
    assert Counter(q.terms)["fox"] == 2


def test_all_stopwords_is_an_error():
    cfg = QueryGenConfig(stopwords=frozenset({"the", "is", "it"}))
    with pytest.raises(EmptyQueryError, match="empty query"):
        generate_query(item("The is", ["it", "the"]), 0, cfg)


def test_option_index_out_of_range():
    cfg = QueryGenConfig(stopwords=frozenset())
    with pytest.raises(IndexError):
        generate_query(item("q", ["a", "b"]), 2, cfg)


@given(st.lists(st.sampled_from(["Cat", "DOG", "the", "IS", "tree"]), min_size=1, max_size=12))
def test_casing_and_whitespace_invariance(words):
    cfg = QueryGenConfig(stopwords=frozenset({"the", "is"}))
    spaced = "  ".join(words)
    lowered = " ".join(w.lower() for w in words)
    try:
        a = generate_query(item(spaced, ["x y", "z w"]), 0, cfg)
        b = generate_query(item(lowered, ["x y", "z w"]), 0, cfg)
    except EmptyQueryError:
        return
    assert a.terms == b.terms


@given(st.lists(st.sampled_from(["cat", "dog", "the", "is", "tree", "runs"]), max_size=15))
def test_filter_off_is_pure_bag_difference(words):
    stop = frozenset({"the", "is"})
    cfg = QueryGenConfig(stopwords=stop)
    text = " ".join(words) if words else "placeholder"
    try:
        q = generate_query(item(text, ["a1", "a2"]), 0, cfg)
    except EmptyQueryError:
        assert all(w in stop for w in words)
        return
    expected = Counter(w for w in f"{text} a1".lower().split() if w not in stop)
    assert Counter(q.terms) == expected
    assert not set(q.terms) & stop


def test_query_is_hashable_value():
    q = Query(terms=("a", "b"), item_id="i", option_index=0)
    assert hash(q) == hash(Query(terms=("a", "b"), item_id="i", option_index=0))


# ---------------------------------------------------------------------------
# Stopword file
# ---------------------------------------------------------------------------

def test_default_stopword_file_loads():
    stop = load_stopwords()
    assert {"the", "a", "is", "of"} <= stop
    assert all(w == w.lower() for w in stop)
    assert len(stop) > 100
