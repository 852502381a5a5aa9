"""Diverse re-ranking checked against a step-by-step oracle."""

import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kiqa.rerank
from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence
from kiqa.datasets import McqDataset, McqItem, attach_premises
from kiqa.index import build_index
from kiqa.rerank import (
    EmbeddingTableError,
    RerankConfig,
    SimilarityFn,
    load_embedding_table,
    rerank,
    token_jaccard,
    token_set,
)


# --- oracle -----------------------------------------------------------------
# Recomputes every gain from scratch each round; max-over-selected is a
# literal loop, ties keep the earliest remaining candidate.

def rerank_oracle(candidates, query_text, m, lam, sim):
    chosen = []
    pool = list(candidates)
    while pool and len(chosen) < m:
        best_ix = 0
        best_gain = None
        for ix, cand in enumerate(pool):
            redundancy = 0.0
            for t in chosen:
                redundancy = max(redundancy, sim(cand.text, t.text))
            gain = sim(cand.text, query_text) - lam * redundancy
            if best_gain is None or gain > best_gain:
                best_ix, best_gain = ix, gain
        chosen.append(pool.pop(best_ix))
    return chosen


def on_texts(fn):
    """``fn`` on two texts: each prepared, then compared, as the re-rank does."""
    return lambda a, b: fn.compare(fn.prepare(a), fn.prepare(b))


def jaccard(a, b):
    """Token overlap of two texts."""
    return token_jaccard(token_set(a), token_set(b))


def sents(*texts):
    return [KnowledgeSentence(id=f"{i:08d}", text=t) for i, t in enumerate(texts)]


# --- token_jaccard ----------------------------------------------------------

def test_jaccard_basics():
    assert jaccard("a b", "a b") == 1.0
    assert jaccard("a b", "c d") == 0.0
    assert jaccard("a b c", "b c d") == 0.5
    assert jaccard("", "") == 1.0
    assert jaccard("a", "") == 0.0
    assert jaccard("", "a") == 0.0


def test_jaccard_ignores_case_and_punctuation():
    assert jaccard("The CAT!", "the cat") == 1.0


@given(st.text(max_size=40), st.text(max_size=40))
def test_jaccard_symmetric_and_bounded(a, b):
    s = jaccard(a, b)
    assert s == jaccard(b, a)
    assert 0.0 <= s <= 1.0


@given(st.text(min_size=1, max_size=40))
def test_jaccard_self_similarity(a):
    assert jaccard(a, a) == 1.0


@given(st.text(max_size=40), st.text(max_size=40))
def test_jaccard_is_shared_over_all_tokens(a, b):
    sa, sb = token_set(a), token_set(b)
    assert token_jaccard(sa, sb) == (len(sa & sb) / len(sa | sb) if sa or sb else 1.0)


# --- embedding cosine -------------------------------------------------------

TABLE = {"alpha": (1.0, 0.0, 0.0), "beta": (0.0, 1.0, 0.0), "gamma": (0.0, 0.0, 1.0)}
COSINE = on_texts(SimilarityFn(TABLE))


def test_cosine_identical_sentences():
    assert COSINE("alpha beta", "alpha beta") == pytest.approx(1.0, abs=1e-9)


def test_cosine_orthogonal_words():
    assert COSINE("alpha", "beta") == 0.0


def test_cosine_hand_computed():
    # means: (0.5, 0.5, 0) and (0, 0.5, 0.5); cos = 0.25 / 0.5 = 0.5
    got = COSINE("alpha beta", "beta gamma")
    assert got == pytest.approx(0.25 / (math.sqrt(0.5) * math.sqrt(0.5)), abs=1e-12)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_cosine_skips_unknown_words():
    assert COSINE("alpha zzz", "alpha") == pytest.approx(1.0, abs=1e-9)


def test_cosine_no_known_words_scores_zero():
    assert COSINE("zzz yyy", "alpha") == 0.0
    assert COSINE("alpha", "zzz") == 0.0


def test_cosine_zero_vector_scores_zero():
    table = {"null": (0.0, 0.0), "one": (1.0, 0.0)}
    assert on_texts(SimilarityFn(table))("null", "one") == 0.0


def test_an_empty_table_is_still_embedding_cosine():
    # only a missing table means token overlap; an empty one knows no word
    assert SimilarityFn({}).prepare("alpha beta") is None
    assert on_texts(SimilarityFn({}))("alpha beta", "alpha beta") == 0.0
    assert on_texts(SimilarityFn())("alpha beta", "alpha beta") == 1.0


def test_load_embedding_table(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("Cat 1.0 0.0\ndog 0.5 0.5\n", encoding="utf-8")
    table = load_embedding_table(path)
    assert table == {"cat": (1.0, 0.0), "dog": (0.5, 0.5)}


def test_embedding_table_dimension_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1.0 0.0\ndog 0.5\n", encoding="utf-8")
    with pytest.raises(EmbeddingTableError, match=r":2:.*dimension"):
        load_embedding_table(path)


def test_embedding_table_duplicate_word(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1.0\nCat 2.0\n", encoding="utf-8")
    with pytest.raises(EmbeddingTableError, match="duplicate"):
        load_embedding_table(path)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n"])
def test_embedding_table_without_vectors(tmp_path, text):
    path = tmp_path / "vecs.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingTableError, match=f"^{re.escape(str(path))}: no vectors$"):
        load_embedding_table(path)


def test_embedding_table_bad_component(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1.0 oops\n", encoding="utf-8")
    with pytest.raises(EmbeddingTableError, match=r":1:"):
        load_embedding_table(path)


def test_embedding_table_vector_too_long(tmp_path):
    # Finite components whose squares overflow made every cosine with "a" NaN.
    path = tmp_path / "vecs.txt"
    path.write_text("b 1e200 0\na 1e200 1e200\n", encoding="utf-8")
    with pytest.raises(EmbeddingTableError, match=r":1: vector too long"):
        load_embedding_table(path)
    big = math.sqrt(1.7e308 / 2) / math.sqrt(2)  # squared length just under half the largest float
    path.write_text(f"a {big!r} {big!r}\nb {big!r} -{big!r}\n", encoding="utf-8")
    fn = on_texts(SimilarityFn(load_embedding_table(path)))
    assert [fn("a", "a"), fn("a b", "a"), fn("a", "b")] == pytest.approx([1.0, math.sqrt(0.5), 0.0])


_TABLE_WORDS = ["w0", "w1", "w2"]


@given(vectors=st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
    min_size=len(_TABLE_WORDS), max_size=len(_TABLE_WORDS))))
@settings(max_examples=200, deadline=None)
def test_no_cosine_is_nan_for_a_table_the_loader_accepts(tmp_path_factory, vectors):
    path = tmp_path_factory.mktemp("vecs") / "vecs.txt"
    lines = [f"{w} {' '.join(map(repr, v))}\n" for w, v in zip(_TABLE_WORDS, vectors)]
    path.write_text("".join(lines), encoding="utf-8")
    try:
        fn = on_texts(SimilarityFn(load_embedding_table(path)))
    except EmbeddingTableError as exc:
        assert "vector too long" in str(exc)
        return
    texts = [*_TABLE_WORDS, "w0 w1", "w1 w2", "w0 w1 w2"]
    assert not any(math.isnan(fn(a, b)) for a in texts for b in texts)


# --- rerank -----------------------------------------------------------------

def test_m1_returns_most_query_similar():
    cands = sents("dogs bark loud", "cats purr softly", "cats purr")
    out = rerank(cands, "cats purr", RerankConfig(m=1))
    assert [s.text for s in out] == ["cats purr"]


def test_lambda_zero_is_stable_similarity_sort():
    cands = sents("a b", "c d", "a b c", "a q")
    cfg = RerankConfig(m=4, lambda_=0.0)
    out = rerank(cands, "a b", cfg)
    sim = on_texts(cfg.similarity)
    sims = [sim(c.text, "a b") for c in cands]
    expected = [cands[i] for i in sorted(range(len(cands)), key=lambda i: -sims[i])]
    assert out == expected


def test_greedy_hand_case():
    # Query-identical pick first; then an exact gain tie resolved by input
    # order; then redundancy pushes the unrelated sentence to the front.
    cands = sents(
        "cats play with yarn",        # 0
        "cats play with yarn balls",  # 1
        "dogs chase balls",           # 2
        "cats sleep all day",         # 3
        "play yarn",                  # 4
        "cats play yarn",             # 5
    )
    out = rerank(cands, "cats play yarn", RerankConfig(m=3, lambda_=1.0))
    assert [s.id for s in out] == ["00000005", "00000000", "00000002"]


def test_empty_candidates_rejected():
    with pytest.raises(ValueError, match="empty candidate"):
        rerank([], "query", RerankConfig())


def test_config_validation():
    with pytest.raises(ValueError, match="m"):
        RerankConfig(m=0)
    with pytest.raises(ValueError, match="lambda"):
        RerankConfig(lambda_=-0.5)
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lambda"):
            RerankConfig(lambda_=lam)


_CAND_TEXT = st.lists(
    st.sampled_from(["cat", "dog", "yarn", "play", "sleep", "ball"]), min_size=1, max_size=6
).map(" ".join)


@given(
    texts=st.lists(_CAND_TEXT, min_size=1, max_size=12),
    query=_CAND_TEXT,
    m=st.integers(1, 12),
    lam=st.sampled_from([0.0, 0.3, 1.0, 2.0]),
)
@settings(max_examples=150, deadline=None)
def test_matches_oracle(texts, query, m, lam):
    cands = sents(*texts)
    cfg = RerankConfig(m=m, lambda_=lam)
    got = rerank(cands, query, cfg)
    sim = on_texts(cfg.similarity)
    want = rerank_oracle(cands, query, m, lam, sim)
    assert got == want
    assert len(got) == min(m, len(cands))
    assert len({s.id for s in got}) == len(got)
    # first pick always maximizes plain query similarity
    best = max(sim(c.text, query) for c in cands)
    assert sim(got[0].text, query) == best


@given(texts=st.lists(_CAND_TEXT, min_size=1, max_size=10), m=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_cosine_similarity_matches_oracle(texts, m):
    table = {
        "cat": (1.0, 0.2, 0.0),
        "dog": (0.8, 0.5, 0.1),
        "yarn": (0.0, 1.0, 0.3),
        "play": (0.1, 0.9, 0.7),
        "sleep": (0.0, 0.0, 1.0),
        "ball": (0.4, 0.4, 0.4),
    }
    cands = sents(*texts)
    cfg = RerankConfig(m=m, lambda_=1.0, similarity=SimilarityFn(table))
    got = rerank(cands, "cat play", cfg)
    want = rerank_oracle(cands, "cat play", m, 1.0, on_texts(cfg.similarity))
    assert got == want


# --- prepared features ------------------------------------------------------
# One call prepares each distinct text once and compares prepared features
# per pair; the string-level oracle above prepares both texts on every call.

_WORDS = ["cat", "dog", "yarn", "play", "sleep", "ball", "tree", "moss", "rain", "sun"]
_TABLE = {  # "moss", "rain" and "sun" have no vector
    "cat": (1.0, 0.2, 0.0, -0.3),
    "dog": (0.8, 0.5, 0.1, 0.0),
    "yarn": (0.0, 1.0, 0.3, 0.2),
    "play": (0.1, 0.9, 0.7, -0.1),
    "sleep": (0.0, 0.0, 1.0, 0.4),
    "ball": (0.4, 0.4, 0.4, 0.4),
    "tree": (-0.5, 0.3, 0.0, 0.9),
}


def _retrieval_sized_call(seed):
    """50 candidates with repeated texts; the query is one candidate's text."""
    rng = random.Random(seed)
    pool = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 6))) for _ in range(30)]
    pool += ["moss rain", "sun", "rain sun moss"]  # no table word
    texts = [rng.choice(pool) for _ in range(50)]
    assert len(set(texts)) < len(texts)
    return sents(*texts), rng.choice(texts)


@pytest.mark.parametrize("kind", ["token-jaccard", "embedding-cosine"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_retrieval_sized_call_matches_string_oracle(kind, lam):
    if kind == "token-jaccard":
        fn, oracle_sim = SimilarityFn(), jaccard
    else:
        fn = SimilarityFn(_TABLE)
        oracle_sim = on_texts(SimilarityFn(_TABLE))
    for seed in range(6):
        cands, query = _retrieval_sized_call(seed)
        got = rerank(cands, query, RerankConfig(m=10, lambda_=lam, similarity=fn))
        want = rerank_oracle(cands, query, 10, lam, oracle_sim)
        assert [s.id for s in got] == [s.id for s in want]


def _counting(monkeypatch, name):
    calls = []
    real = getattr(kiqa.rerank, name)

    def counted(text, *rest):
        calls.append(text)
        return real(text, *rest)

    monkeypatch.setattr(kiqa.rerank, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_token_set_runs_once_per_distinct_text(monkeypatch, seed):
    cands, query = _retrieval_sized_call(seed)
    calls = _counting(monkeypatch, "token_set")
    rerank(cands, query, RerankConfig(m=10, lambda_=1.0))
    assert sorted(calls) == sorted({c.text for c in cands} | {query})


def test_query_outside_the_candidates_is_prepared_once_too(monkeypatch):
    cands = sents("cat play", "cat play", "dog ball", "cat play")
    calls = _counting(monkeypatch, "token_set")
    rerank(cands, "yarn", RerankConfig(m=3))
    assert sorted(calls) == ["cat play", "dog ball", "yarn"]


def test_mean_vector_runs_once_per_distinct_text(monkeypatch):
    cands, query = _retrieval_sized_call(0)
    calls = _counting(monkeypatch, "_mean_vector")
    fn = SimilarityFn(_TABLE)
    rerank(cands, query, RerankConfig(m=10, similarity=fn))
    assert sorted(calls) == sorted({c.text for c in cands} | {query})


def test_similarity_compares_prepared_features():
    overlap, cosine = SimilarityFn(), SimilarityFn(_TABLE)
    for a, b in [("cat play", "play yarn"), ("moss", "cat"), ("", "sun"), ("dog", "dog")]:
        assert on_texts(overlap)(a, b) == jaccard(a, b)
        assert on_texts(cosine)(a, b) == kiqa.rerank._vector_cosine(
            kiqa.rerank._mean_vector(a, _TABLE), kiqa.rerank._mean_vector(b, _TABLE))
    assert SimilarityFn().prepare("The CAT, the cat") == {"the", "cat"}
    assert SimilarityFn(_TABLE).prepare("moss rain") is None


def test_a_shared_memo_prepares_each_text_once_over_calls(monkeypatch):
    # Some texts have no table word: their mean vector is None, and that
    # None is a prepared feature, not a missing one.
    fn = SimilarityFn(_TABLE)
    calls_in = [_retrieval_sized_call(seed) for seed in range(4)]
    want = [rerank_oracle(cands, query, 10, 1.0, on_texts(SimilarityFn(_TABLE)))
            for cands, query in calls_in]
    calls = _counting(monkeypatch, "_mean_vector")
    prepared = {}
    got = [rerank(cands, query, RerankConfig(m=10, similarity=fn), prepared=prepared)
           for cands, query in calls_in]
    assert [[s.id for s in g] for g in got] == [[s.id for s in w] for w in want]
    texts = {c.text for cands, _ in calls_in for c in cands} | {q for _, q in calls_in}
    assert sorted(calls) == sorted(texts)
    assert prepared.keys() == texts
    assert any(prepared[t] is None for t in texts)


def _compare_bounds(n, m, lam):
    """The fewest and most compares a lazy call can make: n query compares,
    then at lambda > 0 each pick is compared with every earlier pick, and no
    candidate more often than the eager loop's one compare per candidate
    left after each pick but the last."""
    picks = min(m, n)
    if not lam:
        return n, n
    return n + sum(range(picks)), n + sum(n - j for j in range(1, picks))


# The lazy call's exact compare count on each seeded retrieval-sized call,
# (n, m): at lambda 1e-3, 0.3 and 1.  Each lies within _compare_bounds, and
# one compare more after the last pick, or one left out, changes it.
LAZY_LAMBDAS = (1e-3, 0.3, 1.0)
LAZY_COMPARES = {
    (1, 1): (1, 1, 1), (5, 1): (5, 5, 5), (5, 3): (8, 8, 11), (5, 5): (15, 15, 15),
    (5, 9): (15, 15, 15), (50, 2): (53, 53, 68), (50, 10): (122, 225, 367),
}


def lazy_compare_count(n, m, lam):
    """The compares ``kiqa.rerank.rerank`` makes on the (n, m) seeded call."""
    cands, query = _retrieval_sized_call(n + m)
    real, calls = kiqa.rerank.token_jaccard, []
    kiqa.rerank.token_jaccard = lambda a, b: (calls.append(a), real(a, b))[1]
    try:
        kiqa.rerank.rerank(cands[:n], query, RerankConfig(m=m, lambda_=lam))
    finally:
        kiqa.rerank.token_jaccard = real
    return len(calls)


@pytest.mark.parametrize("n, m", list(LAZY_COMPARES))
def test_no_compare_after_the_last_pick(n, m):
    count = lazy_compare_count(n, m, 1.0)
    fewest, eager = _compare_bounds(n, m, 1.0)
    assert fewest <= count <= eager
    assert count == LAZY_COMPARES[n, m][LAZY_LAMBDAS.index(1.0)]
    if m == 1:
        assert count == n  # the one pick is the top of the heap, compared with nothing
    if (n, m) == (50, 10):
        assert count < eager


def test_lazy_compare_count_hand_case(monkeypatch):
    # test_greedy_hand_case's call.  Query similarities 0.75, 0.6, 0, 1/6,
    # 2/3, 1 (6 compares) put 5 on top, and it is picked.  Then 0, 4, 1 and
    # 3 in turn are compared with 5 (4 compares), each gain falls to 0, and
    # 0 is picked.  Then 1 is compared with 0 (gain 0.6 - 0.8), and 2 with
    # 5 and 0 (gain 0): 2 is picked before 3 and 4, whose stale gains are 0
    # too but who come later.  13 compares where the eager loop makes 15.
    cands = sents("cats play with yarn", "cats play with yarn balls", "dogs chase balls",
                  "cats sleep all day", "play yarn", "cats play yarn")
    calls = _counting(monkeypatch, "token_jaccard")
    out = rerank(cands, "cats play yarn", RerankConfig(m=3, lambda_=1.0))
    assert [s.id for s in out] == ["00000005", "00000000", "00000002"]
    assert len(calls) == 13
    assert _compare_bounds(6, 3, 1.0)[1] == 15


def full_greedy(candidates, query_text, config):
    """``rerank``'s greedy loop with a redundancy update after every pick but
    the last, at every lambda: the loop before lambda = 0 skipped them."""
    sim = config.similarity
    features = [sim.prepare(c.text) for c in candidates]
    query_sim = [sim.compare(f, sim.prepare(query_text)) for f in features]
    redundancy = [0.0] * len(candidates)
    remaining, selected = list(range(len(candidates))), []
    while len(selected) < min(config.m, len(candidates)):
        best = remaining[0]
        for i in remaining[1:]:
            gain = query_sim[i] - config.lambda_ * redundancy[i]
            if gain > query_sim[best] - config.lambda_ * redundancy[best]:
                best = i
        selected.append(best)
        remaining.remove(best)
        for i in remaining:
            redundancy[i] = max(redundancy[i], sim.compare(features[i], features[best]))
    return [candidates[i] for i in selected]


@given(
    texts=st.lists(st.one_of(_CAND_TEXT, st.sampled_from(["moss rain", "sun", ""])),
                   min_size=1, max_size=14),
    query=_CAND_TEXT,
    m=st.integers(1, 14),
    kind=st.sampled_from(["token-jaccard", "embedding-cosine"]),
)
@settings(max_examples=150, deadline=None)
def test_lambda_zero_picks_as_the_full_greedy_loop(texts, query, m, kind):
    fn = SimilarityFn() if kind == "token-jaccard" else SimilarityFn(_TABLE)
    cands = sents(*texts)
    config = RerankConfig(m=m, lambda_=0.0, similarity=fn)
    assert [s.id for s in rerank(cands, query, config)] == \
        [s.id for s in full_greedy(cands, query, config)]


@given(
    texts=st.lists(st.one_of(_CAND_TEXT, st.sampled_from(["moss rain", "sun", "", "tree"])),
                   min_size=1, max_size=14),
    query=st.one_of(_CAND_TEXT, st.just("tree")),
    m=st.integers(1, 14),
    lam=st.sampled_from([1e-3, 0.3, 1.0, 2.0]),
    kind=st.sampled_from(["token-jaccard", "embedding-cosine"]),
)
@example(texts=["tree", "cat", "cat", "tree cat", "sun", "cat", "tree"], query="cat", m=7,
         lam=1.0, kind="embedding-cosine")
@example(texts=["cat play", "play cat", "yarn", "dog", "yarn", "cat play dog"], query="cat",
         m=6, lam=0.3, kind="token-jaccard")
@settings(max_examples=300, deadline=None)
def test_lazy_picks_are_the_eager_loops(texts, query, m, lam, kind):
    # Duplicate texts make equal gains, and "tree" has a negative cosine
    # with "cat" under _TABLE, so gains below zero and ties are both drawn.
    fn = SimilarityFn() if kind == "token-jaccard" else SimilarityFn(_TABLE)
    assert_picks_are_the_eager_loops(texts, query, m, lam, fn)


def assert_picks_are_the_eager_loops(texts, query, m, lam, fn):
    """``kiqa.rerank.rerank``, looked up at call time, picks as both oracles do."""
    cands = sents(*texts)
    config = RerankConfig(m=m, lambda_=lam, similarity=fn)
    got = [s.id for s in kiqa.rerank.rerank(cands, query, config)]
    assert got == [s.id for s in full_greedy(cands, query, config)]
    assert got == [s.id for s in rerank_oracle(cands, query, m, lam, on_texts(fn))]


def test_lazy_oracle_inputs_hold_negative_cosines_and_equal_gains():
    fn = on_texts(SimilarityFn(_TABLE))
    assert fn("tree", "cat") < 0 and fn("tree cat", "cat") < fn("cat", "cat")
    texts = ["tree", "cat", "cat", "tree cat", "sun", "cat", "tree"]
    gains = [fn(t, "cat") for t in texts]
    assert len(set(gains)) < len(gains) and min(gains) < 0


@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("n, m", list(LAZY_COMPARES))
def test_redundancy_compares_run_only_at_positive_lambda(n, m, lam):
    count = lazy_compare_count(n, m, lam)
    fewest, eager = _compare_bounds(n, m, lam)
    assert fewest <= count <= eager
    if not lam or m == 1:
        assert count == n
    else:
        assert count == LAZY_COMPARES[n, m][LAZY_LAMBDAS.index(lam)]
    if lam and (n, m) == (50, 10):
        assert count < eager


def test_attach_prepares_each_text_once_per_call(monkeypatch):
    corpus = KnowledgeCorpus([
        KnowledgeSentence(id=f"{i:08d}", text=t) for i, t in enumerate(
            ["cats chase mice", "dogs chase cats", "mice eat cheese", "dogs eat bones"])
    ])
    dataset = McqDataset(items=[
        McqItem(id="a", question="chase", options=["cats", "dogs"]),
        McqItem(id="b", question="eat", options=["mice", "dogs"]),
    ])
    index = build_index(corpus)
    calls = _counting(monkeypatch, "token_set")
    out = attach_premises(dataset, corpus, index, RerankConfig(m=2))
    first = list(calls)
    # the options share sentences, so a per-call preparation repeats texts
    picked = [p.text for item in out.items for plist in item.premises for p in plist]
    assert len(picked) > len(set(picked))
    assert len(first) == len(set(first))
    assert set(corpus.texts) <= set(first)
    calls.clear()
    attach_premises(dataset, corpus, index, RerankConfig(m=2))
    assert calls == first  # the memo does not outlive its call
