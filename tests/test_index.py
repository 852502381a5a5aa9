"""Ranked retrieval checked against a brute-force scorer."""

import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence
from kiqa.index import Bm25Params, build_index, load_index, save_index, search, IndexFormatError

from frames import frame


# --- oracle -----------------------------------------------------------------
# Straight-line re-derivation: score every document directly from token
# counts, no inverted structure, no shared code with the implementation.

def regex_tokens(text):
    """Lowercase runs of Unicode letters and digits, as the regex finds them."""
    return re.findall(r"[^\W_]+", text.lower())


def bm25_brute_force(docs, query, k1=1.2, b=0.75):
    tokenized = [(doc_id, regex_tokens(text)) for doc_id, text in docs]
    n = len(tokenized)
    avg = sum(len(toks) for _, toks in tokenized) / n if n else 0.0
    df = Counter()
    for _, toks in tokenized:
        for term in set(toks):
            df[term] += 1
    # The query is a bag: each distinct term is added once, weighted by its
    # count, in first-occurrence order. Adding repeats one at a time rounds
    # differently, so documents whose scores tie exactly in real arithmetic
    # could come out an ulp apart and break the sentence-id tie order.
    results = []
    for doc_id, toks in tokenized:
        tf = Counter(toks)
        score = 0.0
        for term, count in Counter(query).items():
            f = tf.get(term, 0)
            if f == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            ratio = len(toks) / avg if avg > 0 else 0.0
            score += idf * count * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * ratio))
        if score != 0.0:
            results.append((doc_id, score))
    results.sort(key=lambda kv: (-kv[1], kv[0]))
    return results


def make_corpus(texts):
    return KnowledgeCorpus(
        [KnowledgeSentence(id=f"{i:08d}", text=t) for i, t in enumerate(texts)]
    )


# --- golden arithmetic -------------------------------------------------------

def test_scores_match_hand_expanded_formula():
    corpus = make_corpus(["the cat sat", "the dog sat", "a cat and a cat"])
    idx = build_index(corpus)
    hits = search(idx, ["cat"], k=10)

    idf_cat = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
    avg = 11 / 3
    s_doc0 = idf_cat * 1 * 2.2 / (1 + 1.2 * (1 - 0.75 + 0.75 * (3 / avg)))
    s_doc2 = idf_cat * 2 * 2.2 / (2 + 1.2 * (1 - 0.75 + 0.75 * (5 / avg)))

    assert [h.sentence_id for h in hits] == ["00000002", "00000000"]
    assert hits[0].score == pytest.approx(s_doc2, abs=1e-12)
    assert hits[1].score == pytest.approx(s_doc0, abs=1e-12)


def test_idf_of_unseen_term():
    idx = build_index(make_corpus(["a b", "c d", "e f"]))
    assert idx.idf("zebra") == pytest.approx(math.log(1 + 3.5 / 0.5))


def test_idf_single_occurrence_hand_value():
    idx = build_index(make_corpus(["cat one", "two three", "four five"]))
    assert idx.idf("cat") == pytest.approx(math.log(1 + 2.5 / 1.5), abs=1e-12)
    assert idx.idf("cat") == pytest.approx(0.9808, abs=5e-5)


def test_doc_stats():
    idx = build_index(make_corpus(["one two three four", "five six seven", "eight nine ten eleven twelve"]))
    assert idx.doc_count == 3
    assert idx.avg_doc_length == 4.0


def test_query_is_a_bag():
    idx = build_index(make_corpus(["the cat sat", "the dog sat"]))
    once = search(idx, ["cat"], k=5)
    twice = search(idx, ["cat", "cat"], k=5)
    assert twice[0].score == pytest.approx(2 * once[0].score)


def test_zero_score_documents_are_omitted():
    idx = build_index(make_corpus(["the cat sat", "the dog ran"]))
    assert search(idx, ["zebra"], k=5) == []
    hits = search(idx, ["cat", "zebra"], k=5)
    assert [h.sentence_id for h in hits] == ["00000000"]


def test_ties_break_by_sentence_id():
    idx = build_index(make_corpus(["same words here", "same words here", "same words here"]))
    hits = search(idx, ["words"], k=10)
    assert [h.sentence_id for h in hits] == ["00000000", "00000001", "00000002"]
    assert hits[0].score == hits[1].score == hits[2].score


def test_k_limits_results():
    idx = build_index(make_corpus(["cat one", "cat two", "cat three"]))
    assert len(search(idx, ["cat"], k=2)) == 2
    with pytest.raises(ValueError, match="positive"):
        search(idx, ["cat"], k=0)


def test_all_token_free_documents():
    idx = build_index(make_corpus(["!!!", "???"]))
    assert idx.avg_doc_length == 0.0
    assert search(idx, ["cat"], k=5) == []


def test_empty_query_returns_nothing():
    idx = build_index(make_corpus(["the cat sat"]))
    assert search(idx, [], k=5) == []


# --- oracle equivalence ------------------------------------------------------

_PLAIN = ["cat", "dog", "fish", "runs", "sleeps", "the", "a", "big"]
_WORDS = st.sampled_from(_PLAIN)
# _PLAIN and words that take either tokenizer path: uppercase, digits, "_"
# and punctuation inside a word, and non-ASCII letters, digits and spaces
_MIXED_WORDS = st.sampled_from(_PLAIN + [
    "Cat", "DOG", "42", "b4", "cat_dog", "dog.", "x-ray", "(the)", "big!",
    "café", "Straße", "İstanbul", "٣cat", "dog\u00a0fish", "naïve",
])


@given(
    docs=st.lists(
        st.lists(_MIXED_WORDS, min_size=1, max_size=12).map(" ".join), min_size=1, max_size=50
    ),
    # a query is terms: the words' tokens
    query=st.lists(_MIXED_WORDS, max_size=8).map(
        lambda words: [t for w in words for t in regex_tokens(w)]),
)
@settings(max_examples=150, deadline=None)
def test_matches_brute_force(docs, query):
    corpus = make_corpus(docs)
    idx = build_index(corpus)
    hits = search(idx, query, k=len(docs))
    expected = bm25_brute_force([(s.id, s.text) for s in corpus.sentences], query)
    assert [(h.sentence_id, h.score) for h in hits] == expected
    assert all(h.score > 0 for h in hits)
    assert all(a.score >= b.score for a, b in zip(hits, hits[1:]))


def _bits(hits):
    return [(h.sentence_id, struct.pack("<d", h.score)) for h in hits]


@given(
    docs=st.lists(
        st.lists(_WORDS, min_size=1, max_size=12).map(" ".join), min_size=1, max_size=40
    ),
    # a few short queries over few words: terms repeat within a query
    # (count > 1) and across queries (the same (term, count) hits the memo)
    queries=st.lists(st.lists(_WORDS, max_size=6), min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_search_with_a_cold_or_warm_memo_matches_brute_force_bit_for_bit(docs, queries):
    corpus = make_corpus(docs)
    docs = [(s.id, s.text) for s in corpus.sentences]
    warm = build_index(corpus)
    assert "record_pos" not in vars(warm)  # the position column waits for the first search
    for query in queries:
        search(warm, query, k=len(docs))
    for query in queries:
        expected = [(sid, struct.pack("<d", score))
                    for sid, score in bm25_brute_force(docs, query)]
        assert _bits(search(build_index(corpus), query, k=len(docs))) == expected
        assert _bits(search(warm, query, k=len(docs))) == expected
    counts = {(t, c) for query in queries for t, c in Counter(query).items() if t in warm.postings}
    assert set(warm._contributions) == counts


@given(
    docs=st.lists(
        st.lists(_WORDS, min_size=1, max_size=12).map(" ".join), min_size=1, max_size=50
    ),
    query=st.lists(_WORDS, max_size=8),
    k1=st.floats(0.5, 2.5),
    b=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_matches_brute_force_any_params(docs, query, k1, b):
    corpus = make_corpus(docs)
    idx = build_index(corpus, Bm25Params(k1=k1, b=b))
    hits = search(idx, query, k=len(docs))
    expected = bm25_brute_force([(s.id, s.text) for s in corpus.sentences], query, k1=k1, b=b)
    assert [(h.sentence_id, h.score) for h in hits] == expected


@given(
    docs=st.lists(
        st.lists(st.sampled_from(["cat", "dog", "the"]), min_size=1, max_size=4).map(" ".join),
        min_size=1, max_size=8,
    ),
    copies=st.integers(1, 6),
    query=st.lists(st.sampled_from(["cat", "dog", "the"]), min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_top_k_cuts_tie_groups_like_brute_force(tmp_path_factory, docs, copies, query, data):
    # Few words and repeated documents make large groups of equal scores;
    # a k drawn below len(docs) cuts through them.
    docs = docs * copies
    k = data.draw(st.integers(1, len(docs)), label="k")
    # ids in shuffled order, so the id tie-break is not the position order
    ids = data.draw(st.permutations(range(len(docs))), label="ids")
    corpus = KnowledgeCorpus(
        [KnowledgeSentence(id=f"{i:08d}", text=t) for i, t in zip(ids, docs)]
    )
    expected = bm25_brute_force([(s.id, s.text) for s in corpus.sentences], query)[:k]
    # a reloaded index ranks its ids anew, so it must order ties the same way
    path = tmp_path_factory.getbasetemp() / "ties.kiix"
    built = build_index(corpus)
    save_index(built, path)
    for index in (built, load_index(path)):
        hits = search(index, query, k=k)
        assert [(h.sentence_id, h.score) for h in hits] == expected
        assert [h.pos for h in hits] == [index.doc_ids.index(h.sentence_id) for h in hits]
        assert all(corpus.ids[h.pos] == h.sentence_id for h in hits)


# --- serialization -----------------------------------------------------------

# Corpora for the file round trips: words that repeat across documents,
# texts with no token, non-ASCII text, and a single document or none.
_CORPORA = st.lists(
    st.one_of(
        st.lists(_WORDS, min_size=1, max_size=8).map(" ".join),
        st.just("!!!"),
        st.text("aéßñ日本😀 !-", min_size=1, max_size=10).filter(str.strip),
    ),
    max_size=12,
)


def _document_frequencies(texts):
    """Brute force: the number of texts each term occurs in."""
    return Counter(term for text in texts for term in set(regex_tokens(text)))


@given(texts=_CORPORA)
@example(texts=["the cat sat", "a dog ran far", "cats and dogs"])
@settings(max_examples=100, deadline=None)
def test_save_load_round_trip(tmp_path_factory, texts):
    idx = build_index(make_corpus(texts))
    path = tmp_path_factory.getbasetemp() / "kb.idx"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.params == idx.params
    assert loaded.corpus_digest == idx.corpus_digest
    assert list(loaded.doc_ids) == list(idx.doc_ids)
    assert np.array_equal(loaded.doc_lengths, idx.doc_lengths)
    assert list(loaded.postings) == list(idx.postings) == sorted(idx.postings)
    df = _document_frequencies(texts)
    assert set(idx.postings) == set(df)
    for term, rows in idx.postings.items():
        assert loaded.records[loaded.postings[term]].tolist() == idx.records[rows].tolist()
        assert len(rows) == len(loaded.postings[term]) == df[term]
    assert loaded.avg_doc_length == idx.avg_doc_length
    # load_index hands its order check's position column to the first search
    assert loaded.record_pos.dtype == np.intp
    assert np.array_equal(loaded.record_pos, loaded.records["pos"].astype(np.intp))
    assert search(loaded, ["cat", "dog"], k=3) == search(idx, ["cat", "dog"], k=3)
    docs = list(zip(loaded.doc_ids, texts))
    for query in (["cat", "dog"], ["the", "the", "a"], list(df)[:3]):
        expected = bm25_brute_force(docs, query)
        assert [(h.sentence_id, h.score) for h in search(loaded, query, k=len(texts) or 1)] \
            == expected


@pytest.mark.parametrize(
    "texts", [["the cat sat", "a dog ran far", "cats and dogs", "the the cat"], ["!!!"], []]
)
@given(drawn=_CORPORA)
@settings(max_examples=35, deadline=None)
def test_save_load_save_reproduces_the_file(tmp_path_factory, texts, drawn):
    first = tmp_path_factory.getbasetemp() / "a.idx"
    second = tmp_path_factory.getbasetemp() / "b.idx"
    for corpus in (texts, drawn):
        save_index(build_index(make_corpus(corpus), Bm25Params(k1=1.7, b=0.3)), first)
        save_index(load_index(first), second)
        assert second.read_bytes() == first.read_bytes()


@given(texts=st.lists(st.lists(_MIXED_WORDS, min_size=1, max_size=8).map(" ".join), max_size=20))
@example(texts=["The cat_dog", "café CAFÉ cafe", "x-ray 42 İstanbul", "!!!"])
@settings(max_examples=60, deadline=None)
def test_index_file_is_the_regex_tokenizers(tmp_path_factory, texts):
    # build_index tokenizes through kiqa.index's word_tokens; with the regex
    # in its place the file must come out byte for byte the same
    corpus = make_corpus(texts)
    fast = tmp_path_factory.getbasetemp() / "fast.idx"
    regex = tmp_path_factory.getbasetemp() / "regex.idx"
    save_index(build_index(corpus), fast)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("kiqa.index.word_tokens", regex_tokens)
        save_index(build_index(corpus), regex)
    assert regex.read_bytes() == fast.read_bytes()


def _column(strings):
    raw = [s.encode("utf-8") for s in strings]
    return struct.pack(f"<{len(raw) + 1}I", len(raw), *map(len, raw)) + b"".join(raw)


def payload_v4(docs, terms, k1=1.2, b=0.75, digest=bytes(range(32)),
               file_sha256=bytes(range(32, 64))):
    """The KIIX v4 payload laid out field by field.

    ``docs`` lists (id, length) pairs and ``terms`` (term, [(pos, tf), ...])
    pairs, both in file order: k1, b, the corpus digest, the corpus file's
    sha256, the id column and the lengths, the term column and the dfs,
    then the postings term after term.  A column is its count, each
    string's byte length, then the bytes.
    """
    data = struct.pack("<dd", k1, b) + digest + file_sha256
    data += _column([d for d, _ in docs]) + struct.pack(f"<{len(docs)}I", *(n for _, n in docs))
    data += _column([t for t, _ in terms])
    data += struct.pack(f"<{len(terms)}I", *(len(p) for _, p in terms))
    data += b"".join(struct.pack("<II", *rec) for _, p in terms for rec in p)
    return data


def pack_v4(*args, **kwargs):
    """A whole KIIX v4 file around :func:`payload_v4`."""
    return frame(b"KIIX", 4, payload_v4(*args, **kwargs))


def test_hand_packed_v2_file_loads(tmp_path):
    # Packs the current (version 4) layout; the name predates it.
    data = pack_v4([("d0", 3), ("d1", 2)],
                   [("cat", [(0, 2), (1, 1)]), ("mat", [(1, 1)]), ("sat", [(0, 1)])])
    path = tmp_path / "hand.idx"
    path.write_bytes(data)
    idx = load_index(path)
    assert idx.params == Bm25Params(k1=1.2, b=0.75)
    assert idx.corpus_digest == bytes(range(32))
    assert idx.corpus_file_sha256 == bytes(range(32, 64))
    assert list(idx.doc_ids) == ["d0", "d1"]
    assert idx.doc_lengths.tolist() == [3, 2]
    assert idx.records[idx.postings["cat"]].tolist() == [(0, 2), (1, 1)]
    assert idx.records[idx.postings["sat"]].tolist() == [(0, 1)]
    assert len(idx.postings["cat"]) == 2 and len(idx.postings.get("dog", ())) == 0
    save_index(idx, tmp_path / "again.idx")
    assert (tmp_path / "again.idx").read_bytes() == data
    assert [h.sentence_id for h in search(idx, ["cat"], k=5)] == ["d0", "d1"]


def test_non_ascii_ids_and_terms_round_trip(tmp_path):
    corpus = KnowledgeCorpus([KnowledgeSentence(id="é-0", text="ß straße 日本"),
                              KnowledgeSentence(id="😀", text="straße plain")])
    idx = build_index(corpus)
    save_index(idx, tmp_path / "a.idx")
    loaded = load_index(tmp_path / "a.idx")
    assert list(loaded.doc_ids) == ["é-0", "😀"]
    assert sorted(loaded.postings) == sorted(idx.postings)
    assert loaded.corpus_digest == corpus.digest
    save_index(loaded, tmp_path / "b.idx")
    assert (tmp_path / "b.idx").read_bytes() == (tmp_path / "a.idx").read_bytes()


# Ids that take every path of the encoded id column: ASCII of one width,
# ASCII of several widths, non-ASCII, NUL bytes, and orders that do or do not
# ascend by position.
_IDS = st.one_of(
    st.lists(st.text("ab\x00", min_size=3, max_size=3), min_size=1, max_size=20, unique=True),
    st.lists(st.text("ab\x00\x7f", max_size=4), min_size=1, max_size=20, unique=True),
    st.lists(st.text("aé\x00日😀", max_size=3), min_size=1, max_size=20, unique=True),
).flatmap(lambda ids: st.one_of(st.just(sorted(ids)), st.permutations(ids)))


def assert_ids_round_trip(ids, texts, query, path):
    """A corpus with these ids and texts keeps its ids through save and load,
    and search on the built and the loaded index ranks as brute force does."""
    corpus = KnowledgeCorpus([KnowledgeSentence(id=i, text=t) for i, t in zip(ids, texts)])
    built = build_index(corpus)
    save_index(built, path)
    loaded = load_index(path)
    assert list(loaded.doc_ids) == list(built.doc_ids) == ids
    assert [loaded.doc_ids[p] for p in range(len(ids))] == ids
    assert loaded.doc_ids[-1] == ids[-1]
    assert loaded.doc_ids.take([len(ids) - 1, 0, 0]) == [ids[-1], ids[0], ids[0]]
    assert loaded.doc_ids.ascending() == built.doc_ids.ascending() == (ids == sorted(ids))
    assert (loaded.id_rank is None) == (ids == sorted(ids))
    expected = bm25_brute_force(list(zip(ids, texts)), query)
    for k in range(1, len(ids) + 1):
        for index in (built, loaded):
            hits = search(index, query, k=k)
            assert [(h.sentence_id, h.score) for h in hits] == expected[:k]
            assert all(ids[h.pos] == h.sentence_id for h in hits)


@given(ids=_IDS, data=st.data())
@settings(max_examples=150, deadline=None)
def test_encoded_ids_round_trip_and_break_ties_as_built(tmp_path_factory, ids, data):
    # few words, so scores tie and the id order decides among them
    texts = data.draw(st.lists(st.lists(st.sampled_from(["cat", "dog"]), min_size=1,
                                        max_size=3).map(" ".join),
                               min_size=len(ids), max_size=len(ids)), label="texts")
    query = data.draw(st.lists(st.sampled_from(["cat", "dog"]), min_size=1, max_size=3),
                      label="query")
    assert_ids_round_trip(ids, texts, query, tmp_path_factory.getbasetemp() / "ids.kiix")


def _raw_column(raw):
    return struct.pack(f"<{len(raw) + 1}I", len(raw), *map(len, raw)) + b"".join(raw)


@pytest.mark.parametrize("raw_ids", [
    [b"\xc3", b"\xa9"],                  # "é" split after its first byte
    [b"a\xe6\x97", b"\xa5b"],            # "日" split after two of its three
    [b"\xf0\x9f", b"\x98\x80", b"x"],     # "😀" split in the middle
])
def test_id_column_that_splits_a_character_rejected(tmp_path, raw_ids):
    # The blob decodes as a whole; only an id boundary is inside a character.
    str(b"".join(raw_ids), "utf-8")
    data = payload_v4([(f"d{i}", 1) for i in range(len(raw_ids))],
                      [("cat", [(i, 1) for i in range(len(raw_ids))])])
    ids = _column([f"d{i}" for i in range(len(raw_ids))])
    path = tmp_path / "split.idx"
    path.write_bytes(frame(b"KIIX", 4, data.replace(ids, _raw_column(raw_ids))))
    with pytest.raises(IndexFormatError, match="not valid UTF-8"):
        load_index(path)


def test_v1_file_rejected_with_rebuild_hint(tmp_path):
    # Version 1: a header without the corpus digest, then each document's
    # length-prefixed id and length, each term with its postings.
    v1 = b"KIIX" + struct.pack("<IddI", 1, 1.2, 0.75, 1)
    v1 += struct.pack("<I", 2) + b"d0" + struct.pack("<I", 1)
    v1 += struct.pack("<I", 1) + struct.pack("<I", 3) + b"cat" + struct.pack("<III", 1, 0, 1)
    # Version 2: the same columns (here an empty index) with no frame or checksum.
    v2 = b"KIIX" + struct.pack("<Idd", 2, 1.2, 0.75) + bytes(32) + struct.pack("<I", 0) * 2
    # Version 3: the version 4 frame without the corpus file's sha256.
    v3 = frame(b"KIIX", 3, struct.pack("<dd", 1.2, 0.75) + bytes(32) + struct.pack("<I", 0) * 2)
    for version, data in [(1, v1), (2, v2), (3, v3)]:
        path = tmp_path / f"v{version}.idx"
        path.write_bytes(data)
        with pytest.raises(IndexFormatError,
                           match=f"version {version}.*rebuild the index with index-build"):
            load_index(path)


def test_string_column_that_is_not_utf8_rejected(tmp_path):
    data = payload_v4([("d0", 1)], [("cat", [(0, 1)])])
    path = tmp_path / "bad.idx"
    path.write_bytes(frame(b"KIIX", 4, data.replace(b"cat", b"c\xffa")))
    with pytest.raises(IndexFormatError, match="UTF-8"):
        load_index(path)


@pytest.mark.parametrize(
    "cat_postings",
    [
        [(2, 1)],          # position past the last document
        [(0, 0)],          # zero term frequency
        [(1, 1), (0, 1)],  # positions out of order
        [(0, 1), (0, 2)],  # the same document twice
    ],
)
def test_bad_posting_rejected(tmp_path, cat_postings):
    data = pack_v4([("d0", 3), ("d1", 2)], [("a", [(0, 1)]), ("cat", cat_postings)])
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    with pytest.raises(IndexFormatError, match="'cat'"):
        load_index(path)


@pytest.mark.parametrize("lengths, named", [
    ((3, 9), "'d1' has length 9 but"),
    ((3, 0), "'d1' has length 0 but"),
    ((2, 2), "'d0' has length 2 but"),
    ((4, 1), "'d0' has length 4 but"),  # the first document that differs
])
def test_document_length_that_is_not_its_term_frequency_sum_rejected(tmp_path, lengths, named):
    # by its postings d0 holds 2 + 1 tokens and d1 holds 1 + 1
    data = pack_v4(list(zip(["d0", "d1"], lengths)),
                   [("cat", [(0, 2), (1, 1)]), ("mat", [(1, 1)]), ("sat", [(0, 1)])])
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    with pytest.raises(IndexFormatError, match=f"document {named}"):
        load_index(path)


def test_repeated_term_rejected(tmp_path):
    data = pack_v4([("d0", 1)], [("cat", [(0, 1)]), ("cat", [(0, 1)])])
    path = tmp_path / "bad.idx"
    path.write_bytes(data)
    with pytest.raises(IndexFormatError, match="more than one"):
        load_index(path)


@pytest.mark.parametrize(
    "k1, b", [(-1.0, 0.0), (1.2, -0.1), (1.2, 1.5), (math.nan, 0.5), (math.inf, 0.5)]
)
def test_params_outside_the_bm25_range_rejected(tmp_path, k1, b):
    with pytest.raises(ValueError, match="k1 >= 0"):
        Bm25Params(k1=k1, b=b)
    path = tmp_path / "bad.idx"
    path.write_bytes(pack_v4([], [], k1=k1, b=b))
    with pytest.raises(IndexFormatError, match="k1 >= 0"):
        load_index(path)


def test_serialization_is_deterministic(tmp_path):
    texts = ["zeta alpha", "alpha beta", "beta zeta gamma"]
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(build_index(make_corpus(texts)), a)
    save_index(build_index(make_corpus(texts)), b)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"KIIX" + struct.pack("<I", 99))
    with pytest.raises(IndexFormatError, match="version"):
        load_index(path)


def test_truncated_file_rejected(tmp_path):
    idx = build_index(make_corpus(["the cat sat"]))
    path = tmp_path / "kb.idx"
    save_index(idx, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(IndexFormatError, match="truncated"):
        load_index(path)


def test_trailing_garbage_rejected(tmp_path):
    idx = build_index(make_corpus(["the cat sat"]))
    path = tmp_path / "kb.idx"
    save_index(idx, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(IndexFormatError, match="trailing"):
        load_index(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(IndexFormatError, match="cannot read"):
        load_index(tmp_path / "absent.idx")
