"""Tests for the precomputed-vector store and its JSONL interchange format."""

import json

import numpy as np
import pytest

from kiqa.external import (
    ExternalVectorError,
    ExternalVectorStore,
    load_external_vectors,
    save_external_vectors,
)


def small_store():
    return ExternalVectorStore(
        {
            ("it-1", 0, None): np.array([1.0, 2.0]),
            ("it-1", 0, -1): np.array([3.0, 4.0]),
            ("it-1", 0, 0): np.array([5.0, 6.0]),
            ("it-1", 1, 0): np.array([7.0, 8.0]),
        }
    )


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_lookup_and_len():
    store = small_store()
    assert len(store) == 4
    assert store.dimension == 2
    np.testing.assert_array_equal(store.get("it-1", 0, None), [1.0, 2.0])
    np.testing.assert_array_equal(store.get("it-1", 0, -1), [3.0, 4.0])
    np.testing.assert_array_equal(store.get("it-1", 1, 0), [7.0, 8.0])
    assert ("it-1", 0, 0) in store
    assert ("it-1", 9, 0) not in store


def test_missing_key_raises():
    store = small_store()
    with pytest.raises(ExternalVectorError, match="no vector stored"):
        store.get("it-1", 0, 3)


def test_keys_sorted_with_sentinels_first():
    store = small_store()
    assert store.keys() == [
        ("it-1", 0, None),
        ("it-1", 0, -1),
        ("it-1", 0, 0),
        ("it-1", 1, 0),
    ]


def test_empty_store_rejected():
    with pytest.raises(ExternalVectorError, match="no vectors"):
        ExternalVectorStore({})


def test_mixed_dimensions_rejected():
    with pytest.raises(ExternalVectorError, match="dimensions"):
        ExternalVectorStore(
            {("a", 0, None): np.zeros(2), ("b", 0, None): np.zeros(3)}
        )


def test_round_trip(tmp_path):
    store = small_store()
    path = tmp_path / "vecs.jsonl"
    save_external_vectors(store, path)
    loaded = load_external_vectors(path)
    assert loaded.keys() == store.keys()
    for key in store.keys():
        np.testing.assert_array_equal(loaded.get(*key), store.get(*key))


def test_save_is_deterministic(tmp_path):
    store = small_store()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_external_vectors(store, p1)
    save_external_vectors(store, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_three_records(tmp_path):
    path = tmp_path / "vecs.jsonl"
    write_jsonl(
        path,
        [
            {"item": "x", "option": 0, "passage": None, "vec": [1.0]},
            {"item": "x", "option": 1, "passage": None, "vec": [2.0]},
            {"item": "y", "option": 0, "passage": 2, "vec": [3.0]},
        ],
    )
    store = load_external_vectors(path)
    assert len(store) == 3
    assert store.get("y", 0, 2) == pytest.approx([3.0])
    with pytest.raises(ExternalVectorError):
        store.get("y", 1, 2)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "vecs.jsonl"
    path.write_text(
        '{"item": "x", "option": 0, "passage": null, "vec": [1.0]}\n'
        "\n"
        '{"item": "x", "option": 1, "passage": null, "vec": [2.0]}\n'
    )
    assert len(load_external_vectors(path)) == 2


@pytest.mark.parametrize(
    "line,message",
    [
        ("not json", "invalid JSON"),
        ('{"option": 0, "passage": null, "vec": [1.0]}', "needs item"),
        ('{"item": "x", "passage": null, "vec": [1.0]}', "needs item"),
        ('{"item": "x", "option": 0, "passage": null}', "needs item"),
        ('{"item": "x", "option": 0, "vec": [1.0]}', "missing a passage"),
        ('{"item": "x", "option": 0, "passage": -2, "vec": [1.0]}', "passage must be"),
        ('{"item": "x", "option": 0, "passage": true, "vec": [1.0]}', "passage must be"),
        ('{"item": "x", "option": 0, "passage": null, "vec": []}', "non-empty flat"),
        ('{"item": "x", "option": 0, "passage": null, "vec": [[1.0]]}', "non-empty flat"),
        ('{"item": "x", "option": 0, "passage": null, "vec": ["1.0"]}', "non-empty flat"),
        ('{"item": true, "option": 0, "passage": null, "vec": [1.0]}', "item must be a string"),
        ('{"item": "x", "option": 3.7, "passage": null, "vec": [1.0]}', "option an integer"),
        ('{"item": "x", "option": true, "passage": null, "vec": [1.0]}', "option an integer"),
    ],
)
def test_load_rejects_malformed_lines(tmp_path, line, message):
    path = tmp_path / "vecs.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ExternalVectorError, match=message):
        load_external_vectors(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "vecs.jsonl"
    path.write_text(
        '{"item": "x", "option": 0, "passage": null, "vec": [1.0]}\n'
        '{"item": "x", "option": 0, "passage": null, "vec": [1.0]}\n'
    )
    with pytest.raises(ExternalVectorError, match=r"vecs\.jsonl:2: duplicate key"):
        load_external_vectors(path)


def test_load_rejects_dimension_drift(tmp_path):
    path = tmp_path / "vecs.jsonl"
    write_jsonl(
        path,
        [
            {"item": "x", "option": 0, "passage": None, "vec": [1.0, 2.0]},
            {"item": "y", "option": 0, "passage": None, "vec": [1.0]},
        ],
    )
    with pytest.raises(ExternalVectorError, match=":2: vector dimension 1"):
        load_external_vectors(path)


@pytest.mark.parametrize("component", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_components(tmp_path, component):
    # Python's json parses these tokens, so the loader has to refuse them itself
    path = tmp_path / "vecs.jsonl"
    path.write_text(
        '{"item": "x", "option": 0, "passage": null, "vec": [1.0, 2.0]}\n'
        f'{{"item": "y", "option": 0, "passage": null, "vec": [{component}, 1.0]}}\n'
    )
    with pytest.raises(ExternalVectorError, match=r"vecs\.jsonl:2: non-finite vector component"):
        load_external_vectors(path)
