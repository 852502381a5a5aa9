"""Precomputed sequence vectors, keyed by (item, option, passage).

Lets pooled vectors exported from any real pretrained encoder drive the
scoring heads without that encoder being present.  The passage slot in a
key is the premise index, with two sentinels: ``None`` is the
no-knowledge encoding of the question/option pair alone, and ``-1`` is
the encoding of all premises joined into one passage (what the
concatenation head consumes).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .textio import InputError, json_lines, write_json_lines

Key = tuple[str, int, "int | None"]


class ExternalVectorStore:
    def __init__(self, vectors: dict[Key, np.ndarray]):
        if not vectors:
            raise InputError("no vectors")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1 or next(iter(dims))[0] < 1:
            raise InputError(f"inconsistent vector dimensions: {sorted(dims)}")
        self._vectors = dict(vectors)
        self.dimension = next(iter(dims))[0]

    def __len__(self) -> int:
        return len(self._vectors)

    def __deepcopy__(self, memo) -> ExternalVectorStore:
        return self  # read-only, so a copied model shares it

    def __contains__(self, key: Key) -> bool:
        return key in self._vectors

    def get(self, item_id: str, option: int, passage: int | None = None) -> np.ndarray:
        key = (item_id, option, passage)
        try:
            return self._vectors[key]
        except KeyError:
            raise InputError(f"no vector stored for {key}") from None

    def keys(self) -> list[Key]:
        return sorted(self._vectors, key=_sort_key)


def _sort_key(key: Key):
    item, option, passage = key
    return (item, option, passage is not None, passage if passage is not None else 0)


def load_external_vectors(path: str | Path) -> ExternalVectorStore:
    vectors: dict[Key, np.ndarray] = {}
    for lineno, rec in json_lines(path):
        at = f"{path}:{lineno}"
        try:
            item, option, vec = rec["item"], rec["option"], rec["vec"]
        except (KeyError, TypeError):
            raise InputError(f"{at}: record needs item, option, passage, vec") from None
        if "passage" not in rec:
            raise InputError(f"{at}: record is missing a passage field")
        passage = rec["passage"]
        if type(item) is not str or type(option) is not int:
            raise InputError(f"{at}: item must be a string and option an integer")
        if passage is not None and (type(passage) is not int or passage < -1):
            raise InputError(f"{at}: passage must be null, -1, or a premise index")
        key = (item, option, passage)
        if key in vectors:
            raise InputError(f"{at}: duplicate key {key}")
        if type(vec) is not list or not vec or not all(type(x) in (int, float) for x in vec):
            raise InputError(f"{at}: vec must be a non-empty flat list of numbers")
        arr = np.asarray(vec, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise InputError(f"{at}: non-finite vector component")
        if vectors and arr.shape != next(iter(vectors.values())).shape:
            raise InputError(f"{at}: vector dimension {arr.size} does not match the rest")
        vectors[key] = arr
    return ExternalVectorStore(vectors)


def save_external_vectors(store: ExternalVectorStore, path: str | Path) -> None:
    write_json_lines(path, (
        {"item": item, "option": option, "passage": passage,
         "vec": store.get(item, option, passage).tolist()}
        for item, option, passage in store.keys()
    ))
