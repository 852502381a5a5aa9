"""kiqa.textio, the one reader of text inputs, and the guard that keeps it the only one."""

import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kiqa
from kiqa.textio import json_lines, loads, read_text


class ProbeError(ValueError):
    pass


def test_read_text_names_a_file_it_cannot_read(tmp_path):
    with pytest.raises(ProbeError, match=f"^cannot read {re.escape(str(tmp_path))}: "):
        read_text(tmp_path, ProbeError)  # a directory


def test_read_text_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"fine\nnot \xff fine\n")
    with pytest.raises(ProbeError, match=f"^{re.escape(str(path))} is not valid UTF-8: "):
        read_text(path, ProbeError)


@pytest.mark.parametrize("text", ["{not json}", "[1, 2", "", "[" * 100_000, "{" * 100_000])
def test_loads_names_its_place_for_invalid_or_too_deep_json(text):
    with pytest.raises(ProbeError, match="^here:3: invalid JSON: "):
        loads(text, "here:3", ProbeError)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_categories=("Cs",))),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_PAD = st.sampled_from(["", " ", "\t", "  \t"])


@given(st.lists(st.one_of(st.tuples(_PAD, _JSON, _PAD), _PAD), max_size=8))
@settings(max_examples=150, deadline=None)
def test_json_lines_matches_json_loads_on_each_line(tmp_path_factory, rows):
    # ensure_ascii=False writes U+2028 and U+0085 raw: they must stay inside their line
    lines = [r if isinstance(r, str) else r[0] + json.dumps(r[1], ensure_ascii=False) + r[2]
             for r in rows]
    path = tmp_path_factory.mktemp("jl") / "x.jsonl"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    expected = [(n, json.loads(line)) for n, line in enumerate(lines, 1) if line.strip()]
    assert list(json_lines(path, ProbeError)) == expected


def test_json_lines_names_the_bad_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1}\n\n  [2]  \n{"b": \n', encoding="utf-8")
    records = json_lines(path, ProbeError)
    assert next(records) == (1, {"a": 1}) and next(records) == (3, [2])
    with pytest.raises(ProbeError, match=f"^{re.escape(str(path))}:4: invalid JSON: "):
        next(records)


# ---------------------------------------------------------------------------
# Guard: only kiqa.textio reads text or parses JSON in the package
# ---------------------------------------------------------------------------

def text_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each JSON parse or read-mode open in a module.

    ``read_bytes`` (the binary artifacts' one read) and opens for writing
    are allowed; an ``open`` whose mode cannot be seen counts as a read.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.decoder"):
            found += [(node.lineno, f"from {node.module} import {a.name}")
                      for a in node.names if a.name in ("load", "loads", "JSONDecoder")]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name, method = func.attr, True
            if name in ("load", "loads") and isinstance(func.value, ast.Name) \
                    and func.value.id == "json":
                found.append((node.lineno, f"json.{name}"))
            elif name == "read_text":
                found.append((node.lineno, "read_text"))
        elif isinstance(func, ast.Name):
            name, method = func.id, False
        else:
            continue
        if name == "open":
            # open(file, mode) or path.open(mode)
            args = node.args[0 if method else 1:]
            mode = args[0] if args else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) & set("wax") and "+" not in mode.value):
                found.append((node.lineno, "open in read mode"))
    return sorted(found)


def test_only_textio_reads_text_or_parses_json():
    src = Path(kiqa.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(src.glob("*.py")) if path.name != "textio.py"
        for line, what in text_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_guard_sees_every_way_of_reading():
    code = "\n".join([
        "import json",                   # 1: fine
        "from json import loads",        # 2
        "json.loads(s)",                 # 3
        "json.load(fh)",                 # 4
        "Path(p).read_text()",           # 5
        "open(p)",                       # 6
        "open(p, 'rb')",                 # 7
        "open(p, mode='r')",             # 8
        "p.open()",                      # 9
        "open(p, m)",                    # 10: a mode it cannot see
        "open(p, 'r+')",                 # 11
        "open(p, 'w', encoding='utf-8')",  # 12: writes are fine
        "open(p, 'wb')",
        "p.open('a')",
        "p.read_bytes()",
        "p.write_text(s)",
        "read_text(p, E)",               # textio's own function
        "json.dumps(x)",
    ])
    assert [line for line, _ in text_reads(ast.parse(code))] == list(range(2, 12))
