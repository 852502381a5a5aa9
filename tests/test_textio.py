"""kiqa.textio, the one reader of text inputs and the one writer of outputs, and the
guards that keep it the only one."""

import ast
import builtins
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kiqa
from kiqa import binfmt, textio
from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence, save_jsonl
from kiqa.datasets import McqDataset, McqItem, save_mcq_jsonl
from kiqa.encoder import KENC
from kiqa.evalreport import EvalReport, save_report, write_sweep_csv, write_weight_report_csv
from kiqa.external import ExternalVectorStore, save_external_vectors
from kiqa.fusion import FusionModel, save_predictions
from kiqa.textio import json_lines, loads, read_text, replacing, write_json_lines


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


# ---------------------------------------------------------------------------
# The one writer
# ---------------------------------------------------------------------------

def test_replacing_writes_text_and_bytes_as_given(tmp_path):
    path = tmp_path / "x.txt"
    with replacing(path) as fh:
        fh.write("caf\u00e9\r\nline\u2028two\n")
    assert path.read_bytes() == "caf\u00e9\r\nline\u2028two\n".encode("utf-8")
    with replacing(path, binary=True) as fh:
        fh.write(b"\x00\xff")
    assert path.read_bytes() == b"\x00\xff"
    assert os.listdir(tmp_path) == ["x.txt"]


def test_write_json_lines_writes_one_dumps_line_per_record(tmp_path):
    records = [{"a": "\u00e9", "b": [1, None]}, [2.5], "s"]
    write_json_lines(tmp_path / "x.jsonl", records)
    assert (tmp_path / "x.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in records)


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_a_new_file_gets_the_mode_open_would_give_it(tmp_path, umask):
    old = os.umask(umask)
    try:
        with replacing(tmp_path / "x.txt") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    assert (tmp_path / "x.txt").stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o444])
def test_a_replaced_file_keeps_its_permission_bits(tmp_path, mode):
    path = tmp_path / "x.txt"
    path.write_text("old", encoding="utf-8")
    path.chmod(mode)
    old = os.umask(0o022)
    try:
        with replacing(path) as fh:
            fh.write("new")
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o7777 == mode
    assert path.read_text(encoding="utf-8") == "new"


@pytest.mark.parametrize("target, exc", [
    ("nodir/x.jsonl", FileNotFoundError),
    ("adir", IsADirectoryError),
])
def test_a_target_that_cannot_be_written_is_named(tmp_path, target, exc):
    (tmp_path / "adir").mkdir()
    path = tmp_path / target
    with pytest.raises(exc) as caught:
        with replacing(path) as fh:
            fh.write("x")
    assert str(caught.value).endswith(f": {str(path)!r}")
    assert sorted(os.listdir(tmp_path)) == ["adir"] and os.listdir(tmp_path / "adir") == []


class CutShort:
    """A file whose first write stores half its data, then raises ``exc``."""

    def __init__(self, fh, exc: BaseException):
        self.fh, self.exc = fh, exc

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        assert os.fstat(self.fh.fileno()).st_size > 0  # a partial file is on disk
        raise self.exc

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _store():
    return ExternalVectorStore({(f"q{i}", o, p): np.array([i + o + 0.5, -1.0])
                                for i in range(2) for o in range(2) for p in (None, -1, 0)})


def _dataset():
    return McqDataset(items=[McqItem(f"q{i}", f"question {i}", ["yes", "no"], gold=i)
                             for i in range(2)])


def _baseline_model():
    model = FusionModel(_store(), "baseline")
    model.score_w.data = np.array([[1.0], [0.5]])
    return model


def _kenc_frame(path):
    w = binfmt.Writer()
    w.u32(7)
    w.tensors({"w": np.arange(6.0).reshape(2, 3)})
    binfmt.save(path, KENC, w)


# Every function in the package that writes a file, each writing a small output.
WRITERS = {
    "binfmt.save": _kenc_frame,
    "corpus.save_jsonl": lambda path: save_jsonl(KnowledgeCorpus(sentences=[
        KnowledgeSentence("s1", "the sky is blue"), KnowledgeSentence("s2", "grass")]), path),
    "datasets.save_mcq_jsonl": lambda path: save_mcq_jsonl(_dataset(), path),
    "evalreport.save_report": lambda path: save_report(
        EvalReport((("q0", 0, 0), ("q1", 0, 1)), "f" * 64), path),
    "evalreport.write_sweep_csv": lambda path: write_sweep_csv([(1, 0.5), (2, 0.75)], path),
    "evalreport.write_weight_report_csv": lambda path: write_weight_report_csv(
        [("q0", 0, 0, 0.25, 0.5), ("q0", 1, 0, 0.75, 0.0)], path),
    "external.save_external_vectors": lambda path: save_external_vectors(_store(), path),
    "fusion.save_predictions": lambda path: save_predictions(_baseline_model(), _dataset(), path),
}


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                 KeyboardInterrupt()], ids=["ENOSPC", "interrupt"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_cut_short_leaves_the_old_file(tmp_path, monkeypatch, writer, exc):
    path = tmp_path / "out"
    WRITERS[writer](path)
    old = path.read_bytes()
    assert old
    monkeypatch.setattr(textio, "open", lambda *a, **k: CutShort(builtins.open(*a, **k), exc),
                        raising=False)
    with pytest.raises(type(exc)):
        WRITERS[writer](path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["out"]


# ---------------------------------------------------------------------------
# Guard: only kiqa.textio writes files in the package
# ---------------------------------------------------------------------------

def file_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each way a module could write or replace a file.

    An ``open`` whose mode cannot be seen counts as a write.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}")
                      for a in node.names if a.name in ("open", "rename", "replace")]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name, method = func.attr, True
            if name in ("write_text", "write_bytes"):
                found.append((node.lineno, name))
            if isinstance(func.value, ast.Name) and func.value.id == "os" \
                    and name in ("open", "rename", "replace"):
                found.append((node.lineno, f"os.{name}"))
                continue
        elif isinstance(func, ast.Name):
            name, method = func.id, False
        else:
            continue
        if name == "open":
            # open(file, mode) or path.open(mode); no mode reads
            args = node.args[0 if method else 1:]
            mode = args[0] if args else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                    or set(mode.value) & set("wax+"):
                found.append((node.lineno, "open for writing"))
    return sorted(found)


def test_only_textio_writes_files():
    src = Path(kiqa.__file__).parent
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(src.glob("*.py")) if path.name != "textio.py"
        for line, what in file_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_guard_sees_every_way_of_writing():
    code = "\n".join([
        "import os",                     # 1: fine
        "from os import replace",        # 2
        "open(p, 'w')",                  # 3
        "open(p, 'wb')",                 # 4
        "open(p, mode='a', encoding='utf-8')",  # 5
        "p.open('x')",                   # 6
        "open(p, 'r+')",                 # 7
        "open(p, m)",                    # 8: a mode it cannot see
        "Path(p).write_text(s)",         # 9
        "p.write_bytes(b)",              # 10
        "os.replace(a, b)",              # 11
        "os.rename(a, b)",               # 12
        "os.open(p, flags)",             # 13
        "open(p)",                       # reads are fine
        "open(p, 'rb')",
        "p.open()",
        "p.read_bytes()",
        "s.replace('a', 'b')",
        "fh.write(s)",
        "replacing(p)",                  # textio's own writer
    ])
    assert [line for line, _ in file_writes(ast.parse(code))] == list(range(2, 14))
