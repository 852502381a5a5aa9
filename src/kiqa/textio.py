"""How a kiqa input file becomes text and records.

Every text input is read here, so each fails the same way: as the caller's
error class, naming the file (and line) that cannot be read, is not UTF-8,
or holds invalid or too deeply nested JSON.  Each loader keeps its own line
rule on the text, which has universal newlines as ``Path.read_text`` gives.
"""

from __future__ import annotations

import json
from json.decoder import JSONDecoder
from pathlib import Path
from typing import Iterator

_SCAN = JSONDecoder().scan_once


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The file's text, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not valid UTF-8: {exc}") from exc


def loads(text: str, where: str, error: type[Exception]):
    """One JSON value; ``where`` prefixes the error (a path, or ``path:line``)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from None


def json_lines(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, object]]:
    """``(lineno, record)`` for each non-blank ``\\n``-separated line (a U+2028 stays inside)."""
    lines = read_text(path, error).split("\n")
    for lineno, line in enumerate(lines, start=1):
        try:
            rec, end = _SCAN(line, 0)  # what json.loads returns when the line has no padding
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            rec = loads(line, f"{path}:{lineno}", error)
        yield lineno, rec
