"""How a kiqa input file becomes text and records, and how an output reaches disk.

Every input file is read here, so each fails the same way: as an
:class:`InputError` naming the file (and line) that cannot be read, is not
UTF-8, or holds invalid or too deeply nested JSON.  The text has universal
newlines, as ``Path.read_text`` gives it, and every loader splits it into
lines at ``\\n`` alone, so a U+2028 or U+0085 stays inside its line; only
the plain-lines corpus format ends a line wherever ``str.splitlines`` does.

Every output is written here too, through :func:`replacing`: a stage that
fails or is interrupted leaves the file it would overwrite as it was.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from json.decoder import JSONDecoder
from pathlib import Path
from typing import IO, Iterable, Iterator

_SCAN = JSONDecoder().scan_once


class InputError(ValueError):
    """An input kiqa cannot use: a file, a record, a flag or a config value.

    The message names the file, and the line, where there is one.
    """


def read_bytes(path: str | Path) -> bytes:
    """The file's bytes."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def decode(data: bytes, path: str | Path) -> str:
    """``path``'s bytes as ``Path.read_text`` gives them: UTF-8, universal newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path) -> str:
    """The file's text, decoded as UTF-8."""
    return decode(read_bytes(path), path)


def loads(text: str, where: str):
    """One JSON value; ``where`` prefixes the error (a path, or ``path:line``)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{where}: invalid JSON: {exc}") from None


def json_lines(path: str | Path, text: str | None = None) -> Iterator[tuple[int, object]]:
    """``(lineno, record)`` for each non-blank ``\\n``-separated line (a U+2028 stays inside).

    ``text`` is the file's text when the caller has read it already.
    """
    lines = (read_text(path) if text is None else text).split("\n")
    for lineno, line in enumerate(lines, start=1):
        try:
            rec, end = _SCAN(line, 0)  # what json.loads returns when the line has no padding
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            rec = loads(line, f"{path}:{lineno}")
        yield lineno, rec


def json_line(line: str, where: str):
    """One line's record, parsed as :func:`json_lines` parses a non-blank line."""
    try:
        rec, end = _SCAN(line, 0)
        if end == len(line):
            return rec
    except (StopIteration, ValueError, RecursionError):
        pass
    return loads(line, where)


@contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A new file that replaces ``path`` only when the block completes.

    It is a hidden temporary file in ``path``'s directory, opened for UTF-8
    text with no newline translation, or for bytes.  On success it is
    renamed over ``path`` (``os.replace``); on any exception, an interrupt
    included, it is removed and ``path`` keeps its old content.  A new file
    gets the mode ``open`` would give it (0o666 less the umask); a file that
    replaces another keeps the permission bits of the one it replaces (not
    its owner or ACLs).  Errors of the file system name ``path``, not the
    temporary file.
    """
    tmp = Path(path).parent / f".{Path(path).name}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        try:
            try:
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            except FileNotFoundError:  # a new file keeps the mode it was created with
                pass
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_lines(path: str | Path, records: Iterable) -> None:
    """One ``json.dumps(record, ensure_ascii=False)`` line per record, replacing ``path``."""
    with replacing(path) as fh:
        fh.writelines(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)
