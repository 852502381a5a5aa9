"""Knowledge corpus ingestion and source preparation.

Three raw formats are supported:

* ``plain-lines``: UTF-8 text, one knowledge sentence per line.
* ``titled-paragraphs``: JSON lines with fields ``{"title", "text"}``; the
  paragraph body is split into sentences and the title is prefixed to each.
* ``atomic-events``: JSON lines with fields ``{"event", "dimension",
  "inference"}``; person placeholders are replaced with names and each
  record is rendered through a per-dimension connective template.

Prepared corpora are exchanged between pipeline stages as JSON lines
(one sentence record per line, see :func:`save_jsonl`).  Every source is
read through :mod:`kiqa.textio`, so an unreadable or non-UTF-8 file, or a
line of invalid JSON, is an :class:`~kiqa.textio.InputError` naming the file
and line, as is every bad record.

A :class:`KnowledgeCorpus` is a column store: parallel lists of ids,
texts, source tags and titles, and its one constructor takes those
columns.  The raw-format preparers return texts (and titles and paragraph
ranges); :func:`load_corpus` alone numbers the sentence ids and gives each
format its default source tag.  Every loader fills the columns and
:func:`save_jsonl` writes from them, so no per-sentence object is made on
the way; :class:`KnowledgeSentence` objects are built only when
``sentences`` or ``at`` asks for them.
Plain lines end at any line boundary ``str.splitlines`` knows; JSON-lines
records are the ``\\n``-separated lines, so a U+2028 or U+0085 inside a
string value stays part of its record.

A prepared corpus file whose first n lines are its n sentence records is
pinned by the sha256 of its bytes, which an index built over it records.
Given that pin, :func:`load_jsonl` hashes the file instead of parsing it
and returns a row reader, not a corpus: it has the index's length and
content digest, and parses a row only when ``at`` asks for it, so a stage
that reads a few rows of a large corpus reads only those lines.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import Sequence

from .textio import (InputError, decode, json_line, json_lines, loads, read_bytes, read_text,
                     replacing)


@dataclass(frozen=True)
class KnowledgeSentence:
    """One knowledge sentence with its source metadata."""

    id: str
    text: str
    source_tag: str = "generic"
    title: str | None = None


class KnowledgeCorpus:
    """Ordered knowledge sentences, stored as columns.

    ``ids``, ``texts``, ``tags`` and ``titles`` are parallel lists with one
    entry per sentence; treat them as read-only.  Loading, saving, indexing
    and retrieval work on the columns, so a 50k-sentence corpus never
    becomes 50k objects: ``sentences`` builds a new list of
    :class:`KnowledgeSentence` objects on each read, and ``at`` builds one.

    ``paragraphs`` optionally records contiguous (start, end) index ranges of
    sentences that came from the same source paragraph; it is populated by
    the titled-paragraphs loader and lets training derive adjacent-sentence
    pairs.
    """

    # sha256 of the file whose first lines are the rows, as load_jsonl reads
    # it; zeros for a corpus that no file lays out that way
    file_sha256: bytes = bytes(32)

    def __init__(
        self,
        ids: list[str],
        texts: list[str],
        tags: list[str],
        titles: list[str | None],
        paragraphs: list[tuple[int, int]] | None = None,
    ):
        if not len(ids) == len(texts) == len(tags) == len(titles):
            raise ValueError("corpus columns differ in length")
        self.ids, self.texts, self.tags, self.titles = ids, texts, tags, titles
        self.paragraphs = paragraphs
        if len(set(ids)) != len(ids) or not all(map(str.strip, texts)):
            seen = set()
            for sid, text in zip(ids, texts):
                if not text.strip():
                    raise InputError(f"sentence {sid!r} is empty")
                if sid in seen:
                    raise InputError(f"duplicate sentence id {sid!r}")
                seen.add(sid)

    @property
    def sentences(self) -> list[KnowledgeSentence]:
        return list(map(KnowledgeSentence, self.ids, self.texts, self.tags, self.titles))

    @cached_property
    def digest(self) -> bytes:
        """sha256 of the id and text columns, which an index built here records.

        The hashed bytes are the sentence count, then for each column the
        code-point length of every entry followed by the entries' UTF-8
        concatenation: different columns always give different bytes.
        """
        h = hashlib.sha256(struct.pack("<Q", len(self.ids)))
        for column in (self.ids, self.texts):
            h.update(struct.pack(f"<{len(column)}I", *map(len, column)))
            h.update("".join(column).encode("utf-8", "surrogatepass"))
        return h.digest()

    def __len__(self) -> int:
        return len(self.ids)

    def at(self, pos: int) -> KnowledgeSentence:
        """The sentence at position ``pos``."""
        return KnowledgeSentence(self.ids[pos], self.texts[pos], self.tags[pos], self.titles[pos])

    @cached_property
    def _id_set(self) -> frozenset[str]:
        return frozenset(self.ids)

    def __contains__(self, sentence_id: str) -> bool:
        return sentence_id in self._id_set


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


_make_id = "{:08d}".format  # sentence number -> id; a bound method, so map() runs it in C


# ---------------------------------------------------------------------------
# Sentence splitting
# ---------------------------------------------------------------------------

# Words after which a period does not end a sentence.  Dotted abbreviations
# ("e.g.", "i.e.", "u.s.") are matched with their internal periods intact.
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "gen", "sen", "rep", "hon",
    "st", "sr", "jr", "vs", "etc", "inc", "ltd", "co", "corp", "dept",
    "fig", "figs", "no", "nos", "vol", "pp", "approx", "est", "min", "max",
    "e.g", "i.e", "u.s", "u.k", "a.m", "p.m", "ph.d",
}

_WORD_BACK_RE = re.compile(r"[A-Za-z][A-Za-z.]*$")


def _ends_with_abbreviation(prefix: str) -> bool:
    match = _WORD_BACK_RE.search(prefix)
    if match is None:
        return False
    word = match.group(0)
    if len(word) == 1 and word.isupper():
        return True  # initials: "J. Smith"
    return word.lower().rstrip(".") in _ABBREVIATIONS


def split_sentences(paragraph: str) -> list[str]:
    """Rule-based sentence splitter on terminal punctuation.

    Splits after runs of ``. ! ?`` (plus trailing quotes/brackets) that are
    followed by whitespace, unless the period belongs to a known
    abbreviation or a single-letter initial.  Joining the output with
    single spaces preserves every non-whitespace character of the input.
    """
    text = paragraph
    n = len(text)
    sentences: list[str] = []
    start = 0
    i = 0
    while i < n:
        ch = text[i]
        if ch in ".!?":
            j = i + 1
            while j < n and text[j] in ".!?\"')]":
                j += 1
            followed_by_space = j >= n or text[j].isspace()
            if followed_by_space and not (ch == "." and _ends_with_abbreviation(text[:i])):
                segment = text[start:j].strip()
                if segment:
                    sentences.append(_normalize_ws(segment))
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(_normalize_ws(tail))
    return sentences


# ---------------------------------------------------------------------------
# Source preparation
# ---------------------------------------------------------------------------

def prepare_titled(
    paragraphs: list[tuple[str, str]],
) -> tuple[list[str], list[str | None], list[tuple[int, int]]]:
    """Split titled paragraphs into sentences, prefixing each with its title.

    Returns the sentence texts, their titles (None for an empty title), and
    (start, end) index ranges marking which sentences belong to the same
    paragraph.
    """
    texts: list[str] = []
    titles: list[str | None] = []
    ranges: list[tuple[int, int]] = []
    for title, body in paragraphs:
        title = _normalize_ws(title)
        first = len(texts)
        for sent in split_sentences(body):
            texts.append(f"{title} . {sent}" if title else sent)
            titles.append(title or None)
        if len(texts) > first:
            ranges.append((first, len(texts)))
    return texts, titles, ranges


_PERSON_X_RE = re.compile(r"\bPersonX\b")
_PERSON_Y_RE = re.compile(r"\bPersonY\b")
_BLANK_RE = re.compile(r"_{2,}")


def load_atomic_templates() -> dict[str, str]:
    """Connective templates, one per inference dimension, from a swappable data file."""
    path = Path(__file__).parent / "data" / "atomic_templates.json"
    raw = loads(read_text(path), str(path))
    return {k.lower(): v for k, v in raw.items()}


def load_name_pool() -> list[str]:
    path = Path(__file__).parent / "data" / "neutral_names.txt"
    return [name for name in map(str.strip, read_text(path).split("\n")) if name]


def prepare_atomic(events: list[dict], name_pool: list[str], seed: int) -> list[str]:
    """Render event records into declarative sentence texts.

    Placeholder persons are replaced with names drawn deterministically
    from ``name_pool``; the two placeholders within one event always get
    distinct names.  Events that still contain unfilled blanks (``___``)
    are skipped.
    """
    if not name_pool:
        raise InputError("empty name pool")
    templates = load_atomic_templates()
    rng = random.Random(seed)
    out: list[str] = []
    for record in events:
        event = _normalize_ws(str(record["event"]))
        dimension = str(record["dimension"]).lower()
        inference = _normalize_ws(str(record["inference"]))
        if dimension not in templates:
            raise InputError(f"unknown inference dimension {record['dimension']!r}")
        name_x = rng.choice(name_pool)
        if _BLANK_RE.search(event) or not inference:
            continue
        if _PERSON_Y_RE.search(event):
            others = [n for n in name_pool if n != name_x]
            if not others:
                raise InputError("name pool too small for two distinct persons")
            name_y = rng.choice(others)
            event = _PERSON_Y_RE.sub(name_y, event)
        event = _PERSON_X_RE.sub(name_x, event)
        out.append(templates[dimension].format(event=event, x=name_x, inference=inference))
    return out


# ---------------------------------------------------------------------------
# Loading and serialization
# ---------------------------------------------------------------------------

# each raw format, with the source tag its sentences get by default
FORMATS = {"plain-lines": "plain", "titled-paragraphs": "wikihow", "atomic-events": "atomic"}


def load_corpus(
    path: str | Path,
    format: str = "plain-lines",
    *,
    seed: int = 0,
    source_tag: str | None = None,
) -> KnowledgeCorpus:
    """Read a raw knowledge source and prepare it into a corpus.

    Sentence ids number the sentences in source-file order, so loading the
    same file twice yields an identical corpus.  Every sentence gets
    ``source_tag``, or the format's default tag in :data:`FORMATS`.
    """
    path = Path(path)
    titles = paragraphs = None
    if format == "plain-lines":
        # _normalize_ws on every line, as C-level maps
        lines = read_text(path).splitlines()
        texts = [text for text in map(" ".join, map(str.split, lines)) if text]
    elif format == "titled-paragraphs":
        records = _parse_jsonl(path, required=("title", "text"))
        texts, titles, paragraphs = prepare_titled([(rec["title"], rec["text"]) for rec in records])
    elif format == "atomic-events":
        records = _parse_jsonl(path, required=("event", "dimension", "inference"))
        texts = prepare_atomic(records, load_name_pool(), seed)
    else:
        raise InputError(f"unknown corpus format {format!r}")

    n = len(texts)
    if not n:
        raise InputError(f"empty corpus: {path}")
    return KnowledgeCorpus(list(map(_make_id, range(n))), texts,
                           [source_tag or FORMATS[format]] * n, titles or [None] * n, paragraphs)


def _parse_jsonl(path: Path, required: tuple[str, ...]) -> list[dict]:
    records = []
    for lineno, rec in json_lines(path):
        if not isinstance(rec, dict) or any(not isinstance(rec.get(k), str) for k in required):
            raise InputError(
                f"{path}:{lineno}: record must have string fields {', '.join(required)}"
            )
        records.append(rec)
    return records


def save_jsonl(corpus: KnowledgeCorpus, path: str | Path) -> None:
    """Prepared-corpus interchange format: one sentence record per line.

    Each line holds the bytes ``json.dumps(..., ensure_ascii=False)`` gives
    for ``{"id", "text", "source", "title"}``, written field by field with
    the same string encoder.  A last ``{"paragraphs": [[start, end], ...]}``
    line follows when the corpus has paragraph ranges.
    """
    enc = encode_basestring
    with replacing(path) as fh:
        fh.writelines(
            f'{{"id": {enc(sid)}, "text": {enc(text)}, "source": {enc(tag)}, '
            f'"title": {"null" if title is None else enc(title)}}}\n'
            for sid, text, tag, title in zip(corpus.ids, corpus.texts, corpus.tags, corpus.titles)
        )
        if corpus.paragraphs is not None:
            fh.write(json.dumps({"paragraphs": corpus.paragraphs}) + "\n")


def load_jsonl(
    path: str | Path,
    *,
    file_sha256: bytes | None = None,
    digest: bytes = b"",
    ids: Sequence[str] = (),
) -> CorpusRows:
    """A file written by :func:`save_jsonl`, as a corpus or, when an index pins it, as rows.

    Records are the ``\\n``-separated lines; each is parsed on its own, so a
    malformed one is reported with its line number.  ``source`` defaults to
    ``"generic"`` and ``title`` to null.  The corpus's ``file_sha256`` is
    the sha256 of the file's bytes when the file has no ``\\r`` byte and its
    first n lines are its n sentence records (a paragraphs line may follow);
    otherwise it stays zeros.

    Given the ``file_sha256``, content ``digest`` and sentence ``ids`` that
    an index records, a file whose sha256 matches is not parsed: what is
    returned is a :class:`_PinnedRows`, which has only ``len``, ``digest``
    and ``at``.  A file that does not match is loaded in full.
    """
    path = Path(path)
    data = read_bytes(path)
    sha = hashlib.sha256(data).digest()
    if sha == file_sha256:
        lines = data.split(b"\n", len(ids))  # the n rows, then the rest of the file
        if len(lines) > len(ids) or len(lines) == len(ids) and lines[-1]:  # it has n lines
            return _PinnedRows(path, lines, digest, ids)
    corpus, last = _columns(path, decode(data, path))
    if last == len(corpus) and b"\r" not in data:
        corpus.file_sha256 = sha
    return corpus


def _columns(path: Path, content: str) -> tuple[KnowledgeCorpus, int]:
    """The corpus a prepared file's text holds, and the line of its last sentence record."""
    ids, texts, tags, titles = [], [], [], []
    paragraphs, paragraphs_line, last = None, 0, 0
    for lineno, rec in json_lines(path, content):
        try:
            sid, text, tag, title = _sentence_fields(rec)
        except InputError as exc:
            if type(rec) is not dict or "id" in rec or "paragraphs" not in rec:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if paragraphs is not None:
                raise InputError(f"{path}:{lineno}: second paragraphs record") from None
            paragraphs, paragraphs_line = rec["paragraphs"], lineno
            continue
        ids.append(sid)
        texts.append(text)
        tags.append(tag)
        titles.append(title)
        last = lineno
    if not ids:
        raise InputError(f"empty corpus: {path}")
    if paragraphs is not None:
        paragraphs = _paragraph_ranges(paragraphs, len(ids), path, paragraphs_line)
    try:
        return KnowledgeCorpus(ids, texts, tags, titles, paragraphs), last
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


class _PinnedRows:
    """The rows of a prepared corpus file that an index pins by its sha256.

    ``at(pos)`` parses line ``pos + 1`` alone, by :func:`load_jsonl`'s
    record rules and with its ``path:line`` errors, checks the id against
    the index's, and keeps the sentence.  ``len`` is the index's document
    count and ``digest`` the content digest it records, which the file's
    sha256 proves.  It has no columns.
    """

    def __init__(self, path: Path, lines: list[bytes], digest: bytes, ids: Sequence[str]):
        self._path, self._lines, self._ids, self.digest = path, lines, ids, digest
        self._rows: dict[int, KnowledgeSentence] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def at(self, pos: int) -> KnowledgeSentence:
        row = self._rows.get(pos)
        if row is None:
            row = self._rows[pos] = self._parse_row(pos)
        return row

    def _parse_row(self, pos: int) -> KnowledgeSentence:
        where = f"{self._path}:{pos + 1}"
        try:
            line = self._lines[pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{where}: not valid UTF-8: {exc}") from None
        rec = json_line(line, where)
        try:
            sid, text, tag, title = _sentence_fields(rec)
            if not text.strip():
                raise InputError(f"sentence {sid!r} is empty")
            if sid != self._ids[pos]:
                raise InputError(f"sentence id {sid!r} is not the index's {self._ids[pos]!r}")
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
        return KnowledgeSentence(sid, text, tag, title)


# what load_jsonl returns: attach reads only its digest, its len and at(pos)
CorpusRows = KnowledgeCorpus | _PinnedRows


def _sentence_fields(rec) -> tuple[str, str, str, str | None]:
    """id, text, source (default ``"generic"``) and title (default null) of a
    sentence record: a prepared corpus's line, or a premise in a question file."""
    try:
        sid, text = rec["id"], rec["text"]
        tag, title = rec.get("source", "generic"), rec.get("title")
    except (TypeError, KeyError):  # not an object, or no id or text
        if type(rec) is not dict:
            raise InputError("record must be a JSON object") from None
        raise InputError(f"missing field {'id' if 'id' not in rec else 'text'!r}") from None
    if not (type(sid) is str and type(text) is str and type(tag) is str
            and (title is None or type(title) is str)):
        raise InputError("id, text and source must be strings and title a string or null")
    return sid, text, tag, title


def _paragraph_ranges(value, n: int, path: Path, lineno: int) -> list[tuple[int, int]]:
    """[start, end] pairs of ints with 0 <= start < end <= n, as tuples."""
    if type(value) is list and all(
        type(r) is list and len(r) == 2 and type(r[0]) is int and type(r[1]) is int
        and 0 <= r[0] < r[1] <= n
        for r in value
    ):
        return [tuple(r) for r in value]
    raise InputError(
        f"{path}:{lineno}: paragraphs must be [start, end] integer pairs with "
        f"0 <= start < end <= {n} (the sentence count)"
    )
