"""Shared text normalization used by indexing, re-ranking and reports.

A token is a run of Unicode letters and digits, lowercased: the regex
``[^\\W_]+`` over ``text.lower()``.  ASCII text takes one ``_ASCII_FOLD``
byte-table pass instead (``A``-``Z`` to ``a``-``z``, ``a``-``z`` and ``0``-``9``
kept, any other byte a space) and a whitespace split.  The tokens are the
same: for ASCII, ``[^\\W_]`` is exactly ``[A-Za-z0-9]`` and ``lower()``
changes only ``A``-``Z``.
"""

import re

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ASCII_FOLD = bytes(ord(ch.lower()) if ch.isascii() and ch.isalnum() else 0x20
                    for ch in map(chr, range(256)))


def word_tokens(text: str) -> list[str]:
    """Lowercase alphanumeric tokens; everything else is a separator."""
    if text.isascii():
        return text.encode().translate(_ASCII_FOLD).decode().split()
    return _TOKEN_RE.findall(text.lower())


def token_set(text: str) -> set[str]:
    return set(word_tokens(text))
