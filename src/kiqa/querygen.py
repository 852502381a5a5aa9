"""Retrieval query generation from a question and one answer option.

The query is the token bag of the item's question text (context and
question) and the option, with stopwords removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .textio import read_text
from .textnorm import word_tokens

if TYPE_CHECKING:  # pragma: no cover
    from .datasets import McqItem


class EmptyQueryError(ValueError):
    """No terms survived stopword removal; the option retrieves nothing."""


@dataclass(frozen=True)
class Query:
    terms: tuple[str, ...]  # ordered bag: duplicates carry weight


def load_stopwords() -> frozenset[str]:
    path = Path(__file__).parent / "data" / "stopwords.txt"
    words = map(str.strip, read_text(path).split("\n"))
    return frozenset(word.lower() for word in words if word)


@dataclass
class QueryGenConfig:
    stopwords: frozenset[str] = field(default_factory=load_stopwords)


def generate_query(item: "McqItem", option_index: int, config: QueryGenConfig) -> Query:
    """Build the retrieval query for one (item, option) pair.

    Raises :class:`EmptyQueryError` when no token survives stopword removal.
    """
    if not 0 <= option_index < len(item.options):
        raise IndexError(
            f"option index {option_index} out of range for {len(item.options)} options"
        )
    tokens = word_tokens(f"{item.question_text} {item.options[option_index]}")
    terms = [t for t in tokens if t not in config.stopwords]
    if not terms:
        raise EmptyQueryError(f"empty query for item {item.id!r} option {option_index}")
    return Query(terms=tuple(terms))
