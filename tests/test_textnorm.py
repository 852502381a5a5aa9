"""The tokenizer checked against the regex it stands for."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kiqa import textnorm
from kiqa.textnorm import token_set, word_tokens


def regex_tokens(text):
    """Maximal runs of Unicode letters and digits in the lowercased text."""
    return re.findall(r"[^\W_]+", text.lower())


ASCII = [chr(c) for c in range(128)]
# letters, digits, marks and separators past ASCII: "İ" lowercases to two
# code points, "ǅ" is titlecase, "٣" is an Arabic-Indic digit, and U+00A0,
# U+0085 and U+2028 are whitespace to str.split but not to the ASCII table
NON_ASCII = ["é", "ß", "İ", "ǅ", "٣", "\u00a0", "\u0085", "\u2028"]
# every ASCII code point between two letters
EDGES = "q" + "q".join(ASCII) + "q"

TEXTS = st.one_of(
    st.text(st.sampled_from(ASCII), max_size=40),
    st.text(st.sampled_from(NON_ASCII), max_size=20),
    st.text(st.sampled_from(ASCII + NON_ASCII), max_size=40),
)


@given(text=TEXTS)
@example(text=EDGES)
@example(text="Snake_case, CamelCase and x86-64!")
@example(text="İstanbul café ǅemal ٣٣ straße")
@settings(max_examples=400, deadline=None)
def test_tokens_are_the_regex_tokens(text):
    assert word_tokens(text) == regex_tokens(text)
    assert token_set(text) == set(regex_tokens(text))


# Each mutant gets exactly one byte next to a range edge wrong: a separator
# folded as if it were an uppercase letter (c | 0x20), a letter left unfolded,
# or a digit dropped.
MUTANTS = [
    ("_", "\x7f"),  # '_' | 0x20 is DEL, which str.split does not split at
    ("Z", "Z"),
    ("9", " "),
    ("@", "`"),
    ("[", "{"),
    ("`", "`"),
    ("{", "{"),
    ("\x1f", "?"),
]


@pytest.mark.parametrize("char, value", MUTANTS, ids=[repr(c) for c, _ in MUTANTS])
def test_the_oracle_catches_a_table_with_one_wrong_byte(monkeypatch, char, value):
    wrong = bytearray(textnorm._ASCII_FOLD)
    wrong[ord(char)] = ord(value)
    assert sum(a != b for a, b in zip(wrong, textnorm._ASCII_FOLD)) == 1
    monkeypatch.setattr(textnorm, "_ASCII_FOLD", bytes(wrong))
    assert word_tokens(EDGES) != regex_tokens(EDGES)
    assert token_set(EDGES) != set(regex_tokens(EDGES))
