"""Parsers for the text literal grammars.

Clopen sets are written `[w1,w2,...]` with `[]` the empty set and `[e]`
the whole space; elements are written `{d1->r1,d2->r2,...}` with `e`
denoting the empty word.  Formatting is the __str__ of the value types;
parse(format(v)) == v and format(parse(text)) is the canonical form.
"""

import re

from .clopen import ALPHABET, ClopenSet, canonicalize
from .errors import ParseError, PreconditionError, ArityMismatchError
from .prefixmap import PrefixMap


# the body of a valid element literal: pairs of words, each `e` or digits
_WORD = r"(?:e|[0-9]+)"
_PAIRS = re.compile(rf"{_WORD}->{_WORD}(?:,{_WORD}->{_WORD})*")


def _strip(text: str) -> str:
    return "".join(text.split())


def _parse_word(tok: str, pos: int) -> str:
    if tok == "e":
        return ""
    if not tok:
        raise ParseError("empty word token; write 'e' for the empty word", pos)
    if tok.strip(ALPHABET):
        ch = next(ch for ch in tok if ch not in ALPHABET)
        raise ParseError(f"invalid symbol {ch!r} in word", pos)
    return tok


def parse_clopen(text: str, arity: int = 2) -> ClopenSet:
    s = _strip(text)
    if not s.startswith("[") or not s.endswith("]"):
        raise ParseError("clopen literal must be bracketed like [0,10]", 0)
    body = s[1:-1]
    words = []
    pos = 1
    for tok in body.split(",") if body else ():
        words.append(_parse_word(tok, pos))
        pos += len(tok) + 1
    try:
        return canonicalize(words, arity)
    except ArityMismatchError as exc:
        raise ParseError(str(exc)) from exc


def parse_element(text: str, arity: int = 2) -> PrefixMap:
    s = _strip(text)
    if not s.startswith("{") or not s.endswith("}"):
        raise ParseError("element literal must be braced like {0->1,1->0}", 0)
    body = s[1:-1]
    if not _PAIRS.fullmatch(body):
        _refuse(body)
    # a valid body has `e` only as a whole word, so it is split in C
    words = body.replace("e", "").replace("->", ",").split(",")
    try:
        return PrefixMap.from_pairs(zip(words[::2], words[1::2]), arity)
    except (PreconditionError, ArityMismatchError) as exc:
        raise ParseError(str(exc)) from exc


def _refuse(body: str):
    """Raise the ParseError of the first bad token of an element body that
    the one-pass match refused; the match accepts exactly the bodies whose
    every token is good, so this only reports."""
    if not body:
        raise ParseError("an element needs at least one pair", 1)
    pos = 1
    for tok in body.split(","):
        if "->" not in tok:
            raise ParseError(f"pair {tok!r} is missing '->'", pos)
        d, _, r = tok.partition("->")
        _parse_word(d, pos)
        _parse_word(r, pos + len(d) + 2)
        pos += len(tok) + 1
