"""Finite words and canonical clopen subsets of the Cantor space.

Points of the space are infinite sequences over the alphabet {0, ..., k-1};
a finite word w names the cylinder of all sequences extending w, and the
empty word names the whole space.  Clopen subsets are exactly the finite
unions of cylinders.  Every clopen set has a unique canonical code: an
antichain of words (no word a prefix of another) in which no full sibling
family d0, ..., d(k-1) survives (such a family merges to d), listed in
length-lexicographic order.  Canonical codes make equality, hashing and
printing of clopen sets plain tuple operations.

>>> canonicalize({"00", "01", "10"}).code
('0', '10')
>>> cylinder("01").complement().code
('1', '00')
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .errors import ArityMismatchError, PreconditionError

ALPHABET = "0123456789"
ARITIES = range(2, len(ALPHABET) + 1)  # the legal alphabet sizes
_LETTERS = {k: ALPHABET[:k] for k in ARITIES}
_AFTER = chr(ord(ALPHABET[-1]) + 1)


def letters(arity: int) -> str:
    """The alphabet for a given arity, as a string of digit symbols, read
    from a table built once.  Only an `int` in `ARITIES` has one: any other
    value, `2.0` and `True` included, raises ArityMismatchError naming it
    by `repr`, so the string "2" reads as '2'."""
    alpha = _LETTERS.get(arity) if arity.__class__ is int else None
    if alpha is None:
        raise ArityMismatchError(
            f"arity must be between {ARITIES[0]} and {ARITIES[-1]}, got {arity!r}")
    return alpha


def same_arity(first, *rest) -> int:
    """The arity that `first` shares with every operand of `rest`, each a
    clopen set, an element or a commutator word."""
    for x in rest:
        if x.arity != first.arity:
            raise ArityMismatchError(f"mixed arities {first.arity} and {x.arity}")
    return first.arity


def off_alphabet(text: str, arity: int) -> bool:
    """Whether some symbol of `text` is not a letter of the arity: one pass
    in C that deletes the letters from the ASCII bytes of the text (any
    other symbol becomes '?') and looks for a remainder."""
    return bool(text.encode("ascii", "replace").translate(None, letters(arity).encode()))


def check_word(word: str, arity: int) -> None:
    alpha = letters(arity)
    if word.strip(alpha):
        ch = next(ch for ch in word if ch not in alpha)
        raise ArityMismatchError(f"symbol {ch!r} out of range for arity {arity} in word {word!r}")


def lenlex_sorted(words: Iterable[str]) -> list[str]:
    """The words in length-lexicographic order: a lexicographic sort, then
    a stable sort by length (two sorts in C, no Python key function)."""
    out = sorted(words)
    out.sort(key=len)
    return out


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset of the Cantor space in canonical antichain form.

    Build instances through :func:`canonicalize` (or the helpers below);
    the constructor trusts its arguments.
    """

    code: tuple[str, ...]
    arity: int = 2

    def __str__(self) -> str:
        return "[" + ",".join(w if w else "e" for w in self.code) + "]"

    def is_empty(self) -> bool:
        return not self.code

    def is_full(self) -> bool:
        return self.code == ("",)

    def is_proper(self) -> bool:
        """Non-empty and not the whole space."""
        return bool(self.code) and self.code != ("",)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        return canonicalize(self.code + other.code, same_arity(self, other))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        k = same_arity(self, other)
        return canonicalize(refine(code_view(self.code), code_view(other.code)), k)

    def complement(self) -> "ClopenSet":
        return ClopenSet(tuple(lenlex_sorted(_complement_words(self.code, self.arity))),
                         self.arity)

    def subset(self, other: "ClopenSet") -> bool:
        return self.disjoint(other.complement())

    def disjoint(self, other: "ClopenSet") -> bool:
        same_arity(self, other)
        # both codes are antichains: if a word of one extends a word x of the
        # other, the word right after x in lexicographic order does too
        srt = sorted(self.code + other.code)
        return not any(map(str.startswith, srt[1:], srt))


def _complement_words(code: tuple[str, ...], arity: int) -> list[str]:
    # code is a canonical antichain: its complement is every child p·c of a
    # proper prefix p of a code word that is not itself a prefix of a code
    # word.  Such children form an antichain, and no full sibling family
    # survives (p would have no code word below it), so no merge is needed.
    if not code:
        return [""]
    alpha = letters(arity)
    inner = {w[:i] for w in code for i in range(len(w))}
    covered = inner.union(code)
    return [q for p in inner for q in map(p.__add__, alpha) if q not in covered]


def split_words(words: Iterable[str], size: int, arity: int) -> tuple[str, ...]:
    """Refine an antichain to exactly `size` words, splitting the
    length-lexicographically last word at each step; an empty antichain
    stays empty.

    The list stays sorted without re-sorting: the popped word is the
    longest, so its children are longer than every word left, and they
    are appended in alphabet order."""
    out = lenlex_sorted(words)
    alpha = letters(arity)
    while out and len(out) < size:
        w = out.pop()
        out.extend(w + c for c in alpha)
    if len(out) != size:
        raise PreconditionError(f"infeasible size {size} for {len(out)}-word antichain")
    return tuple(out)


def canonicalize(words: Iterable[str], arity: int = 2) -> ClopenSet:
    """The unique canonical antichain denoting the same union of cylinders.

    Idempotent: canonicalize(canonicalize(S).code) == canonicalize(S).

    >>> canonicalize({"0", "01"}).code
    ('0',)
    >>> canonicalize({"00", "01", "10", "11"}).code
    ('',)
    """
    srt = sorted(set(words))
    if off_alphabet("".join(srt), arity):
        for w in srt:
            check_word(w, arity)
    # prefix absorption: in lexicographic order the words extending a word
    # directly follow it, so drop each word that extends the last word kept
    kept: list[str] = []
    for w in srt:
        if not kept or not w.startswith(kept[-1]):
            kept.append(w)
    return ClopenSet(tuple(lenlex_sorted(merge_siblings({w: w for w in kept}, arity))), arity)


def code_view(code: Iterable[str]) -> tuple[dict[str, str], list[str]]:
    """The `refine` view of a clopen code: the table mapping each word to
    itself, and the words in lexicographic order."""
    table = dict(zip(code, code))
    return table, sorted(table)


def refine(xview: tuple[dict[str, str], list[str]], yview: tuple[dict[str, str], list[str]],
           seeds: list[str] | None = None) -> dict[str, str]:
    """The common refinement of two word tables, given as views (xs, xkeys)
    and (ys, ykeys), each a table with its keys in lexicographic order: for
    each prefix-comparable pair of keys x of `xs` and y of `ys`, with meet
    w = x·u = y·v, the entry xs[x]·u -> ys[y]·v.  On two clopen codes
    (`code_view`) the keys are the meets; the unreduced table of a product
    g·h of two reduced elements is the refinement of h's range-to-domain
    view and of g's domain view.  Neither view is sorted or written here,
    so the callers pass views cached on the elements.

    One merge walk over both key lists, in whose lexicographic order the
    words extending a word directly follow it.  Equal words give one entry
    and both advance.  Otherwise the shorter word gives one entry with each
    key of the other table that extends it: those keys are a run, the
    sorted words from it up to it + _AFTER (the symbol after the alphabet),
    found by bisection.  Each word of a run starts with the shorter word,
    so its first occurrence is that prefix, and one `str.replace(prefix,
    new, 1)` writes the entry's word with the prefix swapped in one
    allocation (on the empty word it inserts at the front, which is the
    same swap).  Of an incomparable pair the smaller word can meet nothing
    further on; on two complete codes (a product) the current words always
    start at the same point of the space and are comparable.

    With a `seeds` list, the parents p of the product's pieces that may
    start a full sibling family p0 -> q0, ..., p(k-1) -> q(k-1) are appended
    to it, for `merge_siblings`.  The family is checked from its piece
    p0 -> q0, so only pieces whose words both end in 0 seed, and of those
    only the pieces on equal words x = y, with x a range word of h and y a
    domain word of g, as a full scan would: a family on unequal words would
    be a family of one reduced factor.  The two cases are symmetric:

    - x longer than y (x = y·u): q0 extends g's range word g[y] by u, so
      [q] lies in g's cylinder [g[y]], and every sibling p·c is a domain
      word of h (a shorter one would be a prefix of p0).  Pulling [q·c]
      back through that one pair of g shows that h maps p·c -> x'·c for
      one word x': a full family of h.
    - x shorter than y (y = x·u): every sibling comes through the one pair
      of h at x, and every q·c is a range word of g, so g maps y'·c -> q·c
      for one word y': a full family of g.

    Merges cascade in `merge_siblings` as in a full scan."""
    (xs, xkeys), (ys, ykeys) = xview, yview
    nx, ny = len(xkeys), len(ykeys)
    record = seeds is not None
    table = {}
    i = j = 0
    while i < nx and j < ny:
        x, y = xkeys[i], ykeys[j]
        if x == y:
            d, r = xs[x], ys[y]
            table[d] = r
            i += 1
            j += 1
            if record and d[-1:] == "0" and r[-1:] == "0":
                seeds.append(d[:-1])
        elif x.startswith(y):
            end = bisect_left(xkeys, y + _AFTER, i)
            r = ys[y]
            for x in xkeys[i:end]:
                table[xs[x]] = x.replace(y, r, 1)
            i = end
            j += 1
        elif y.startswith(x):
            end = bisect_left(ykeys, x + _AFTER, j)
            d = xs[x]
            for y in ykeys[j:end]:
                table[y.replace(x, d, 1)] = ys[y]
            j = end
            i += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return table


def merge_siblings(table: dict[str, str], arity: int,
                   work: list[str] | None = None) -> dict[str, str]:
    """Merge each full sibling family p0 -> q0, ..., p(k-1) -> q(k-1) of a
    word table to p -> q, in place.  A clopen code is the table mapping
    each of its words to itself.

    The worklist holds parents p, each checked once from p0: first the
    parents in `work` (the list is consumed), or without it every p whose
    p0 maps to a word ending in 0, then, after each merge, the parent of p,
    the only family the new word p can complete.  An entry whose p0 has
    gone is stale and skipped."""
    alpha = letters(arity)
    rest = alpha[1:]
    if work is None:
        work = [d[:-1] for d, r in table.items() if d[-1:] == "0" and r[-1:] == "0"]
    while work:
        p = work.pop()
        r = table.get(p + "0")
        if not r or r[-1] != "0":
            continue
        q = r[:-1]
        for c in rest:
            if table.get(p + c) != q + c:
                break
        else:
            for c in alpha:
                del table[p + c]
            table[p] = q
            if p:
                work.append(p[:-1])
    return table


def cylinder(word: str, arity: int = 2) -> ClopenSet:
    check_word(word, arity)
    return ClopenSet((word,), arity)


def whole_space(arity: int = 2) -> ClopenSet:
    letters(arity)
    return ClopenSet(("",), arity)


def empty_set(arity: int = 2) -> ClopenSet:
    letters(arity)
    return ClopenSet((), arity)
