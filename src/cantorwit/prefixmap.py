"""Prefix-exchange bijections of the Cantor space.

An element is a finite list of pairs (d, r): it sends every sequence d·x to
r·x.  The domain words and the range words each form a complete prefix code
(an antichain whose cylinders partition the space), so the map is a
homeomorphism.  Elements are stored reduced — no family of pairs
(d0, r0), ..., (d(k-1), r(k-1)) with a common parent on both sides survives,
it merges to (d, r) — which makes equality of maps a plain comparison of
pair tables: two pair lists denote the same bijection iff their reduced
forms are identical.

Composition is written like function application: (g * h)(x) = g(h(x)).
"""

from dataclasses import FrozenInstanceError
from itertools import chain

from .clopen import (ClopenSet, canonicalize, code_view, cylinder, check_word, empty_set,
                     letters, merge_siblings, off_alphabet, refine, same_arity, split_words)
from .errors import PreconditionError


class _view:
    """A view of an element computed on its first read and stored under its
    name in the instance `__dict__`, which later reads find before the
    class: a non-data descriptor, like `functools.cached_property` without
    its lock.  Views are pure functions of the element, so two threads that
    race on a first read store equal values."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class PrefixMap:
    """A reduced prefix-exchange bijection.

    :meth:`from_pairs` is the only public constructor: it checks that its
    pairs make a bijection and reduces them.  The module's own operations
    build their results from tables they know to be reduced (`_element`);
    `PrefixMap(...)` itself takes no arguments.

    An element stores its reduced pair table as `_domain`: the table and
    its keys (the domain words) in lexicographic order, the outer side of a
    product in `refine`.  The views derived from it, `pairs` (the pairs in
    length-lexicographic order of domain word), the range view, the inverse,
    the literal that `str` returns and the hash, are computed at most once
    per instance, when first read, and kept in its `__dict__` (`_view`, which
    takes no lock); nothing may write to a table or key list, and attributes
    cannot be assigned.  Equality compares the arities and the tables, and
    the hash is that of the arity and the sorted domain words (equal tables
    have equal keys), so neither builds `pairs`, and neither does `str`,
    which formats the literal from the table; `repr` reads it.
    """

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PrefixMap:
            return NotImplemented
        return self.arity == other.arity and self._domain[0] == other._domain[0]

    def __hash__(self) -> int:
        return self._hash

    @_view
    def _hash(self) -> int:
        return hash((self.arity, *self._domain[1]))

    def __repr__(self) -> str:
        return f"PrefixMap.from_pairs({self.pairs!r}, {self.arity!r})"

    @_view
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The pairs in length-lexicographic order of domain word: a stable
        sort of a copy of the lexicographic keys by length."""
        table, lex = self._domain
        words = sorted(lex, key=len)
        return tuple(zip(words, map(table.__getitem__, words)))

    @classmethod
    def from_pairs(cls, pairs, arity: int = 2) -> "PrefixMap":
        """Validate a list of (domain word, range word) pairs of `str` words
        and return its reduced form."""
        plist = list(pairs)
        if not plist:
            raise PreconditionError("a prefix map needs at least one pair")
        if off_alphabet("".join(chain.from_iterable(plist)), arity):
            for d, r in plist:
                check_word(d, arity)
                check_word(r, arity)
        dom = _check_complete_code([d for d, _ in plist], arity, "domain")
        _check_complete_code([r for _, r in plist], arity, "range")
        table = merge_siblings(dict(plist), arity)
        return _element(table, dom if len(table) == len(dom) else sorted(table), arity)

    def __str__(self) -> str:
        return self._literal

    @_view
    def _literal(self) -> str:
        """The element literal, formatted once, straight from the domain
        table: its words sorted by length (as in `pairs`, which it does not
        build), each joined with its range word.  Only the identity has an
        empty word (a complete code holding the empty word holds nothing
        else), so every other literal joins its words as they are."""
        if self.is_identity():
            return "{e->e}"
        table, lex = self._domain
        words = sorted(lex, key=len)
        return "{" + ",".join(map("->".join, zip(words, map(table.__getitem__, words)))) + "}"

    def is_identity(self) -> bool:
        """A reduced table of one pair is {e->e}: the only complete prefix
        code of one word is the empty word."""
        return len(self._domain[0]) == 1

    def __mul__(self, other: "PrefixMap") -> "PrefixMap":
        """Composition: (g * h)(x) = g(h(x))."""
        return compose(self, other)

    @_view
    def _range(self) -> tuple[dict[str, str], list[str]]:
        """The range-to-domain table and its keys (the range words) in
        lexicographic order: the inner side of a product in `refine`."""
        table = {r: d for d, r in self._domain[0].items()}
        return table, sorted(table)

    def inverse(self) -> "PrefixMap":
        return self._inverse

    @_view
    def _inverse(self) -> "PrefixMap":
        """The inverse, linked both ways: its `_domain` is this element's
        `_range`, its `_range` is this element's `_domain` (the same table
        and keys, so an inverse used as an inner factor builds no table),
        and its inverse is this element."""
        inv = _element(*self._range, self.arity)
        inv.__dict__.update(_range=self._domain, _inverse=self)
        return inv

    def __pow__(self, n: int) -> "PrefixMap":
        """Repeated squaring: O(log |n|) compositions; the product starts
        from the identity, which `compose` drops."""
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = identity(self.arity)
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def restrict(self, region: ClopenSet) -> list[tuple[str, str]]:
        """Pieces (w, image of w) refining the map over `region`.

        The returned domain words form an antichain whose union is the
        region; images are the corresponding range words.
        """
        same_arity(self, region)
        return list(refine(code_view(region.code), self._domain).items())

    def image(self, region: ClopenSet) -> ClopenSet:
        return canonicalize([im for _, im in self.restrict(region)], self.arity)

    def fixes_pointwise(self, region: ClopenSet) -> bool:
        """True iff every point of `region` is fixed.

        A pair (d, r) with d != r has at most one fixed point in its domain
        cylinder, so it moves points inside any cylinder meeting the region.
        """
        return all(w == im for w, im in self.restrict(region))

    def in_rist(self, region: ClopenSet) -> bool:
        """Membership in the rigid stabiliser: fixes the complement pointwise."""
        return self.fixes_pointwise(region.complement())

    def moved_cylinder(self) -> ClopenSet:
        """A cylinder Z with g(Z) disjoint from Z.

        Takes the first moved pair in canonical order: the shortest moved
        domain word, the first of its length in the lexicographic key list
        (`min` keeps the first of equal keys), so `pairs` is not built.  A
        prefix-incomparable pair gives Z = [d] directly; for a comparable
        pair with excess u on either side, Z = [d·w] with the letter
        w != u[0] works, since the image [r·w] then differs from [d·w] at
        the first excess position.
        """
        table, lex = self._domain
        d = min((d for d in lex if table[d] != d), key=len, default=None)
        if d is None:
            raise PreconditionError("the identity moves no cylinder")
        r = table[d]
        if not d.startswith(r) and not r.startswith(d):
            return cylinder(d, self.arity)
        u = r[len(d):] if r.startswith(d) else d[len(r):]
        w = "0" if u[0] != "0" else "1"
        return cylinder(d + w, self.arity)


def identity(arity: int = 2) -> PrefixMap:
    letters(arity)
    return _element({"": ""}, [""], arity)


def _check_complete_code(words: list[str], arity: int, side: str) -> list[str]:
    """The words in lexicographic order, once they are checked to form a
    complete prefix code."""
    # in lexicographic order the words extending a word follow it directly,
    # so an antichain check needs only neighbours (a duplicate is a prefix too)
    srt = sorted(words)
    if any(map(str.startswith, srt[1:], srt)):
        a, b = next((a, b) for a, b in zip(srt, srt[1:]) if b.startswith(a))
        raise PreconditionError(f"{side} words overlap: {a!r} is a prefix of {b!r}")
    if not _fills_space(map(len, srt), arity):
        raise PreconditionError(f"incomplete {side} code")
    return srt


def _fills_space(lengths, arity: int) -> bool:
    """Kraft's equality, the sum of arity**-n over the word lengths n equal
    to 1, which an antichain meets exactly when its cylinders cover the
    space.

    Folded in small integers from the deepest level up: the words counted
    at a level, its own and those carried up from below, must make whole
    sibling families of `arity`, each of which carries one parent word to
    the level above, and the root must end up with exactly one.  A count
    that is not divisible fails at once, and a carry shrinks by the factor
    `arity` on every level without words, so the fold takes time linear in
    the number of words however deep they are."""
    lengths = sorted(lengths, reverse=True)
    lengths.append(0)  # the root: counts the word carried up to it, plus one
    carry, level = 0, lengths[0]
    for n in lengths:
        while level > n:
            if carry % arity:
                return False
            carry //= arity
            level -= 1
        carry += 1
    return carry == 2


def compose(first: PrefixMap, *rest: PrefixMap) -> PrefixMap:
    """first·rest[0]·rest[1]·…, reduced step by step from the left: each
    step is the common refinement (`refine`) of the next factor's cached
    range view and the reduced product so far (`first`'s cached domain
    view, then each step's table with its keys sorted), and its sibling
    families are merged from the seeds that `refine` recorded.  Both
    tables of every step are reduced, so only pieces on equal words can
    start a family (see `refine`).  The product keeps its reduced table
    with the keys sorted as its domain view, so a product that has it as
    its outer factor sorts nothing on that side.

    The identity is the neutral factor: once every factor's arity is
    checked, identity factors are dropped, so a lone remaining factor is
    returned itself, and `first` when all of them are identities.  The
    filtered list is built only when some factor is the identity; the
    factors stay a tuple otherwise."""
    factors = (first, *rest)
    arity = same_arity(*factors)
    for g in factors:
        if g.is_identity():
            factors = [f for f in factors if not f.is_identity()] or [first]
            break
    if len(factors) < 2:
        return factors[0]
    view = factors[0]._domain
    for g in factors[1:]:
        seeds: list[str] = []
        table = merge_siblings(refine(g._range, view, seeds), arity, seeds)
        view = table, sorted(table)
    return _element(*view, arity)


def _element(table: dict[str, str], lex: list[str], arity: int) -> PrefixMap:
    """The element with the reduced pair table `table`, whose keys `lex`
    holds in lexicographic order: `(table, lex)` is its `_domain`, which
    nothing may write to.  It checks and sorts nothing."""
    element = object.__new__(PrefixMap)
    element.__dict__.update(_domain=(table, lex), arity=arity)
    return element


def matched_pairs(dom, ran, arity: int) -> list[tuple[str, str]]:
    """Pair two antichains order-wise after splitting to a common size.

    Splitting a word adds arity-1 words, so the sizes must agree mod
    arity-1 (always true for arity 2); both sides must be non-empty or both
    empty.  The antichains (`.code` tuples) are taken as given, not copied.
    """
    if (len(dom) == 0) != (len(ran) == 0):
        raise PreconditionError("one side of the completion is empty, the other is not")
    if not dom:
        return []
    if (len(dom) - len(ran)) % (arity - 1) != 0:
        raise PreconditionError(
            f"infeasible completion: {len(dom)} vs {len(ran)} words, arity {arity}")
    size = max(len(dom), len(ran))
    return list(zip(split_words(dom, size, arity), split_words(ran, size, arity)))


def onto_transporter(src: ClopenSet, dst: ClopenSet) -> PrefixMap:
    """A bijection mapping `src` exactly onto `dst`, completed
    length-lexicographically off `src`.  `matched_pairs` refuses a side
    that is empty against one that is not."""
    k = same_arity(src, dst)
    pairs = matched_pairs(src.code, dst.code, k)
    pairs += matched_pairs(src.complement().code, dst.complement().code, k)
    return PrefixMap.from_pairs(pairs, k)


def sigma_swap(g: PrefixMap, region: ClopenSet) -> PrefixMap:
    """The involution acting as g on `region`, g^-1 on its image, identity
    elsewhere; requires the region and its image to be disjoint.  See
    `_swap`, which also returns the image and the support."""
    return _swap(g, region)[0]


def _swap(g: PrefixMap, region: ClopenSet) -> tuple[PrefixMap, ClopenSet, ClopenSet]:
    """(σ, g(region), region ∪ g(region)): the swap `sigma_swap` returns
    with the image and the union it computes on the way, for callers that
    need them too.  The map is restricted to the region once, and the image
    is read off those pieces."""
    forward = g.restrict(region)
    g_region = canonicalize([im for _, im in forward], g.arity)
    if not region.disjoint(g_region):
        raise PreconditionError("swap region overlaps its image")
    both = region.union(g_region)
    pairs = forward + [(im, w) for w, im in forward]
    pairs += [(w, w) for w in both.complement().code]
    return PrefixMap.from_pairs(pairs, g.arity), g_region, both


def patch(constraints) -> PrefixMap:
    """Assemble a bijection agreeing with g_i on each region C_i.

    `constraints` is a sequence of (ClopenSet, PrefixMap) of one arity.
    The regions must be pairwise disjoint and so must the images g_i(C_i):
    each is checked against the union of those before it, the image read
    off the one restriction of g_i to C_i.  The behaviour off the regions
    is the deterministic length-lexicographic completion of the leftover
    domain onto the leftover range.
    """
    constraints = list(constraints)
    if not constraints:
        raise PreconditionError("patch needs at least one constraint")
    arity = constraints[0][1].arity
    pinned: list[tuple[str, str]] = []
    dom = ran = empty_set(arity)
    for region, g in constraints:
        if not dom.disjoint(region):
            raise PreconditionError("patch regions overlap")
        pieces = g.restrict(region)
        img = canonicalize([im for _, im in pieces], arity)
        if not ran.disjoint(img):
            raise PreconditionError("patch images overlap")
        dom, ran = dom.union(region), ran.union(img)
        pinned += pieces
    pinned += matched_pairs(dom.complement().code, ran.complement().code, arity)
    return PrefixMap.from_pairs(pinned, arity)
