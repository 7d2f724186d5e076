"""Prefix-exchange bijections of the Cantor space.

An element is a finite list of pairs (d, r): it sends every sequence d·x to
r·x.  The domain words and the range words each form a complete prefix code
(an antichain whose cylinders partition the space), so the map is a
homeomorphism.  Elements are stored reduced — no family of pairs
(d0, r0), ..., (d(k-1), r(k-1)) with a common parent on both sides survives,
it merges to (d, r) — and sorted by domain word, which makes equality of
maps a plain tuple comparison: two pair lists denote the same bijection iff
their reduced forms are identical.

Composition is written like function application: (g * h)(x) = g(h(x)).
"""

from dataclasses import dataclass
from itertools import chain

from .clopen import (ClopenSet, canonicalize, cylinder, check_word, lenlex_sorted, letters,
                     merge_siblings, refine, split_words)
from .errors import ArityMismatchError, PreconditionError


@dataclass(frozen=True)
class PrefixMap:
    """A reduced, domain-sorted prefix-exchange bijection.

    Build instances through :meth:`from_pairs` (or the module helpers);
    the constructor trusts its arguments.
    """

    pairs: tuple[tuple[str, str], ...]
    arity: int = 2

    @classmethod
    def from_pairs(cls, pairs, arity: int = 2) -> "PrefixMap":
        """Validate a pair list and return its reduced form."""
        plist = [(str(d), str(r)) for d, r in pairs]
        if not plist:
            raise PreconditionError("a prefix map needs at least one pair")
        if "".join(chain.from_iterable(plist)).strip(letters(arity)):
            for d, r in plist:
                check_word(d, arity)
                check_word(r, arity)
        _check_complete_code([d for d, _ in plist], arity, "domain")
        _check_complete_code([r for _, r in plist], arity, "range")
        return cls(_reduce(dict(plist), arity), arity)

    def __str__(self) -> str:
        return "{" + ",".join(f"{d if d else 'e'}->{r if r else 'e'}" for d, r in self.pairs) + "}"

    def _check_same(self, other: "PrefixMap") -> None:
        if self.arity != other.arity:
            raise ArityMismatchError(f"mixed arities {self.arity} and {other.arity}")

    def is_identity(self) -> bool:
        return self.pairs == (("", ""),)

    def __mul__(self, other: "PrefixMap") -> "PrefixMap":
        """Composition: (g * h)(x) = g(h(x))."""
        return compose(self, other)

    def inverse(self) -> "PrefixMap":
        return PrefixMap(_sorted_pairs({r: d for d, r in self.pairs}), self.arity)

    def __pow__(self, n: int) -> "PrefixMap":
        """Repeated squaring: O(log |n|) compositions."""
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
        if self.arity != region.arity:
            raise ArityMismatchError("region arity differs from map arity")
        g = dict(self.pairs)
        return [(w, g[d] + w[len(d):]) for d, _, w in refine(g, region.code)]

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

        Takes the first moved pair in canonical order.  A prefix-incomparable
        pair gives Z = [d] directly; for a comparable pair with excess u on
        either side, Z = [d·w] with the letter w != u[0] works, since the
        image [r·w] then differs from [d·w] at the first excess position.
        """
        moved = [(d, r) for d, r in self.pairs if d != r]
        if not moved:
            raise PreconditionError("the identity moves no cylinder")
        d, r = moved[0]
        if not d.startswith(r) and not r.startswith(d):
            return cylinder(d, self.arity)
        u = r[len(d):] if r.startswith(d) else d[len(r):]
        w = "0" if u[0] != "0" else "1"
        return cylinder(d + w, self.arity)


def identity(arity: int = 2) -> PrefixMap:
    return PrefixMap((("", ""),), arity)


def _check_complete_code(words: list[str], arity: int, side: str) -> None:
    # in lexicographic order the words extending a word follow it directly,
    # so an antichain check needs only neighbours (a duplicate is a prefix too)
    srt = sorted(words)
    for a, b in zip(srt, srt[1:]):
        if b.startswith(a):
            raise PreconditionError(f"{side} words overlap: {a!r} is a prefix of {b!r}")
    # the sorted cylinders must tile the space left to right: the first one
    # starts at 0^inf, each next one starts at nxt·0^inf, the point right
    # after w·top^inf, and the last one ends at top^inf
    top = letters(arity)[-1]
    nxt = ""
    for w in srt:
        if nxt is None or not w.startswith(nxt) or w[len(nxt):].strip("0"):
            raise PreconditionError(f"incomplete {side} code")
        stem = w.rstrip(top)
        nxt = stem[:-1] + chr(ord(stem[-1]) + 1) if stem else None
    if nxt is not None:
        raise PreconditionError(f"incomplete {side} code")


def compose(first: PrefixMap, *rest: PrefixMap) -> PrefixMap:
    """first·rest[0]·rest[1]·…: the tables are composed unreduced left to
    right and the product is reduced once."""
    table = first.pairs
    for g in rest:
        first._check_same(g)
        table = _compose(table, g.pairs)
    return PrefixMap(_reduce(dict(table), first.arity), first.arity)


def _compose(g_pairs, h_pairs) -> dict[str, str]:
    """The unreduced table of g·h from the (d, r) pairs of g and h, reduced
    or not: one pair for each piece of the common refinement of h's range
    code and g's domain code."""
    h_inv = {r: d for d, r in h_pairs}
    g = dict(g_pairs)
    return {h_inv[x] + w[len(x):]: g[y] + w[len(y):] for x, y, w in refine(h_inv, g)}


def _reduce(table: dict[str, str], arity: int) -> tuple[tuple[str, str], ...]:
    return _sorted_pairs(merge_siblings(table, arity))


def _sorted_pairs(table: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple([(d, table[d]) for d in lenlex_sorted(table)])


def matched_pairs(dom_words, ran_words, arity: int) -> list[tuple[str, str]]:
    """Pair two antichains order-wise after splitting to a common size.

    Splitting a word adds arity-1 words, so the sizes must agree mod
    arity-1 (always true for arity 2); both sides must be non-empty or both
    empty.
    """
    dom = list(dom_words)
    ran = list(ran_words)
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
    length-lexicographically off `src`."""
    if src.arity != dst.arity:
        raise ArityMismatchError("mixed arities")
    if not src.is_empty() and dst.is_empty() or src.is_empty() and not dst.is_empty():
        raise PreconditionError("cannot map a non-empty set onto an empty one")
    pairs = matched_pairs(src.code, dst.code, src.arity)
    pairs += matched_pairs(src.complement().code, dst.complement().code, src.arity)
    return PrefixMap.from_pairs(pairs, src.arity)


def sigma_swap(g: PrefixMap, region: ClopenSet) -> PrefixMap:
    """The involution acting as g on `region`, g^-1 on its image, identity
    elsewhere; requires the region and its image to be disjoint."""
    g_region = g.image(region)
    if not region.disjoint(g_region):
        raise PreconditionError("swap region overlaps its image")
    forward = g.restrict(region)
    pairs = list(forward) + [(im, w) for w, im in forward]
    rest = region.union(g_region).complement()
    pairs += [(w, w) for w in rest.code]
    return PrefixMap.from_pairs(pairs, g.arity)


def patch(constraints) -> PrefixMap:
    """Assemble a bijection agreeing with g_i on each region C_i.

    `constraints` is a sequence of (ClopenSet, PrefixMap).  The regions must
    be pairwise disjoint and so must the images g_i(C_i); the behaviour off
    the regions is the deterministic length-lexicographic completion of the
    leftover domain onto the leftover range.
    """
    constraints = list(constraints)
    if not constraints:
        raise PreconditionError("patch needs at least one constraint")
    arity = constraints[0][1].arity
    pinned: list[tuple[str, str]] = []
    regions: list[ClopenSet] = []
    images: list[ClopenSet] = []
    for region, g in constraints:
        if g.arity != arity or region.arity != arity:
            raise ArityMismatchError("mixed arities in patch constraints")
        for seen in regions:
            if not seen.disjoint(region):
                raise PreconditionError("patch regions overlap")
        img = g.image(region)
        for seen in images:
            if not seen.disjoint(img):
                raise PreconditionError("patch images overlap")
        regions.append(region)
        images.append(img)
        pinned.extend(g.restrict(region))
    dom_left = _union_all(regions, arity).complement()
    ran_left = _union_all(images, arity).complement()
    pinned += matched_pairs(dom_left.code, ran_left.code, arity)
    return PrefixMap.from_pairs(pinned, arity)


def _union_all(sets: list[ClopenSet], arity: int) -> ClopenSet:
    words: list[str] = []
    for s in sets:
        words.extend(s.code)
    return canonicalize(words, arity)
