"""Witness constructors for compressibility and wandering dynamics.

Everything here returns explicit prefix maps whose postconditions are
checkable with the clopen-set algebra: a transporter squeezing one clopen
set inside another, an element whose integer powers move a region to
pairwise disjoint images with a trap set certifying it, the two-swap
construction compressing a disjoint union into its first part, and a
minimal 3-element cover with private witness cylinders.
"""

from typing import NamedTuple

from .clopen import ClopenSet, canonicalize, cylinder, letters, same_arity, split_words
from .errors import PreconditionError
from .prefixmap import PrefixMap, compose, identity, onto_transporter, sigma_swap


def transporter(src: ClopenSet, dst: ClopenSet) -> PrefixMap:
    """An element h with h(src) contained in dst.

    The target is carved out of dst's code: split it until at least
    |code(src)| words are available (one more than that if dst is the whole
    space, so the image never exhausts it) and map src onto the first
    |code(src)| words with `onto_transporter`, which pairs src's code with
    those words order-wise and completes length-lexicographically.
    """
    k = same_arity(src, dst)
    if src.is_empty() or dst.is_empty():
        raise PreconditionError("transporter needs non-empty source and target")
    if src.is_full():
        if dst.is_full():
            return identity(k)
        raise PreconditionError("the whole space can only be transported onto itself")
    n_src = len(src.code)
    need = n_src + 1 if dst.is_full() else n_src
    m = len(dst.code)
    if m < need:
        m += -(-(need - m) // (k - 1)) * (k - 1)
    return onto_transporter(src, canonicalize(split_words(dst.code, m, k)[:n_src], k))


def wandering_base(arity: int = 2) -> tuple[PrefixMap, ClopenSet]:
    """The fixed base element g0 and its wandering cylinder Z0 = [01].

    g0 contracts into [0...] and expands out of the top letter, so the
    orbit of Z0 consists of the pairwise incomparable cylinders
    [0^n 01] (forward) and [(k-1)^(n-1) 1] (backward).  g0 sends 0w to
    00w, so [00] is a trap set for Z0 (see `wanders`).
    """
    alpha = letters(arity)
    top = alpha[-1]
    pairs = [("0", "00")]
    pairs += [(alpha[j], "0" + alpha[j]) for j in range(1, arity - 1)]
    pairs += [(top + "0", "0" + top)]
    pairs += [(top + alpha[j], alpha[j]) for j in range(1, arity)]
    return PrefixMap.from_pairs(pairs, arity), cylinder("01", arity)


def wandering_witness(region: ClopenSet) -> tuple[PrefixMap, ClopenSet]:
    """An element g and a trap set P certifying that the region wanders
    under g: `wanders(g, region, P)` holds.

    Conjugates the fixed base element by a transporter f carrying the
    region into the base wandering cylinder; P is the pullback f^-1([00])
    of the base trap set.
    """
    if not region.is_proper():
        raise PreconditionError("wandering witness needs a proper non-empty region")
    g0, z0 = wandering_base(region.arity)
    f = transporter(region, z0)
    f_inv = f.inverse()
    return compose(f_inv, g0, f), f_inv.image(cylinder("00", region.arity))


def wanders(g: PrefixMap, region: ClopenSet, trap: ClopenSet) -> bool:
    """True iff region ∩ trap = ∅, g(region) ⊆ trap and g(trap) ⊆ trap,
    so that the trap set certifies that the images g^n(region) over all
    integers n are pairwise disjoint.

    Then g^n(region) ⊆ trap for every n >= 1, so for m < n the images
    g^m(region) and g^n(region) meet in g^m(region ∩ g^(n-m)(region)) = ∅.

    >>> g0, z0 = wandering_base(2)
    >>> wanders(g0, z0, cylinder("00", 2))
    True
    >>> swap = PrefixMap.from_pairs([("0", "1"), ("1", "0")], 2)
    >>> wanders(swap, cylinder("0", 2), cylinder("1", 2))
    False
    """
    return (region.disjoint(trap) and g.image(region).subset(trap)
            and g.image(trap).subset(trap))


def join_compression(part_a: ClopenSet, part_b: ClopenSet) -> PrefixMap:
    """An element mapping the disjoint union A ∪ B into A.

    Requires a non-empty complement W of the union.  Built from three
    transporters: g1 carries A into W, g2 and g3 carry A and B into
    disjoint halves of g1(A), the first of the cylinders that
    `two_disjoint_cylinders` finds there and the rest; the result is
    g1^-1 · σ(g2, A) · σ(g3, B).
    """
    same_arity(part_a, part_b)
    if part_a.is_empty() or part_b.is_empty():
        raise PreconditionError("join compression needs non-empty parts")
    if not part_a.disjoint(part_b):
        raise PreconditionError("parts overlap")
    rest = part_a.union(part_b).complement()
    if rest.is_empty():
        raise PreconditionError("the union leaves no room to move into")
    g1 = transporter(part_a, rest)
    landing = g1.image(part_a)
    half_a = two_disjoint_cylinders(landing)[0]
    half_b = landing.intersect(half_a.complement())
    g2 = transporter(part_a, half_a)
    g3 = transporter(part_b, half_b)
    return compose(g1.inverse(), sigma_swap(g2, part_a), sigma_swap(g3, part_b))


class TriCover(NamedTuple):
    """A minimal 3-element cover J1, J2, J3 of the space with private
    witness sets U_i ⊆ J_i disjoint from the other two members."""

    cover: tuple[ClopenSet, ClopenSet, ClopenSet]
    privates: tuple[ClopenSet, ClopenSet, ClopenSet]

    @property
    def members(self) -> tuple[ClopenSet, ...]:
        """J1, J2, J3, U1, U2, U3: the positions that claim indices name."""
        return self.cover + self.privates


def min_cover_3(arity: int = 2) -> TriCover:
    """The fixed minimal 3-cover with private cylinders.

    For arity 2 the constants are J1={00,110}, J2={01,111}, J3={10,11}
    with U1={00}, U2={01}, U3={10}.  For larger arities the privates are
    the depth-2 cylinders [00], [01], [02] and the remaining depth-2
    cylinders are distributed round-robin.
    """
    if arity == 2:
        return TriCover((canonicalize(["00", "110"], 2),
                         canonicalize(["01", "111"], 2),
                         canonicalize(["10", "11"], 2)),
                        (cylinder("00", 2),
                         cylinder("01", 2),
                         cylinder("10", 2)))
    alpha = letters(arity)
    privates = ["00", "01", "02"]
    rest = sorted(a + b for a in alpha for b in alpha if a + b not in privates)
    cover = tuple(canonicalize([w, *rest[i::3]], arity) for i, w in enumerate(privates))
    return TriCover(cover, tuple(cylinder(w, arity) for w in privates))


def two_disjoint_cylinders(region: ClopenSet) -> tuple[ClopenSet, ClopenSet]:
    """Two disjoint cylinders inside a non-empty clopen set."""
    if region.is_empty():
        raise PreconditionError("no room for spare cylinders")
    k = region.arity
    if len(region.code) >= 2:
        return cylinder(region.code[0], k), cylinder(region.code[1], k)
    w = region.code[0]
    return cylinder(w + "0", k), cylinder(w + "1", k)
