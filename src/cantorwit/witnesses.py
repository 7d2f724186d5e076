"""Certificate types and witness-producing constructions.

A NormalWord is a product of conjugates of a fixed base element n^{±1}; it
certifies membership in the normal closure of n.  A CommutatorWord is a
product of commutators [x, y] = x y x^-1 y^-1; it certifies membership in
the derived subgroup.  Both evaluate to prefix maps, and equality of
reduced forms is the verification criterion everywhere.

The constructions all follow one theme: an element with clopen support
bound S is insensitive to what a conjugator does off S, so a raw conjugator
can be traded for one that agrees with it pointwise on S and carries a
commutator-word certificate.  derived_conjugator produces such elements
(two commutators suffice, one per factor of a two-piece splitting), and the
witness builders below compose them into full certificates.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .clopen import ClopenSet, canonicalize, cylinder, empty_set, letters, same_arity, whole_space
from .compression import min_cover_3, transporter, two_disjoint_cylinders, wandering_witness
from .errors import ArityMismatchError, ParseError, PreconditionError, VerificationError
from .literals import _strip, parse_element
from .prefixmap import PrefixMap, _swap, compose, identity, onto_transporter, patch


# The most element text, in characters, that the index references of one
# simple witness may name in total: each index is read as its literal, so
# a short file could otherwise ask for the work of a huge one.
MAX_REFERENCED_TEXT = 1 << 24


# ---------------------------------------------------------------------------
# certificate types


@dataclass(frozen=True)
class NormalWord:
    """Product of conjugates c·base^e·c^-1, composed left to right."""

    base: PrefixMap
    letters: tuple[tuple[PrefixMap, int], ...] = ()

    def __post_init__(self):
        if self.base.is_identity():
            raise PreconditionError("a normal word needs a non-identity base")
        if any(type(e) is not int or e not in (1, -1) for _, e in self.letters):
            raise PreconditionError("letter exponents must be the integers +1 or -1")

    def evaluate(self) -> PrefixMap:
        """The product, telescoped: c1·n^e1·c1^-1·c2·n^e2·…·cL^-1 is composed
        as c1·n^e1·(c1^-1·c2)·n^e2·…·n^eL·cL^-1, each bracket first, so
        consecutive conjugators cancel down to a small factor before the
        running product meets them (3L-1 compositions, as letter by letter).
        Every conjugator's arity is checked against the base's first, as
        the letter-by-letter product would check it; `compose` drops the
        identity factors."""
        conjs = [conj for conj, _ in self.letters]
        arity = same_arity(self.base, *conjs)
        if not conjs:
            return identity(arity)
        power = {1: self.base, -1: self.base.inverse()}
        factors = [conjs[0], power[self.letters[0][1]]]
        for prev, (conj, exp) in zip(conjs, self.letters[1:]):
            factors += compose(prev.inverse(), conj), power[exp]
        return compose(*factors, conjs[-1].inverse())


@dataclass(frozen=True)
class CommutatorWord:
    """Product of commutators [x, y], composed left to right, over the
    alphabet of size `arity` (which an empty word still needs)."""

    factors: tuple[tuple[PrefixMap, PrefixMap], ...] = ()
    arity: int = 2

    def evaluate(self, memo: dict | None = None) -> PrefixMap:
        """The product of the factors.  A memo shared by several words
        computes each distinct commutator [x, y] and each distinct step
        prefix·[x, y] once; its keys are the maps themselves (compared by
        value), so equal but distinct objects share entries.  A missing
        [x, y] is read as the inverse of a [y, x] the memo holds, since
        [y, x] = [x, y]^-1.  The product starts from the identity, which
        `compose` drops after checking each factor's arity against the
        word's."""
        if memo is None:
            memo = {}
        acc = identity(self.arity)
        for x, y in self.factors:
            step = (acc, x, y)
            nxt = memo.get(step)
            if nxt is None:
                comm = memo.get((x, y))
                if comm is None:
                    rev = memo.get((y, x))
                    comm = memo[(x, y)] = commutator(x, y) if rev is None else rev.inverse()
                nxt = memo[step] = acc * comm
            acc = nxt
        return acc

    def __mul__(self, other: "CommutatorWord") -> "CommutatorWord":
        """The concatenated word, which evaluates to the product."""
        return CommutatorWord(self.factors + other.factors, same_arity(self, other))

    def inverse(self) -> "CommutatorWord":
        return CommutatorWord(tuple((y, x) for x, y in reversed(self.factors)), self.arity)


def commutator(x: PrefixMap, y: PrefixMap) -> PrefixMap:
    """[x, y] = x·y·x^-1·y^-1, as one `compose`."""
    return compose(x, y, x.inverse(), y.inverse())


class Certified(NamedTuple):
    """An element together with a commutator word evaluating to it, which
    shows that the element lies in the derived subgroup.  Products and
    inverses carry their words along; it unpacks as (elem, word)."""

    elem: PrefixMap
    word: CommutatorWord

    @classmethod
    def from_word(cls, word: CommutatorWord, memo: dict | None = None) -> "Certified":
        """The word with its value, evaluated once (through `memo` when one
        is given; see `CommutatorWord.evaluate`)."""
        return cls(word.evaluate(memo), word)

    def __mul__(self, other: "Certified") -> "Certified":
        return Certified(self.elem * other.elem, self.word * other.word)

    def inverse(self) -> "Certified":
        return Certified(self.elem.inverse(), self.word.inverse())


# ---------------------------------------------------------------------------
# splitting and derived conjugators


@dataclass(frozen=True)
class Decomposition:
    """g = s1 * s2 with s_i supported inside the proper clopen set
    support_i (membership in the corresponding rigid stabiliser)."""

    s1: PrefixMap
    support1: ClopenSet
    s2: PrefixMap
    support2: ClopenSet


def decompose2(g: PrefixMap) -> Decomposition:
    """Split a non-identity element into two rigidly supported factors.

    Take a proper sub-cylinder Y of a moved cylinder (so Y ∪ gY is never
    the whole space), let s2 be the swap σ(g, Y) and s1 = g·s2^-1; then s1
    fixes gY pointwise and s2 is supported in Y ∪ gY.  The swap hands back
    gY and Y ∪ gY with it (`prefixmap._swap`), so neither is computed
    again.
    """
    if g.is_identity():
        raise PreconditionError("cannot decompose the identity")
    z = g.moved_cylinder().code[0]
    s2, gy, support2 = _swap(g, cylinder(z + "0", g.arity))
    return Decomposition(g * s2.inverse(), gy.complement(), s2, support2)


def derived_conjugator(g: PrefixMap, region: ClopenSet, memo: dict | None = None) -> Certified:
    """A product of at most two commutators agreeing with g pointwise on
    the proper clopen `region` (hence with the same image of it), its word
    evaluated through `memo` when one is given.

    For each factor s of g = s1·s2 with support bound S, a transporter h
    pushes S off the current image of the region, so h·s^-1·h^-1 fixes that
    image pointwise and [s, h] acts on it exactly as s does: s2 acts on the
    region itself and s1 on s2(region), the one image the word needs.
    """
    if not region.is_proper():
        raise PreconditionError("degenerate region for derived conjugator")
    if g.is_identity():
        return Certified.from_word(CommutatorWord((), g.arity), memo)
    dec = decompose2(g)
    h2 = transporter(dec.support2, region.complement())
    h1 = transporter(dec.support1, dec.s2.image(region).complement())
    return Certified.from_word(CommutatorWord(((dec.s1, h1), (dec.s2, h2)), g.arity), memo)


def shift_identity_check(a: PrefixMap, b: PrefixMap, region: ClopenSet
                         ) -> tuple[PrefixMap, bool]:
    """Verify [a, b] = [[a, g], [b, g^2]] for a wandering g of the region.

    Both a and b must be supported in the proper clopen region; g comes
    from wandering_witness, so its powers move the region to pairwise
    disjoint sets and the identity holds by disjoint-support commutation.
    """
    if not region.is_proper():
        raise PreconditionError("region must be proper and non-empty")
    if not (a.in_rist(region) and b.in_rist(region)):
        raise PreconditionError("both elements must be supported in the region")
    g, _ = wandering_witness(region)
    lhs = commutator(a, b)
    rhs = commutator(commutator(a, g), commutator(b, g * g))
    return g, lhs == rhs


# ---------------------------------------------------------------------------
# normal-closure witnesses


@dataclass(frozen=True)
class _Base:
    """A certified element m of the normal closure of n, the base of the
    witness expansion."""

    m: Certified
    letters: tuple           # m as letters over n
    bound: ClopenSet         # clopen support bound of m
    zone: ClopenSet          # target for W in the proper branch; zone, m(zone) disjoint


def _conjugate_letters(outer: Certified, lts) -> list[tuple[Certified, int]]:
    return [(outer * c, e) for c, e in lts]


def _inverse_letters(lts) -> list[tuple[Certified, int]]:
    """Letters of the inverse word: reversed, with the exponents flipped."""
    return [(c, -e) for c, e in reversed(lts)]


def _conjugated(base: _Base, d: Certified):
    """The base conjugated by d, d^-1·m·d, as (d^-1, its letters over n, the
    letters of its inverse, its support bound d^-1(bound))."""
    dinv = d.inverse()
    letters = _conjugate_letters(dinv, base.letters)
    return dinv, letters, _inverse_letters(letters), dinv.elem.image(base.bound)


def _proper_union_letters(a, b, w, base: _Base, lift) -> list[tuple[Certified, int]]:
    """Letters for a non-trivial [a, b] when W = ya ∪ yb, the proper union
    of their support regions, is given as `w`.

    g' = d^-1·m·d moves W off itself (d lifts a transporter of W into the
    base zone), so g'·a^-1·g'^-1 commutes with b and [a, b] = [[a, g'], b],
    which expands into four conjugates of g'^{±1} with conjugators
    a, e, b, b·a, each lifted on the support bound of g'.  lift(x, S)
    returns a certified element agreeing with x pointwise on S.
    """
    _, g_letters, g_inverse, sp = _conjugated(base, lift(transporter(w, base.zone), w))
    out = []
    out += _conjugate_letters(lift(a, sp), g_letters)            # a g' a^-1
    out += g_inverse                                             # g'^-1
    out += _conjugate_letters(lift(b, sp), g_letters)            # b g' b^-1
    out += _conjugate_letters(lift(b * a, sp), g_inverse)        # (b a) g'^-1 (b a)^-1
    return out


def _full_union_letters(a, ya, b, yb, base: _Base, lift) -> list[tuple[Certified, int]]:
    """Letters for [a, b] when ya ∪ yb is the whole space.

    h = d^-1·m·d carries ya into its own complement: d lifts a patch u
    sending ya into a sub-cylinder Z' of a moved cylinder of m and pulling
    m(Z') back into a proper part of ya's complement.  With a1 = h·a·h^-1
    the pair (a1, b) falls into the proper-union case and

        [a, b] = h^-1·( a1·[h,b]·a1^-1 · [a1, b] )·h · [h^-1, b]

    where every conjugation by a1, a1·b or b is lifted on h's support bound.
    """
    m = base.m.elem
    k = m.arity
    zsub = cylinder(m.moved_cylinder().code[0] + "0", k)
    m_zsub = m.image(zsub)
    room_target = cylinder(ya.complement().code[0] + "0", k)
    t2 = transporter(m_zsub, room_target)
    r1 = t2.image(m_zsub)
    u = patch([(ya, transporter(ya, zsub)), (r1, t2.inverse())])
    d = lift(u, ya.union(r1))
    dinv, h_letters, h_inverse, sh = _conjugated(base, d)
    h_cert = Certified(compose(dinv.elem, base.m.elem, d.elem),    # one compose
                       dinv.word * base.m.word * d.word)
    h = h_cert.elem
    a1 = compose(h, a, h.inverse())
    pre = []
    pre += _conjugate_letters(lift(a1, sh), h_letters)          # a1 h a1^-1
    pre += _conjugate_letters(lift(a1 * b, sh), h_inverse)      # (a1 b) h^-1 (a1 b)^-1
    if not commutator(a1, b).is_identity():                     # [a1, b]
        pre += _proper_union_letters(a1, b, h.image(ya).union(yb), base, lift)
    out = _conjugate_letters(h_cert.inverse(), pre)             # conjugate the block by h^-1
    out += h_inverse                                            # [h^-1, b] = h^-1 · (b h b^-1)
    out += _conjugate_letters(lift(b, sh), h_letters)
    return out


def _expand(a, ya, b, yb, n, n_cert, base_of, lift, memo=None):
    """The prologue both builders share: check the inputs, then n_cert
    when one is given (its arity before its value), and return ([a, b],
    letters), with no letters when [a, b] is trivial and otherwise the
    expansion over base_of(n, memo) on the branch that ya ∪ yb selects
    (the proper branch takes that union as it is).  n_cert and [a, b] are
    evaluated through `memo` when one is given."""
    if n.is_identity():
        raise PreconditionError("base element must be non-trivial")
    for name, (elem, region) in {"a": (a, ya), "b": (b, yb)}.items():
        if not region.is_proper():
            raise PreconditionError(f"support region of {name} must be proper and non-empty")
        if not elem.in_rist(region):
            raise PreconditionError(f"element {name} is not supported in its region")
    if n_cert is not None:
        same_arity(n, n_cert)
        if n_cert.evaluate(memo) != n:
            raise PreconditionError("n_cert does not evaluate to the base element")
    target = CommutatorWord(((a, b),), a.arity).evaluate(memo)
    if target.is_identity():
        return target, []
    w = ya.union(yb)
    if w.is_full():
        return target, _full_union_letters(a, ya, b, yb, base_of(n, memo), lift)
    return target, _proper_union_letters(a, b, w, base_of(n, memo), lift)


def _raw(x: PrefixMap, _bound=None) -> Certified:
    """x with the empty word: a raw conjugator, whose word nothing reads."""
    return Certified(x, CommutatorWord((), x.arity))


def _raw_base(n: PrefixMap, _memo=None) -> _Base:
    k = n.arity
    return _Base(_raw(n), ((_raw(identity(k)), 1),), whole_space(k), n.moved_cylinder())


def monolith_witness(a: PrefixMap, ya: ClopenSet, b: PrefixMap, yb: ClopenSet,
                     n: PrefixMap) -> NormalWord:
    """A normal word over base n evaluating to [a, b], at most 8 letters.

    The expansion runs over m = n itself with raw conjugators: when
    ya ∪ yb is proper the four-letter expansion of [[a, g'], b] applies
    directly; otherwise the one-letter conjugate h of n adds 2 + 2 letters
    around the inner four, for 8.
    """
    target, tagged = _expand(a, ya, b, yb, n, None, _raw_base, _raw)
    word = NormalWord(n, tuple((c.elem, e) for c, e in tagged))
    if tagged and word.evaluate() != target:
        raise VerificationError("internal error: monolith witness failed to evaluate")
    return word


# ---------------------------------------------------------------------------
# simple witnesses: certified conjugators


def _cycle(words, arity: int) -> PrefixMap:
    """The cyclic permutation words[0] -> words[1] -> ... -> words[0] of
    disjoint cylinders, the identity elsewhere."""
    rest = canonicalize(words, arity).complement()
    pairs = list(zip(words, words[1:] + words[:1])) + [(w, w) for w in rest.code]
    return PrefixMap.from_pairs(pairs, arity)


def _small_base(n: PrefixMap, memo: dict) -> _Base:
    """m = [q, n], a non-trivial certified element of the normal closure of
    n, written as two letters over n, whose support bound Z1 ∪ n(Z1) is
    proper; both commutators are evaluated through `memo`.

    q is the 3-cycle of three disjoint sub-cylinders of Z1 (a sub-cylinder
    of a moved cylinder of n, so Z1 ∪ n(Z1) misses Z1's sibling), written
    as the single commutator [τ, σ] of two swaps; m = [q, n] = q·n·q^-1·n^-1
    restricts to q on Z1, hence is non-trivial.
    """
    k = n.arity
    z1 = n.moved_cylinder().code[0] + "0"
    wa, wb, wc = z1 + "00", z1 + "01", z1 + "10"
    q = Certified.from_word(
        CommutatorWord(((_cycle((wb, wc), k), _cycle((wa, wb), k)),), k), memo)
    if q.elem != _cycle((wa, wb, wc), k):
        raise VerificationError("internal error: 3-cycle certificate")
    m = Certified.from_word(CommutatorWord(((q.elem, n),), k), memo)
    zone = cylinder(z1, k)
    return _Base(m, letters=((q, 1), (_raw(identity(k)), -1)),
                 bound=zone.union(n.image(zone)),
                 zone=cylinder(m.elem.moved_cylinder().code[0] + "0", k))


class SimpleWitness(NamedTuple):
    """A normal word whose every conjugator carries a commutator-word
    certificate, one per letter: it shows that the word's value lies in
    <<base>> with every conjugator inside the derived subgroup."""

    word: NormalWord
    certs: tuple[CommutatorWord, ...]

    def evaluate(self, memo: dict | None = None) -> PrefixMap:
        """The word's value, once every conjugator certificate is checked
        against its letter.  One memo serves all certificates: a fresh one,
        or the one `simple_witness` filled while building them (see
        `CommutatorWord.evaluate`)."""
        if len(self.certs) != len(self.word.letters):
            raise VerificationError("conjugator certificate count mismatch")
        if memo is None:
            memo = {}
        for cert, (conj, _) in zip(self.certs, self.word.letters):
            if cert.evaluate(memo) != conj:
                raise VerificationError("a conjugator certificate does not match its letter")
        return self.word.evaluate()


def simple_witness(a: PrefixMap, ya: ClopenSet, b: PrefixMap, yb: ClopenSet,
                   n: PrefixMap, n_cert: CommutatorWord) -> SimpleWitness:
    """Like monolith_witness, but every conjugator carries a
    commutator-word certificate, so the whole certificate shows
    [a, b] ∈ <<n>> with conjugation inside the derived subgroup.

    Letter count: at most 8 when ya ∪ yb is proper, at most 16 otherwise
    (each base letter becomes two letters of the small certified word
    m = [q, n]).

    The build and the self-check share one memo, so every commutator and
    step product is composed once per call.  Its entries are values of
    pure functions under keys compared by value, so the self-check reaches
    the verdict a fresh memo would give, and it still composes every
    factor and step that the build did not.
    """
    memo: dict = {}

    def lift(x: PrefixMap, bound: ClopenSet) -> Certified:
        return derived_conjugator(x, bound, memo)

    target, tagged = _expand(a, ya, b, yb, n, n_cert, _small_base, lift, memo)
    out = SimpleWitness(NormalWord(n, tuple((c.elem, e) for c, e in tagged)),
                        tuple(c.word for c, _ in tagged))
    if tagged and out.evaluate(memo) != target:
        raise VerificationError("internal error: simple witness failed to evaluate")
    return out


# ---------------------------------------------------------------------------
# transitivity and factorization claims


def claim1_transporter(ia: ClopenSet, ib: ClopenSet, ic: ClopenSet
                       ) -> Certified:
    """A single commutator e = [c, d] with e(ia) = ib and e fixing ic
    pointwise: the certified patch of `onto_transporter(ia, ib)` on ia with
    no spare room, so c swaps ia and ib (and fixes ic pointwise too) and d
    is a certified transporter moving ia ∪ ib into the free region."""
    if ia.is_empty() or ib.is_empty() or ic.is_empty():
        raise PreconditionError("regions must be non-empty")
    free = ia.union(ib).union(ic).complement()
    if free.is_empty():
        raise PreconditionError("the three regions must not cover the space")
    if not ((ia == ib or ia.disjoint(ib)) and ia.disjoint(ic) and ib.disjoint(ic)):
        raise PreconditionError("regions must be pairwise disjoint")
    if ia == ib:
        # the image condition already holds; no movement is needed
        return Certified.from_word(CommutatorWord((), ia.arity))
    return _certified_patch(ia, onto_transporter(ia, ib), empty_set(ia.arity), free)


def _certified_patch(region: ClopenSet, action: PrefixMap, spare: ClopenSet,
                     free: ClopenSet) -> Certified:
    """A single commutator agreeing with `action` pointwise on `region`
    and fixing pointwise everything outside region ∪ action(region) ∪
    spare ∪ free.

    c is a patch pinned to the identity off region ∪ action(region) ∪
    spare; dm moves that support bound into `free`, so [c, dm] = c·junk
    with the junk supported in `free`.
    """
    k = action.arity
    img = action.image(region)
    zone = region.union(img).union(spare)
    c = patch([(region, action), (zone.complement(), identity(k))])
    u = transporter(zone, free)
    dm = derived_conjugator(u, zone).elem
    return Certified.from_word(CommutatorWord(((c, dm),), k))


@dataclass(frozen=True)
class Claim2Result:
    s1: PrefixMap
    s2: PrefixMap
    s3: PrefixMap
    indices: tuple[int, int, int]      # positions in min_cover_3(arity).members fixed pointwise
    certs: tuple[CommutatorWord, CommutatorWord, CommutatorWord] | None = None


def claim2_factorization(g: PrefixMap, g_cert: CommutatorWord | None = None) -> Claim2Result:
    """Factor g = s1·s2·s3 with each factor fixing pointwise a member of
    the minimal 3-cover of g's arity (`min_cover_3`).

    Pick the first private U_beta such that some part of its complement
    with the other two privates also avoids them after applying g; a
    transporter phi parks U_beta there, s3 undoes phi, s1 performs g∘phi,
    and s2 = s1^-1·g·s3^-1 is then the identity on U_beta.  s1 and s3 are
    single commutators (certified patches), so they always carry
    certificates; s2 inherits one exactly when g does.  A g_cert of
    another arity than g is refused before it is evaluated.
    """
    if g_cert is not None:
        same_arity(g, g_cert)
        if g_cert.evaluate() != g:
            raise PreconditionError("certificate does not evaluate to g")
    cover = min_cover_3(g.arity)
    ident = identity(g.arity)
    empty = CommutatorWord((), g.arity)
    for i, member in enumerate(cover.members):
        if g.fixes_pointwise(member):
            certs = (g_cert, empty, empty) if g_cert is not None else None
            return Claim2Result(g, ident, ident, (i, i, i), certs)
    privates = cover.privates
    ginv = g.inverse()
    # Some beta finds room.  The set R outside the three private cylinders
    # is not empty, since there are k^2 >= 4 cylinders of depth 2, and R lies
    # in every `outside`.  If every vstar were empty, the bijection g would
    # map R into the union of each two privates, and as the privates are
    # disjoint, those three unions have an empty intersection.
    for beta in range(3):
        alpha, gamma = [i for i in range(3) if i != beta]
        outside = privates[alpha].union(privates[gamma]).complement()
        vstar = outside.intersect(ginv.image(outside))
        if not vstar.is_empty():
            break
    u_a, u_b, u_c = privates[alpha], privates[beta], privates[gamma]
    phi = transporter(u_b, vstar)
    parked = phi.image(u_b)
    psi = g * phi
    psi_img = psi.image(u_b)
    spare1, free1 = two_disjoint_cylinders(u_b.union(psi_img).union(u_a).complement())
    s1, s1_cert = _certified_patch(u_b, psi, spare1, free1)
    spare3, free3 = two_disjoint_cylinders(parked.union(u_b).union(u_c).complement())
    s3, s3_cert = _certified_patch(parked, phi.inverse(), spare3, free3)
    s2 = compose(s1.inverse(), g, s3.inverse())
    certs = None
    if g_cert is not None:
        certs = (s1_cert, s1_cert.inverse() * g_cert * s3_cert.inverse(), s3_cert)
    return Claim2Result(s1, s2, s3, (3 + alpha, 3 + beta, 3 + gamma), certs)


@dataclass(frozen=True)
class Claim3Result:
    c: PrefixMap
    ia: ClopenSet
    ib: ClopenSet
    ic: ClopenSet
    f_table: tuple[PrefixMap, ...]


def claim3_witness(g: PrefixMap, h: PrefixMap) -> Claim3Result:
    """Disjoint targets ia, ib, ic (union proper) and an element c with
    c·g fixing ia, c·h fixing ib and c fixing ic pointwise, plus a
    transporter table pushing the complement of each member of the
    minimal 3-cover of their arity (`min_cover_3`) off the targets.

    The targets are found by a deterministic search over cylinders of
    increasing depth; c is a three-constraint patch (g^-1 on g(ia), h^-1
    on h(ib), identity on ic).
    """
    k = same_arity(g, h)
    ia, ib, ic = _claim3_targets(g, h, k)
    c = patch([(g.image(ia), g.inverse()), (h.image(ib), h.inverse()),
               (ic, identity(k))])
    blocked = ia.union(ib).union(ic)
    room = blocked.complement()
    table = tuple(transporter(member.complement(), room) for member in min_cover_3(k).members)
    return Claim3Result(c, ia, ib, ic, table)


def _claim3_targets(g: PrefixMap, h: PrefixMap, k: int):
    """Three disjoint cylinders whose g/h-images avoid each other as the
    patch in claim3 requires; exists at some finite depth because finitely
    many point constraints can always be separated.

    The three words have one length, so distinct words name disjoint
    cylinders, and three cylinders of depth 2 or more leave room outside
    them; only the images can meet or cover the space."""
    alpha = letters(k)
    for depth in range(2, 13):
        words = ["".join(p) for p in product(alpha, repeat=depth)]
        for wc in words:
            ic = cylinder(wc, k)
            for wb in words:
                if wb == wc:
                    continue
                ib = cylinder(wb, k)
                hib = h.image(ib)
                if not hib.disjoint(ic):
                    continue
                for wa in words:
                    if wa == wb or wa == wc:
                        continue
                    ia = cylinder(wa, k)
                    gia = g.image(ia)
                    if not gia.disjoint(hib) or not gia.disjoint(ic):
                        continue
                    # the patch needs leftover room on the image side
                    if not gia.union(hib).union(ic).is_full():
                        return ia, ib, ic
    raise PreconditionError("could not separate claim3 targets")  # unreachable in practice


def commuting_chain(ya: ClopenSet, yb: ClopenSet) -> tuple[PrefixMap, PrefixMap]:
    """Elements g, h with g(ya), ya disjoint; h(ya), g(ya) disjoint; and
    h(ya), yb disjoint — so conjugates of anything supported in ya by
    1, g, h commute along the chain down to anything supported in yb."""
    if not (ya.is_proper() and yb.is_proper()):
        raise PreconditionError("both regions must be proper and non-empty")
    k = ya.arity
    t = ya.complement().code[0]
    while yb.complement().subset(cylinder(t, k)):
        t += "0"
    first_stop = cylinder(t, k)
    g = transporter(ya, first_stop)
    second_stop = first_stop.union(yb).complement()
    h = transporter(ya, second_stop)
    return g, h


# ---------------------------------------------------------------------------
# JSON text of certificates
#
# One writer per certificate kind returns the text that
# json.dumps(obj, indent=2, sort_keys=True) gives the kind's object (keys
# in sorted order, two spaces per level, `[]` for an empty list), written
# straight from the certificate.  An element literal holds only characters
# that JSON writes as they are, so it is quoted as it stands; `str` formats
# it once per element.


def dumps_commutator_word(word: CommutatorWord, target: PrefixMap) -> str:
    items = [f'    {{\n      "x": "{x}",\n      "y": "{y}"\n    }}' for x, y in word.factors]
    return _commutator_word_text(word.arity, items, "", f',\n  "target": "{target}"')


def dumps_normal_word(word: NormalWord, target: PrefixMap) -> str:
    return _normal_word_text(word, target, "")


def dumps_simple_witness(cert: SimpleWitness, target: PrefixMap) -> str:
    """The witness, one commutator word per letter, and the `elements`
    list: each distinct factor literal of those words once, in first-use
    order (x before y), which their factors name by index.  A conjugator
    word carries no target, since its letter's conjugator is its target.
    Each distinct literal is formatted once in a call."""
    index: dict = {}            # element -> its position in `elements`
    conjugators = []
    for word in cert.certs:
        items = []
        for x, y in word.factors:
            i, j = index.setdefault(x, len(index)), index.setdefault(y, len(index))
            items.append(f'        {{\n          "x": {i},\n          "y": {j}\n        }}')
        conjugators.append(f"    {_commutator_word_text(word.arity, items, '    ', '')}")
    elements = [f'    "{x}"' for x in index]
    return (f'{{\n  "arity": {cert.word.base.arity},\n'
            f'  "conjugators": {_list_text(conjugators, "  ")},\n'
            f'  "elements": {_list_text(elements, "  ")},\n'
            f'  "kind": "simple_witness",\n'
            f'  "witness": {_normal_word_text(cert.word, target, "  ")}\n}}')


def _list_text(items: list[str], pad: str) -> str:
    """A JSON list, at indentation `pad`, of items already indented."""
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _commutator_word_text(arity: int, items: list[str], pad: str, tail: str) -> str:
    """A commutator word object at indentation `pad`, from its factor items
    already indented and `tail`, the text of the fields after its kind."""
    inner = pad + "  "
    return (f'{{\n{inner}"arity": {arity},\n'
            f'{inner}"factors": {_list_text(items, inner)},\n'
            f'{inner}"kind": "commutator_word"{tail}\n{pad}}}')


def _normal_word_text(word: NormalWord, target: PrefixMap, pad: str) -> str:
    """A normal word object at indentation `pad`."""
    inner, item, field = pad + "  ", pad + "    ", pad + "      "
    items = [f'{item}{{\n{field}"conj": "{c}",\n{field}"exp": {e}\n{item}}}'
             for c, e in word.letters]
    return (f'{{\n{inner}"arity": {word.base.arity},\n'
            f'{inner}"base": "{word.base}",\n'
            f'{inner}"kind": "normal_word",\n'
            f'{inner}"letters": {_list_text(items, inner)},\n'
            f'{inner}"target": "{target}"\n{pad}}}')


def _listed(obj: dict, field: str, cls: type = dict):
    """The entries of the list `obj[field]`, each refused as it is reached
    unless it is a `cls` (an object, or a string)."""
    value = obj[field]
    if not isinstance(value, list):
        raise ParseError(f"malformed certificate: '{field}' must be a list")
    for entry in value:
        if not isinstance(entry, cls):
            raise ParseError(f"malformed certificate: '{field}' entries must be "
                             f"{_JSON_TYPES[cls]}s, got {_json_type(entry)}")
        yield entry


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _json_type(value) -> str:
    """The JSON name of a decoded value's type."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def certificate_from_obj(obj: dict, arity: int = 2):
    """Parse a certificate object into (certificate, target-or-None): a
    NormalWord, a CommutatorWord, or a SimpleWitness with its witness's
    target, whose parts default to its arity and share one table of parsed
    literals, and whose conjugator factors name their elements by literal
    or by index into its `elements` list.  Each object is read target
    first, then its other literals, so a malformed target is refused
    before anything after it; any structural defect (missing or mistyped
    fields, bad literals, indices or arities, an identity base, more
    referenced text than MAX_REFERENCED_TEXT) is reported as a
    ParseError."""
    with _malformed():
        return _read_certificate(obj, arity, {}, None)


def _read_certificate(obj: dict, arity: int, table: dict, deferred: list | None):
    """The reader certificate_from_obj and verify_certificate share, in one
    order: the witness (or the word itself), then a simple witness's
    `elements` list, then each conjugator object, every object its target
    first.  Returns (certificate, target), except that with a `deferred`
    list the top-level target is appended to it as (text, arity) instead
    of being parsed, and None is returned in its place.  Conjugator
    targets are always parsed."""
    if not (isinstance(obj, dict) and obj.get("kind") == "simple_witness"):
        return _word_from_obj(obj, arity, table, deferred)
    if not isinstance(obj.get("witness"), dict):
        raise ParseError("simple_witness certificate needs a 'witness' object")
    k = _arity(obj, arity)
    word, target = _word_from_obj(obj["witness"], k, table, deferred)
    if not isinstance(word, NormalWord):
        raise ParseError("a simple_witness 'witness' must be a normal_word")
    element = _referrer(obj, word.base.arity, table)
    if not isinstance(obj.get("conjugators"), list):
        raise ParseError("a simple_witness 'conjugators' must be a list")
    parsed = [_word_from_obj(o, k, table, None, element) for o in obj["conjugators"]]
    certs = tuple(c for c, _ in parsed)
    if not all(isinstance(c, CommutatorWord) for c in certs):
        raise ParseError("conjugator certificates must be commutator words")
    same_arity(word.base, *certs)
    # with one certificate per letter, a target a conjugator object carries
    # must be its letter's conjugator (a count mismatch fails in evaluate)
    if len(parsed) == len(word.letters) and any(
            t is not None and t != conj for (_, t), (conj, _) in zip(parsed, word.letters)):
        raise ParseError("a conjugator certificate's target is not its letter's conjugator")
    return SimpleWitness(word, certs), target


def _arity(obj: dict, default: int) -> int:
    k = obj.get("arity", default)
    if type(k) is not int:
        raise ParseError(f"malformed certificate: arity must be an integer, got {type(k).__name__}")
    letters(k)                  # an arity outside 2..10 raises here
    return k


@contextmanager
def _malformed():
    """Report a structural defect of a certificate object (a missing or
    mistyped field, an out-of-range or mixed arity, an identity base) as a
    ParseError."""
    try:
        yield
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, PreconditionError,
            ArityMismatchError) as exc:
        raise ParseError(f"malformed certificate: {exc}") from exc


def _element(table: dict, text, k: int) -> PrefixMap:
    """The element literal `text` at arity k, parsed once per table; a
    value that is not a string is refused by its JSON type."""
    if not isinstance(text, str):
        raise ParseError("malformed certificate: an element literal must be a string, "
                         f"got {_json_type(text)}")
    g = table.get((text, k))
    if g is None:
        g = table[(text, k)] = parse_element(text, k)
    return g


def _referrer(obj: dict, k: int, table: dict):
    """How the factors of a simple witness's conjugator words name an
    element: by a literal, or by an `int` index into the object's
    `elements` list, whose entries are read here, each parsed at the
    witness's arity k (that of every conjugator word) through the table.
    Each index adds the length of the literal it names to a running total,
    which may not pass MAX_REFERENCED_TEXT.  Returns a function with the
    signature of `_element`."""
    texts = obj.get("elements")
    listed = _listed(obj, "elements", str) if "elements" in obj else ()
    elems = [_element(table, text, k) for text in listed]
    named = 0

    def element(table: dict, value, k: int) -> PrefixMap:
        nonlocal named
        if value.__class__ is not int:
            if value.__class__ in (bool, float):
                raise ParseError("malformed certificate: an element index must be an integer, "
                                 f"got {json.dumps(value)}")
            return _element(table, value, k)
        if texts is None:
            raise ParseError(f"malformed certificate: element index {value} without an "
                             "'elements' list")
        if not 0 <= value < len(texts):
            raise ParseError(f"malformed certificate: element index {value} is out of range "
                             f"for {len(texts)} elements")
        named += len(texts[value])
        if named > MAX_REFERENCED_TEXT:
            raise ParseError("malformed certificate: element indices name more than "
                             f"{MAX_REFERENCED_TEXT} characters of literal text")
        return elems[value]

    return element


def _word_from_obj(obj, arity: int, table: dict, deferred: list | None, element=_element):
    """Read a normal_word or commutator_word object as _read_certificate
    does: its target (parsed, or appended to `deferred`), then its other
    literals, each parsed once through the table keyed by (literal,
    arity).  A commutator word's factors are read by `element` (a
    `_referrer` inside a simple witness)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("certificate object must carry a 'kind'")
    k = _arity(obj, arity)
    target = None
    if "target" in obj:
        if deferred is None:
            target = _element(table, obj["target"], k)
        else:
            deferred.append((obj["target"], k))
    if obj["kind"] == "normal_word":
        base = _element(table, obj["base"], k)
        letters = tuple((_element(table, l["conj"], k), l["exp"]) for l in _listed(obj, "letters"))
        return NormalWord(base, letters), target
    if obj["kind"] == "commutator_word":
        factors = tuple((element(table, f["x"], k), element(table, f["y"], k))
                        for f in _listed(obj, "factors"))
        return CommutatorWord(factors, k), target
    raise ParseError(f"unknown certificate kind {obj['kind']!r}")


def verify_certificate(obj: dict, arity: int = 2) -> PrefixMap:
    """Re-evaluate a certificate object of any kind against its target.

    The certificate is read as certificate_from_obj reads it, except that
    its top-level target is set aside, and then evaluated.  A target whose
    text, whitespace removed, is the value's canonical literal is accepted
    without being parsed (parse(format(v)) == v, so equal texts denote
    equal reduced forms); a text that is the literal as it stands is
    accepted before any whitespace is removed.  The target is parsed,
    through the same literal table, only here: when it is not canonical,
    to be compared as an element, and when reading or evaluation fails, so
    that a malformed target is the error reported, as a reader parsing it
    first would report it.  A certificate without a target is refused
    before evaluation.

    Raises VerificationError on mismatch; returns the evaluated element.
    """
    table: dict = {}
    deferred: list = []

    def target() -> PrefixMap | None:
        with _malformed():
            return _element(table, *deferred[0]) if deferred else None

    try:
        with _malformed():
            cert, _ = _read_certificate(obj, arity, table, deferred)
        if not deferred:
            raise ParseError("certificate carries no target to verify against")
        value = cert.evaluate()
    except (ParseError, VerificationError):
        target()
        raise
    text, literal = deferred[0][0], str(value)
    canonical = isinstance(text, str) and (text == literal or _strip(text) == literal)
    if not canonical and target() != value:
        raise VerificationError("certificate does not evaluate to its target")
    return value


def dumps_certificate(obj: dict) -> str:
    """The indented JSON text of an output object that is not a
    certificate."""
    return json.dumps(obj, indent=2, sort_keys=True)
