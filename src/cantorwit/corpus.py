"""Seeded random generators and the property suites they drive.

Generation is deterministic for a fixed seed: random complete prefix codes
of bounded depth with a uniformly random pairing, reduced.  The suites
mirror the package's verification story — every constructed witness is
re-checked against its stated postcondition, exactly.
"""

import random
import time
from dataclasses import dataclass

from . import witnesses as wit
from .clopen import ClopenSet, canonicalize, cylinder, letters, split_words, whole_space
from .compression import (join_compression, min_cover_3, transporter, wanders,
                          wandering_witness)
from .prefixmap import PrefixMap, identity
from .witnesses import CommutatorWord, commutator


# ---------------------------------------------------------------------------
# generators


def random_code(rng: random.Random, arity: int = 2, max_depth: int = 5) -> list[str]:
    """A random complete prefix code with words of length <= max_depth.

    A node splits with probability 0.55 up to arity 3 and 1.65/arity
    above, so it has at most 1.65 children on average at any arity and the
    size of a code does not grow with the arity."""
    alpha = letters(arity)
    stop = 0.45 if arity <= 3 else 1 - 1.65 / arity

    def grow(prefix: str) -> list[str]:
        if len(prefix) >= max_depth or rng.random() < stop:
            return [prefix]
        out = []
        for c in alpha:
            out.extend(grow(prefix + c))
        return out

    code = grow("")
    if code == [""]:
        # force at least one split so elements have somewhere to act
        code = list(alpha)
    return code


def _equal_size_code(rng: random.Random, size: int, arity: int, max_depth: int) -> list[str]:
    code = [""]
    while len(code) < size:
        growable = [w for w in code if len(w) < max_depth] or code
        w = rng.choice(growable)
        code.remove(w)
        code.extend(w + c for c in letters(arity))
    return sorted(code)


def random_element(rng: random.Random, arity: int = 2, max_depth: int = 5,
                   nontrivial: bool = False) -> PrefixMap:
    for _ in range(200):
        dom = sorted(random_code(rng, arity, max_depth))
        ran = _equal_size_code(rng, len(dom), arity, max_depth + 2)
        rng.shuffle(ran)
        g = PrefixMap.from_pairs(list(zip(dom, ran)), arity)
        if not nontrivial or not g.is_identity():
            return g
    raise RuntimeError("failed to generate a non-trivial element")


def random_clopen(rng: random.Random, arity: int = 2, max_depth: int = 5,
                  proper: bool = True) -> ClopenSet:
    """The union of m random words of a random code, with m from 1 to the
    size of the code, or to one less when proper.

    It is never empty, and never full when proper: the code has at least 2
    words and its words name disjoint cylinders, so m >= 1 words cover a
    non-empty set and fewer than all of them miss a cylinder."""
    code = random_code(rng, arity, max_depth)
    m = rng.randint(1, len(code) - (1 if proper else 0))
    return canonicalize(rng.sample(code, m), arity)


def random_rist_element(rng: random.Random, region: ClopenSet) -> PrefixMap:
    """A random non-identity element supported inside `region` (fixing its
    complement)."""
    for _ in range(200):
        size = len(region.code) + rng.randint(1, 3) * (region.arity - 1)
        dom = list(split_words(region.code, size, region.arity))
        ran = list(dom)
        rng.shuffle(ran)
        pairs = list(zip(dom, ran))
        pairs += [(w, w) for w in region.complement().code]
        g = PrefixMap.from_pairs(pairs, region.arity)
        if not g.is_identity():
            return g
    raise RuntimeError("failed to generate a supported element")


def random_witness_input(rng: random.Random, arity: int = 2, full_union: bool = False):
    """(a, ya, b, yb) with each element supported in its proper region and
    the regions meeting; when full_union is set the regions cover the whole
    space, and otherwise they do not.  Regeneration continues until [a, b]
    is non-trivial, so witness constructions exercise their interesting
    branches.

    For full_union, yb is the complement of ya together with some but not
    all of the words of ya, so it is proper, meets ya and covers the rest
    of the space."""
    while True:
        ya = random_clopen(rng, arity)
        if full_union:
            if len(ya.code) < 2:
                continue
            extra = canonicalize(rng.sample(ya.code, rng.randint(1, len(ya.code) - 1)), arity)
            yb = ya.complement().union(extra)
        else:
            yb = random_clopen(rng, arity)
            if ya.union(yb).is_full() or ya.intersect(yb).is_empty():
                continue
        a = random_rist_element(rng, ya)
        b = random_rist_element(rng, yb)
        if not commutator(a, b).is_identity():
            return a, ya, b, yb


# ---------------------------------------------------------------------------
# suites


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int
    seconds: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        """Deterministic summary (timing deliberately excluded so identical
        invocations print byte-identical stdout)."""
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.cases - self.failures}/{self.cases} cases"


# A suite takes (rng, arity, *counts), one count per batch, and yields one
# verdict per case, batch after batch: True when the case passed.  Each case
# draws its inputs before any of its checks runs.


def _group_laws(rng, arity, cases):
    depth = 6
    pool = [random_element(rng, arity, depth) for _ in range(max(cases, 3))]
    ident = identity(arity)
    for i in range(cases):
        f, g, h = pool[i], pool[(i + 1) % len(pool)], pool[(i + 2) % len(pool)]
        refined = []
        for d, r in g.pairs:
            if len(d) < depth + 4 and (i + len(d)) % 2 == 0:
                refined.extend((d + c, r + c) for c in letters(arity))
            else:
                refined.append((d, r))
        yield ((f * g) * h == f * (g * h)
               and g * g.inverse() == ident and g.inverse() * g == ident
               and PrefixMap.from_pairs(refined, arity) == g)


def _sigma_decompose(rng, arity, cases):
    depth = 6
    ident = identity(arity)
    for _ in range(cases):
        g = random_element(rng, arity, depth, nontrivial=True)
        dec = wit.decompose2(g)
        yield (dec.s2 * dec.s2 == ident and dec.s1 * dec.s2 == g
               and dec.support1.is_proper() and dec.support2.is_proper()
               and dec.s1.in_rist(dec.support1) and dec.s2.in_rist(dec.support2))


def _compression(rng, arity, transporter_cases, wandering_cases, join_cases):
    depth = 5
    for _ in range(transporter_cases):
        y = random_clopen(rng, arity, depth, proper=rng.random() < 0.9)
        o = random_clopen(rng, arity, depth, proper=True) if rng.random() < 0.9 else whole_space(arity)
        if y.is_full() and not o.is_full():
            o = whole_space(arity)
        yield transporter(y, o).image(y).subset(o)
    for _ in range(wandering_cases):
        y = random_clopen(rng, arity, depth)
        g, trap = wandering_witness(y)
        yield wanders(g, y, trap)
    for _ in range(join_cases):
        while True:
            y = random_clopen(rng, arity, depth)
            z = random_clopen(rng, arity, depth).intersect(y.complement())
            if not z.is_empty() and not y.union(z).is_full():
                break
        yield join_compression(y, z).image(y.union(z)).subset(y)


def _commutator_identity(rng, arity, cases):
    depth = 5
    for _ in range(cases):
        y = random_clopen(rng, arity, depth)
        a = random_rist_element(rng, y)
        b = random_rist_element(rng, y)
        _g, ok = wit.shift_identity_check(a, b, y)
        yield ok


def _monolith(rng, arity, cases):
    depth = 4
    for i in range(cases):
        a, ya, b, yb = random_witness_input(rng, arity, full_union=i % 2 == 1)
        n = random_element(rng, arity, depth, nontrivial=True)
        word = wit.monolith_witness(a, ya, b, yb, n)
        yield word.base == n and len(word.letters) <= 8 and word.evaluate() == commutator(a, b)


def _derived_conjugator(rng, arity, cases):
    depth = 5
    for _ in range(cases):
        g = random_element(rng, arity, depth)
        w = random_clopen(rng, arity, depth)
        d, cert = wit.derived_conjugator(g, w)
        yield len(cert.factors) <= 2 and cert.evaluate() == d and d.image(w) == g.image(w)


def _claims(rng, arity, cover_cases, claim1_cases, claim2_cases, claim3_cases):
    depth = 4
    cover = min_cover_3(arity)
    j1, j2, j3 = cover.cover
    for _ in range(cover_cases):
        yield (j1.union(j2).union(j3).is_full()
               and not any(x.union(y).is_full() for x, y in ((j2, j3), (j1, j3), (j1, j2)))
               and all(u.subset(member) if i == n else u.disjoint(member)
                       for i, u in enumerate(cover.privates)
                       for n, member in enumerate(cover.cover)))
    for _ in range(claim1_cases):
        # three words of a code of at least 4 words: disjoint cylinders
        # that leave room outside them
        code = random_code(rng, arity, depth)
        while len(code) < 4:
            code = random_code(rng, arity, depth)
        ia, ib, ic = (cylinder(w, arity) for w in rng.sample(code, 3))
        e, cert = wit.claim1_transporter(ia, ib, ic)
        yield (len(cert.factors) <= 1 and cert.evaluate() == e
               and e.image(ia) == ib and e.fixes_pointwise(ic))
    for i in range(claim2_cases):
        g = random_element(rng, arity, depth)
        g_cert = None
        if i % 2 == 0:
            x = random_element(rng, arity, depth)
            y = random_element(rng, arity, depth)
            g_cert = CommutatorWord(((x, y),), arity)
            g = g_cert.evaluate()
        res = wit.claim2_factorization(g, g_cert)
        parts = (res.s1, res.s2, res.s3)
        yield (res.s1 * res.s2 * res.s3 == g
               and all(s.fixes_pointwise(cover.members[idx])
                       for s, idx in zip(parts, res.indices))
               and (g_cert is None or res.certs is not None
                    and all(cert.evaluate() == s for s, cert in zip(parts, res.certs))))
    for _ in range(claim3_cases):
        g = random_element(rng, arity, depth)
        h = random_element(rng, arity, depth)
        res = wit.claim3_witness(g, h)
        blocked = res.ia.union(res.ib).union(res.ic)
        yield (not blocked.is_full()
               and res.ia.disjoint(res.ib) and res.ia.disjoint(res.ic)
               and res.ib.disjoint(res.ic)
               and (res.c * g).fixes_pointwise(res.ia)
               and (res.c * h).fixes_pointwise(res.ib)
               and res.c.fixes_pointwise(res.ic)
               and len(res.f_table) == 6
               and all(f.image(member.complement()).disjoint(blocked)
                       for member, f in zip(cover.members, res.f_table)))


# Each suite once: name, suite, case counts at full scale, one per batch.
SUITES = (
    ("group laws", _group_laws, (500,)),
    ("sigma/decompose2", _sigma_decompose, (500,)),
    ("compression", _compression, (1000, 200, 200)),
    ("commutator identity", _commutator_identity, (200,)),
    ("monolith witness", _monolith, (200,)),
    ("derived conjugator", _derived_conjugator, (300,)),
    ("cover and claims", _claims, (1, 100, 200, 100)),
)


def run_suite(index: int, seed: int, arity: int = 2, scale: int = 1) -> SuiteResult:
    """Run SUITES[index] on random.Random(seed) with each case count divided
    by scale, keeping at least one case per batch."""
    name, suite, counts = SUITES[index]
    start = time.monotonic()
    verdicts = list(suite(random.Random(seed), arity, *(max(1, n // scale) for n in counts)))
    return SuiteResult(name, len(verdicts), sum(not ok for ok in verdicts),
                       time.monotonic() - start)
