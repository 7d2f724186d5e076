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
from .clopen import ClopenSet, canonicalize, letters, split_words, whole_space
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
    if code == [""] :
        # force at least one split so elements have somewhere to act
        code = [c for c in alpha]
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
    for _ in range(200):
        code = random_code(rng, arity, max_depth)
        if len(code) == 1:
            continue
        m = rng.randint(1, len(code) - (1 if proper else 0))
        c = canonicalize(rng.sample(code, m), arity)
        if c.is_empty() or (proper and c.is_full()):
            continue
        return c
    raise RuntimeError("failed to generate a clopen set")


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
    """(a, ya, b, yb) with each element supported in its proper region;
    when full_union is set the regions cover the whole space.
    Regeneration continues until [a, b] is non-trivial, so witness
    constructions exercise their interesting branches."""
    while True:
        ya = random_clopen(rng, arity)
        if full_union:
            if len(ya.code) < 2:
                continue
            extra = canonicalize(rng.sample(ya.code, rng.randint(1, len(ya.code) - 1)), arity)
            yb = ya.complement().union(extra)
            if yb.is_full() or not ya.union(yb).is_full():
                continue
        else:
            yb = random_clopen(rng, arity)
            if ya.union(yb).is_full():
                continue
        if ya.intersect(yb).is_empty():
            continue
        a = random_rist_element(rng, ya)
        b = random_rist_element(rng, yb)
        if commutator(a, b).is_identity():
            continue
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


# A check builder takes (rng, arity, *counts) and returns its batches
# (count, check) in run order; check(i) gets the index of the case within
# its batch and returns whether the case passed.


def _group_laws(rng, arity, cases):
    depth = 6
    pool = [random_element(rng, arity, depth) for _ in range(max(cases, 3))]
    ident = identity(arity)

    def check(i):
        f, g, h = pool[i], pool[(i + 1) % len(pool)], pool[(i + 2) % len(pool)]
        if (f * g) * h != f * (g * h):
            return False
        if g * g.inverse() != ident or g.inverse() * g != ident:
            return False
        refined = []
        for d, r in g.pairs:
            if len(d) < depth + 4 and (i + len(d)) % 2 == 0:
                refined.extend((d + c, r + c) for c in letters(arity))
            else:
                refined.append((d, r))
        return PrefixMap.from_pairs(refined, arity) == g

    return ((cases, check),)


def _sigma_decompose(rng, arity, cases):
    depth = 6
    ident = identity(arity)

    def check(_i):
        g = random_element(rng, arity, depth, nontrivial=True)
        dec = wit.decompose2(g)
        sigma = dec.s2
        if sigma * sigma != ident:
            return False
        if dec.s1 * dec.s2 != g:
            return False
        if not (dec.support1.is_proper() and dec.support2.is_proper()):
            return False
        return dec.s1.in_rist(dec.support1) and dec.s2.in_rist(dec.support2)

    return ((cases, check),)


def _compression(rng, arity, transporter_cases, wandering_cases, join_cases):
    depth = 5

    def check_transporter(_i):
        y = random_clopen(rng, arity, depth, proper=rng.random() < 0.9)
        o = random_clopen(rng, arity, depth, proper=True) if rng.random() < 0.9 else whole_space(arity)
        if y.is_full() and not o.is_full():
            o = whole_space(arity)
        h = transporter(y, o)
        return h.image(y).subset(o)

    def check_wandering(_i):
        y = random_clopen(rng, arity, depth)
        g, trap = wandering_witness(y)
        return wanders(g, y, trap)

    def check_join(_i):
        while True:
            y = random_clopen(rng, arity, depth)
            z = random_clopen(rng, arity, depth)
            z = z.intersect(y.complement())
            if z.is_empty() or y.union(z).is_full():
                continue
            break
        g = join_compression(y, z)
        return g.image(y.union(z)).subset(y)

    return ((transporter_cases, check_transporter), (wandering_cases, check_wandering),
            (join_cases, check_join))


def _commutator_identity(rng, arity, cases):
    depth = 5

    def check(_i):
        y = random_clopen(rng, arity, depth)
        a = random_rist_element(rng, y)
        b = random_rist_element(rng, y)
        _g, ok = wit.shift_identity_check(a, b, y)
        return ok

    return ((cases, check),)


def _monolith(rng, arity, cases):
    depth = 4

    def check(i):
        a, ya, b, yb = random_witness_input(rng, arity, full_union=i % 2 == 1)
        n = random_element(rng, arity, depth, nontrivial=True)
        word = wit.monolith_witness(a, ya, b, yb, n)
        if word.base != n or len(word.letters) > 8:
            return False
        return word.evaluate() == commutator(a, b)

    return ((cases, check),)


def _derived_conjugator(rng, arity, cases):
    depth = 5

    def check(_i):
        g = random_element(rng, arity, depth)
        w = random_clopen(rng, arity, depth)
        d, cert = wit.derived_conjugator(g, w)
        if len(cert.factors) > 2:
            return False
        if cert.evaluate() != d:
            return False
        return d.image(w) == g.image(w)

    return ((cases, check),)


def _claims(rng, arity, cover_cases, claim1_cases, claim2_cases, claim3_cases):
    depth = 4
    cover = min_cover_3(arity)

    def check_cover(_i):
        full = whole_space(arity)
        ok = (cover.j1.union(cover.j2).union(cover.j3) == full
              and not cover.j2.union(cover.j3).is_full()
              and not cover.j1.union(cover.j3).is_full()
              and not cover.j1.union(cover.j2).is_full())
        for i, u in enumerate(cover.privates):
            ok = ok and u.subset(cover.cover[i])
            for j, other in enumerate(cover.cover):
                if i != j:
                    ok = ok and u.disjoint(other)
        return ok

    def disjoint_triple():
        while True:
            code = random_code(rng, arity, depth)
            if len(code) < 4:
                continue
            picks = rng.sample(code, 3)
            rest = canonicalize([w for w in code if w not in picks], arity)
            if rest.is_empty():
                continue
            return tuple(canonicalize([w], arity) for w in picks)

    def check_claim1(_i):
        ia, ib, ic = disjoint_triple()
        e, cert = wit.claim1_transporter(ia, ib, ic)
        return (len(cert.factors) <= 1
                and cert.evaluate() == e
                and e.image(ia) == ib
                and e.in_rist(ic.complement()))

    def check_claim2(i):
        g = random_element(rng, arity, depth)
        g_cert = None
        if i % 2 == 0:
            x = random_element(rng, arity, depth)
            y = random_element(rng, arity, depth)
            g_cert = CommutatorWord(((x, y),), arity)
            g = g_cert.evaluate()
        res = wit.claim2_factorization(g, cover, g_cert)
        ok = res.s1 * res.s2 * res.s3 == g
        for s, idx in zip((res.s1, res.s2, res.s3), res.indices):
            ok = ok and s.in_rist(cover.members[idx].complement())
        if g_cert is not None:
            ok = ok and res.certs is not None
            for s, cert in zip((res.s1, res.s2, res.s3), res.certs):
                ok = ok and cert.evaluate() == s
        return ok

    def check_claim3(_i):
        g = random_element(rng, arity, depth)
        h = random_element(rng, arity, depth)
        res = wit.claim3_witness(g, h, cover)
        blocked = res.ia.union(res.ib).union(res.ic)
        ok = (not blocked.is_full()
              and res.ia.disjoint(res.ib) and res.ia.disjoint(res.ic)
              and res.ib.disjoint(res.ic)
              and (res.c * g).in_rist(res.ia.complement())
              and (res.c * h).in_rist(res.ib.complement())
              and res.c.in_rist(res.ic.complement())
              and len(res.f_table) == 6)
        for member, f in zip(cover.members, res.f_table):
            ok = ok and f.image(member.complement()).disjoint(blocked)
        return ok

    return ((cover_cases, check_cover), (claim1_cases, check_claim1),
            (claim2_cases, check_claim2), (claim3_cases, check_claim3))


# Each suite once: name, check builder, case counts at full scale.
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
    name, build, counts = SUITES[index]
    start = time.monotonic()
    batches = build(random.Random(seed), arity, *(max(1, n // scale) for n in counts))
    cases = failures = 0
    for count, check in batches:
        cases += count
        failures += sum(1 for i in range(count) if not check(i))
    return SuiteResult(name, cases, failures, time.monotonic() - start)
