import copy
import json
import random
import re
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from cantorwit import witnesses
from cantorwit.clopen import canonicalize, cylinder, letters, whole_space
from cantorwit.compression import join_compression, min_cover_3, transporter
from cantorwit.corpus import (random_clopen, random_code, random_element, random_rist_element,
                              random_witness_input)
from cantorwit.errors import (ArityMismatchError, ParseError, PreconditionError, ToolkitError,
                              VerificationError)
from cantorwit.literals import _strip, parse_clopen, parse_element
from cantorwit.prefixmap import PrefixMap, identity, onto_transporter, patch, sigma_swap
from cantorwit.witnesses import (Certified, CommutatorWord, NormalWord, SimpleWitness,
                                 _claim3_targets, _inverse_letters, certificate_from_obj,
                                 claim1_transporter, claim2_factorization, claim3_witness,
                                 commutator, commuting_chain, decompose2, derived_conjugator,
                                 monolith_witness, shift_identity_check, simple_witness,
                                 verify_certificate)
import helpers
import test_golden
from helpers import (claim1_swap_patch, claim3_targets_disjoint_checks, commutator_fold,
                     commutator_three_reduce, commutator_word_to_obj, decompose2_three_pass,
                     normal_word_fold, normal_word_to_obj, simple_witness_to_inline_obj,
                     simple_witness_to_obj, verify_parse_target)

C = parse_clopen
E = parse_element

SWAP = "{0->1,1->0}"


def nontrivial_commutator_base():
    """A non-identity single-commutator element with its certificate."""
    x = E("{00->01,01->00,1->1}")
    y = E("{01->10,10->01,00->00,11->11}")
    n = commutator(x, y)
    assert not n.is_identity()
    return n, CommutatorWord(((x, y),))


class TestWordEvaluation:
    def test_empty_normal_word(self):
        w = NormalWord(E(SWAP), ())
        assert w.evaluate().is_identity()

    def test_single_letter_is_base(self):
        n = E(SWAP)
        assert NormalWord(n, ((identity(), 1),)).evaluate() == n

    def test_two_letters_give_commutator(self):
        n = E(SWAP)
        a = E("{00->01,01->00,1->1}")
        w = NormalWord(n, ((a, 1), (identity(), -1)))
        assert w.evaluate() == commutator(a, n)

    def test_identity_base_rejected(self):
        with pytest.raises(PreconditionError):
            NormalWord(identity(), ())

    def test_empty_commutator_word(self):
        assert CommutatorWord(()).evaluate() == identity(2)
        assert CommutatorWord((), 3).evaluate() == identity(3)

    def test_commutator_word_factor_arity_checked(self):
        x = E(SWAP)
        with pytest.raises(ArityMismatchError):
            CommutatorWord(((x, x),), 3).evaluate()

    def test_commutator_word_inverse(self):
        x, y = E(SWAP), E("{00->01,01->00,1->1}")
        w = CommutatorWord(((x, y), (y, x)))
        assert (w.evaluate() * w.inverse().evaluate()).is_identity()

    def test_eval_functions(self):
        n = E("{0->1,1->2,2->0}", 3)
        assert NormalWord(n, ()).evaluate() == identity(3)
        _, cert = derived_conjugator(identity(3), C("[0]", 3))
        assert cert.arity == 3 and cert.evaluate() == identity(3)


class TestCertified:
    """One certified-element type: each construction's word evaluates to
    its element, and products and inverses carry their words along."""

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_derived_conjugator_is_certified(self, arity):
        rng = random.Random(70 + arity)
        for _ in range(25):
            out = derived_conjugator(random_element(rng, arity, 3), random_clopen(rng, arity, 3))
            assert isinstance(out, Certified)
            assert out.word.arity == arity and out.word.evaluate() == out.elem

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_claim1_transporter_is_certified(self, arity):
        # three distinct cylinders of one depth: disjoint, equal sizes (so the
        # swap is feasible at every arity), and never covering the space
        rng = random.Random(73 + arity)
        alpha = "0123"[:arity]
        for _ in range(10):
            words = ["".join(p) for p in product(alpha, repeat=rng.randint(2, 3))]
            ia, ib, ic = (C(f"[{w}]", arity) for w in rng.sample(words, 3))
            out = claim1_transporter(ia, ib, ic)
            assert isinstance(out, Certified)
            assert out.word.arity == arity and out.word.evaluate() == out.elem
            assert out.elem.image(ia) == ib

    @pytest.mark.parametrize("arity", [2, 3])
    def test_product_and_inverse_carry_words(self, arity):
        rng = random.Random(76 + arity)
        x, y = (derived_conjugator(random_element(rng, arity, 3, nontrivial=True),
                                   random_clopen(rng, arity, 3)) for _ in range(2))
        for out in (x * y, y * x, x.inverse(), (x * y).inverse()):
            assert out.word.evaluate() == out.elem
        assert (x * y).elem == x.elem * y.elem
        elem, word = x * y
        assert word == x.word * y.word

    def test_commutator_word_product(self):
        rng = random.Random(79)
        pool = [random_element(rng, 3, 3) for _ in range(4)]
        v = CommutatorWord(((pool[0], pool[1]),), 3)
        w = CommutatorWord(((pool[2], pool[3]), (pool[1], pool[2])), 3)
        assert (v * w).factors == v.factors + w.factors
        assert (v * w).evaluate() == v.evaluate() * w.evaluate()
        assert (w * v.inverse()).evaluate() == w.evaluate() * v.evaluate().inverse()
        assert (v * CommutatorWord((), 3)).evaluate() == v.evaluate()

    def test_commutator_word_product_mixed_arities(self):
        with pytest.raises(ArityMismatchError):
            CommutatorWord((), 2) * CommutatorWord((), 3)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_inverse_letters_invert_the_word(self, arity):
        rng = random.Random(80 + arity)
        for _ in range(10):
            n = random_element(rng, arity, 3, nontrivial=True)
            lts = tuple((random_element(rng, arity, 3), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 4)))
            word = NormalWord(n, lts)
            inverse = NormalWord(n, tuple(_inverse_letters(lts)))
            assert inverse.evaluate() == word.evaluate().inverse()


class TestMemoisedEvaluation:
    """CommutatorWord.evaluate through a shared memo against the plain fold."""

    @staticmethod
    def pool(rng, arity, size=5):
        return [random_element(rng, arity, max_depth=3) for _ in range(size)]

    @pytest.mark.parametrize("arity", [2, 3])
    def test_seeded_words_match_fold(self, arity):
        rng = random.Random(60 + arity)
        pool = self.pool(rng, arity)
        stem = tuple((rng.choice(pool), rng.choice(pool)) for _ in range(6))
        memo = {}
        for _ in range(60):
            # a shared stem cut at a random point, then a tail from the small
            # pool: shared prefixes, and factors repeated inside and across words
            tail = tuple((rng.choice(pool), rng.choice(pool))
                         for _ in range(rng.randint(0, 5)))
            factors = stem[:rng.randint(0, len(stem))] + tail
            word = CommutatorWord(factors, arity)
            expected = commutator_fold(factors, arity)
            assert word.evaluate(memo) == expected
            assert word.evaluate() == expected

    @pytest.mark.parametrize("arity", [2, 3])
    def test_repeated_factors_and_empty_word(self, arity):
        rng = random.Random(62 + arity)
        x, y, z = self.pool(rng, arity, 3)
        memo = {}
        for factors in [((x, y),) * 3, ((y, x), (x, y), (y, x)), (), ((x, y), (z, z)),
                        ((x, y),), ((z, x), (x, y)), ()]:
            assert (CommutatorWord(factors, arity).evaluate(memo)
                    == commutator_fold(factors, arity))
        assert CommutatorWord((), arity).evaluate(memo) == identity(arity)

    @pytest.mark.parametrize("arity", [2, 3])
    def test_equal_distinct_objects_share_entries(self, arity):
        rng = random.Random(64 + arity)
        x, y = self.pool(rng, arity, 2)
        x2, y2 = E(str(x), arity), E(str(y), arity)
        assert (x2, y2) == (x, y) and x2 is not x and y2 is not y
        memo = {}
        value = CommutatorWord(((x, y), (y, x)), arity).evaluate(memo)
        size = len(memo)
        assert CommutatorWord(((x2, y2), (y2, x2)), arity).evaluate(memo) == value
        assert len(memo) == size

    @pytest.mark.parametrize("arity", [2, 3])
    def test_fresh_objects_after_dropped_words(self, arity):
        """Words of freshly built maps, each dropped before the next is
        built, so object ids get reused while the memo lives on."""
        rng = random.Random(66 + arity)
        memo = {}
        for _ in range(150):
            texts = [str(random_element(rng, arity, max_depth=3)) for _ in range(3)]
            a, b, c = (E(t, arity) for t in texts)
            factors = ((a, b), (b, c), (a, b))
            assert (CommutatorWord(factors, arity).evaluate(memo)
                    == commutator_fold(factors, arity))
            del a, b, c, factors

    @staticmethod
    def counting_commutator(monkeypatch) -> list:
        """Record every pair that witnesses.commutator composes from now on."""
        calls = []
        plain = witnesses.commutator

        def counted(x, y):
            calls.append((x, y))
            return plain(x, y)

        monkeypatch.setattr(witnesses, "commutator", counted)
        return calls

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_reversed_entries_match_fold(self, monkeypatch, arity):
        """A memo holding [y, x] gives [x, y] as its inverse and composes
        nothing new, on words holding both orders, (x, x) and (e, y)."""
        rng = random.Random(68 + arity)
        pool = self.pool(rng, arity, 4)
        e = identity(arity)
        calls = self.counting_commutator(monkeypatch)
        for _ in range(30):
            x, y = rng.sample(pool, 2)
            factors = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 4))]
            factors += [(x, y), (y, x), (x, x), (e, y)]
            rng.shuffle(factors)
            word = CommutatorWord(tuple(factors), arity)
            expected = commutator_fold(word.factors, arity)
            memo = {}
            assert word.inverse().evaluate(memo) == expected.inverse()
            calls.clear()
            assert word.evaluate(memo) == expected
            assert calls == []
            # a word followed by its own inverse cancels to the identity
            both = word * word.inverse()
            assert both.evaluate(memo) == identity(arity) == commutator_fold(both.factors, arity)
            assert both.evaluate({}) == identity(arity)

    def test_other_arity_raises_with_warm_memo(self):
        rng = random.Random(72)
        x, y = self.pool(rng, 3, 2)
        memo = {}
        CommutatorWord(((y, x),), 3).evaluate(memo)
        for factors in (((x, y),), ((y, x),)):
            with pytest.raises(ArityMismatchError):
                CommutatorWord(factors, 2).evaluate(memo)


class TestSingleReduce:
    """commutator reduces once, and NormalWord.evaluate composes the
    telescoped product c1·n^e1·(c1^-1·c2)·…·n^eL·cL^-1; both against the
    versions that reduce after every composition."""

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_commutator_matches_three_reduce(self, arity):
        rng = random.Random(120 + arity)
        depth = {2: 6, 3: 4, 4: 3}[arity]
        els = [random_element(rng, arity, max_depth=depth) for _ in range(150)]
        for x, y in zip(els, els[1:]):
            assert commutator(x, y) == commutator_three_reduce(x, y)
        for x in els[:20]:
            for y in (x, x.inverse(), x * x, identity(arity)):
                assert commutator(x, y) == commutator_three_reduce(x, y)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_normal_word_matches_fold(self, arity):
        rng = random.Random(130 + arity)
        for _ in range(40):
            base = random_element(rng, arity, max_depth=4, nontrivial=True)
            letters = tuple((random_element(rng, arity, max_depth=4), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 8)))
            word = NormalWord(base, letters)
            assert word.evaluate() == normal_word_fold(word)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_normal_word_cancellations_match_fold(self, arity):
        """Words whose consecutive conjugators cancel in every way: drawn
        from a pool of four and the identity, so conjugators repeat; one
        letter; identity conjugators; a word times its inverse."""
        rng = random.Random(240 + arity)
        e = identity(arity)
        for _ in range(25):
            base = random_element(rng, arity, max_depth=4, nontrivial=True)
            pool = [random_element(rng, arity, max_depth=4) for _ in range(4)] + [e]
            word = tuple((rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(2, 8)))
            inverse = tuple((c, -x) for c, x in reversed(word))
            variants = {"pooled": word, "one_letter": word[:1],
                        "identity_conjugators": tuple((e, x) for _, x in word),
                        "times_its_inverse": word + inverse,
                        "repeated_conjugator": ((pool[0], 1), (pool[0], 1), (pool[0], -1))}
            for name, letters in variants.items():
                w = NormalWord(base, letters)
                assert w.evaluate() == normal_word_fold(w), name
            assert NormalWord(base, word + inverse).evaluate().is_identity()

    @pytest.mark.parametrize("base_arity, conjugators, message", [
        (2, [3], "mixed arities 2 and 3"),
        (2, [2, 3], "mixed arities 2 and 3"),
        (2, [2, 2, 3, 2], "mixed arities 2 and 3"),
        (3, [2], "mixed arities 3 and 2"),
        (3, [3, 2], "mixed arities 3 and 2"),
    ])
    def test_normal_word_mixed_arities_refused_as_letter_by_letter(self, base_arity,
                                                                  conjugators, message):
        """The message the letter-by-letter product gave: the base's arity,
        then the first conjugator's that differs."""
        letters = tuple((rotation(k), 1) for k in conjugators)
        with pytest.raises(ArityMismatchError, match=f"^{message}$"):
            NormalWord(rotation(base_arity), letters).evaluate()


class TestDecompose2:
    def test_swap_example(self):
        g = E(SWAP)
        dec = decompose2(g)
        assert dec.s2 == E("{00->10,10->00,01->01,11->11}")
        assert dec.s1 == E("{00->00,10->10,01->11,11->01}")
        assert dec.s1 * dec.s2 == g

    def test_identity_rejected(self):
        with pytest.raises(PreconditionError):
            decompose2(identity())

    def test_random_properties(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_element(rng, nontrivial=True)
            dec = decompose2(g)
            assert dec.s1 * dec.s2 == g
            assert dec.support1.is_proper() and dec.support2.is_proper()
            assert dec.s1.in_rist(dec.support1)
            assert dec.s2.in_rist(dec.support2)
            assert not dec.s1.is_identity() and not dec.s2.is_identity()

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    def test_matches_three_pass_oracle(self, arity):
        """The image and support that the swap hands back give the
        decomposition of `decompose2_three_pass`, field by field, and the
        identity raises the same error."""
        rng = random.Random(290 + arity)
        depth = {2: 5, 3: 3, 4: 2, 5: 2}[arity]
        for g in [identity(arity)] + [random_element(rng, arity, depth) for _ in range(60)]:
            if g.is_identity():
                for build in (decompose2, decompose2_three_pass):
                    with pytest.raises(PreconditionError, match="cannot decompose the identity"):
                        build(g)
                continue
            dec, expected = decompose2(g), decompose2_three_pass(g)
            for field in ("s1", "support1", "s2", "support2"):
                assert getattr(dec, field) == getattr(expected, field), (field, g)


class TestDerivedConjugator:
    def test_identity_input(self):
        d, cert = derived_conjugator(identity(), C("[00]"))
        assert d.is_identity() and cert.factors == ()

    def test_degenerate_region_rejected(self):
        with pytest.raises(PreconditionError):
            derived_conjugator(E(SWAP), C("[e]"))
        with pytest.raises(PreconditionError):
            derived_conjugator(E(SWAP), C("[]"))

    def test_swap_on_cylinder(self):
        g, w = E(SWAP), C("[00]")
        d, cert = derived_conjugator(g, w)
        assert len(cert.factors) <= 2
        assert cert.evaluate() == d
        assert d.image(w) == g.image(w) == C("[10]")

    def test_pointwise_agreement(self):
        # stronger than the image postcondition; later constructions rely on it
        rng = random.Random(32)
        for _ in range(100):
            g = random_element(rng)
            w = random_clopen(rng)
            d, _ = derived_conjugator(g, w)
            assert (g.inverse() * d).fixes_pointwise(w)

    def test_random_postconditions(self):
        rng = random.Random(33)
        for _ in range(150):
            g = random_element(rng)
            w = random_clopen(rng)
            d, cert = derived_conjugator(g, w)
            assert len(cert.factors) <= 2
            assert cert.evaluate() == d
            assert d.image(w) == g.image(w)

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    def test_rigid_element_lifts_with_one_commutator(self, arity):
        """g supported in a random proper region lifts on another to the one
        factor [g, h], whose fold is the value, and the value maps every
        cylinder of the common refinement of the region with both domain
        codes as g does (`apply_pairs`)."""
        rng = random.Random(3500 + arity)
        depth = {2: 4, 3: 3, 4: 2, 5: 2}[arity]
        for _ in range(30):
            g = random_rist_element(rng, random_clopen(rng, arity, depth))
            w = random_clopen(rng, arity, depth)
            d, cert = derived_conjugator(g, w)
            assert len(cert.factors) == 1 and cert.factors[0][0] == g
            assert commutator_fold(cert.factors, arity) == d
            pieces = [p for _, _, p in helpers.refine_oracle(w.code, [x for x, _ in d.pairs])]
            pieces = [p for _, _, p in helpers.refine_oracle(pieces, [x for x, _ in g.pairs])]
            assert all(helpers.apply_pairs(d.pairs, p) == helpers.apply_pairs(g.pairs, p)
                       for p in pieces), (g, w)

    def test_support_disjoint_from_region(self):
        # g fixes the region setwise by acting elsewhere; image equality
        # then just says d(w) = w
        g = E("{10->11,11->10,0->0}")
        w = C("[00]")
        assert g.image(w) == w
        d, cert = derived_conjugator(g, w)
        assert d.image(w) == w
        assert cert.evaluate() == d


class TestSmallScope:
    """The single-element constructions on every reduced element with at
    most 4 pairs at arity 2, and with at most 5 pairs at arity 3, not a
    sample of them."""

    BY_PAIRS = helpers.small_elements(2, 4)
    ELEMENTS = sorted((g for size in BY_PAIRS.values() for g in size), key=str)
    MOVED = [g for g in ELEMENTS if not g.is_identity()]
    BY_PAIRS3 = helpers.small_elements(3, 5)
    MOVED3 = sorted((g for size in BY_PAIRS3.values() for g in size if not g.is_identity()),
                    key=str)

    @staticmethod
    def check_decompose2(g):
        """decompose2's four postconditions."""
        dec = decompose2(g)
        assert dec.s2 * dec.s2 == identity(g.arity), g
        assert dec.s1 * dec.s2 == g, g
        assert dec.support1.is_proper() and dec.support2.is_proper(), g
        assert dec.s1.in_rist(dec.support1) and dec.s2.in_rist(dec.support2), g

    @staticmethod
    def rigid(g) -> bool:
        """Whether the moved pairs of g cover a proper set: its domain words
        name disjoint cylinders covering the space, so exactly when some
        pair is fixed."""
        return any(d == r for d, r in g.pairs)

    @classmethod
    def check_derived_conjugator(cls, g, w):
        """One factor when g is rigid and two otherwise, the word evaluates
        to the value, and the value has the same restriction as g on the
        region."""
        d, cert = derived_conjugator(g, w)
        assert len(cert.factors) == (1 if cls.rigid(g) else 2), g
        assert cert.evaluate() == d, g
        assert d.restrict(w) == g.restrict(w), g

    def test_counts(self):
        assert {pairs: len(elements) for pairs, elements in self.BY_PAIRS.items()} \
            == {1: 1, 2: 1, 3: 20, 4: 530}
        assert len(self.ELEMENTS) == 552 and len(self.MOVED) == 551

    def test_rigid_counts(self):
        """The elements whose lift is one commutator."""
        assert sum(map(self.rigid, self.MOVED)) == 130
        assert sum(map(self.rigid, self.MOVED3)) == 363

    def test_decompose2(self):
        for g in self.MOVED:
            self.check_decompose2(g)

    @pytest.mark.parametrize("region", ["[00]", "[0]", "[01,10]", "[000,11]"])
    def test_derived_conjugator(self, region):
        w = C(region)
        for g in self.MOVED:
            self.check_derived_conjugator(g, w)

    def test_claim2(self):
        """s1·s2·s3 = g, each s_i fixing its cover member pointwise, on the
        identity too."""
        members = min_cover_3(2).members
        for g in self.ELEMENTS:
            res = claim2_factorization(g)
            assert res.s1 * res.s2 * res.s3 == g, g
            for s, i in zip((res.s1, res.s2, res.s3), res.indices):
                assert s.in_rist(members[i].complement()), g

    def test_counts_arity_3(self):
        assert {pairs: len(elements) for pairs, elements in self.BY_PAIRS3.items()} \
            == {1: 1, 3: 5, 5: 1062}
        assert len(self.MOVED3) == 1067

    def test_decompose2_arity_3(self):
        for g in self.MOVED3:
            self.check_decompose2(g)

    @pytest.mark.parametrize("region", ["[00]", "[01,2]"])
    def test_derived_conjugator_arity_3(self, region):
        w = C(region, 3)
        for g in self.MOVED3:
            self.check_derived_conjugator(g, w)


class TestShiftIdentity:
    def test_equal_elements(self):
        y = C("[01]")
        a = random_rist_element(random.Random(34), y)
        g, ok = shift_identity_check(a, a, y)
        assert ok

    def test_identity_element(self):
        y = C("[01]")
        b = random_rist_element(random.Random(35), y)
        _, ok = shift_identity_check(identity(), b, y)
        assert ok

    def test_nested_swaps_inside_region(self):
        y = C("[01]")
        a = E("{010->011,011->010,00->00,1->1}")
        b = E("{0100->0101,0101->0100,011->011,00->00,1->1}")
        g, ok = shift_identity_check(a, b, y)
        assert ok
        assert g == E("{0->00,10->01,11->1}")

    def test_unsupported_rejected(self):
        with pytest.raises(PreconditionError):
            shift_identity_check(E(SWAP), identity(), C("[0]"))

    @pytest.mark.parametrize("region", ["[]", "[e]"])
    def test_improper_region_rejected(self, region):
        with pytest.raises(PreconditionError, match="proper"):
            shift_identity_check(identity(), identity(), C(region))

    def test_random_cases(self):
        rng = random.Random(36)
        for _ in range(100):
            y = random_clopen(rng)
            a = random_rist_element(rng, y)
            b = random_rist_element(rng, y)
            assert shift_identity_check(a, b, y)[1]


class TestMonolithWitness:
    def test_trivial_commutator_gives_empty_word(self):
        n = E(SWAP)
        y = C("[00]")
        a = random_rist_element(random.Random(37), y)
        w = monolith_witness(identity(), y, a, y, n)
        assert w.letters == () and w.base == n

    def test_four_letter_structure(self):
        n = E("{00->01,01->00,1->1}")
        ya = yb = C("[00]")
        a = E("{0000->0001,0001->0000,001->001,01->01,1->1}")
        b = E("{00000->00001,00001->00000,0001->0001,001->001,01->01,1->1}")
        w = monolith_witness(a, ya, b, yb, n)
        assert w.base == n
        assert w.letters == ((a, 1), (identity(), -1), (b, 1), (b * a, -1))
        assert w.evaluate() == commutator(a, b)

    def test_identity_base_rejected(self):
        y = C("[00]")
        a = random_rist_element(random.Random(38), y)
        with pytest.raises(PreconditionError):
            monolith_witness(a, y, a, y, identity())

    def test_unsupported_element_rejected(self):
        with pytest.raises(PreconditionError):
            monolith_witness(E(SWAP), C("[00]"), identity(), C("[00]"), E(SWAP))

    @pytest.mark.parametrize("full_union", [False, True])
    def test_random_branch(self, full_union):
        rng = random.Random(40 + full_union)
        for _ in range(60):
            a, ya, b, yb = random_witness_input(rng, full_union=full_union)
            n = random_element(rng, nontrivial=True)
            w = monolith_witness(a, ya, b, yb, n)
            assert w.base == n
            assert len(w.letters) <= 8
            assert w.evaluate() == commutator(a, b)


class TestSimpleWitness:
    def test_trivial_case(self):
        n, cert = nontrivial_commutator_base()
        y = C("[00]")
        a = random_rist_element(random.Random(42), y)
        w, certs = simple_witness(identity(), y, a, y, n, cert)
        assert w.letters == () and certs == ()

    def test_bad_cert_rejected(self):
        n, _ = nontrivial_commutator_base()
        y = C("[00]")
        a = random_rist_element(random.Random(43), y)
        with pytest.raises(PreconditionError):
            simple_witness(a, y, a, y, n, CommutatorWord(()))

    @pytest.mark.parametrize("full_union", [False, True])
    def test_random_branch(self, full_union):
        n, n_cert = nontrivial_commutator_base()
        rng = random.Random(44 + full_union)
        for _ in range(40):
            a, ya, b, yb = random_witness_input(rng, full_union=full_union)
            w, certs = simple_witness(a, ya, b, yb, n, n_cert)
            assert w.base == n
            assert len(w.letters) <= (16 if full_union else 8)
            assert len(certs) == len(w.letters)
            assert w.evaluate() == commutator(a, b)
            for (conj, _e), cert in zip(w.letters, certs):
                assert cert.evaluate() == conj


def proper_witness(build, n, n_cert=None):
    """The golden proper-union request over [00], whose [a, b] is not
    trivial, built over n."""
    a, b = E(test_golden.A_PROPER), E(test_golden.B_PROPER)
    if build is monolith_witness:
        return monolith_witness(a, C("[00]"), b, C("[00]"), n)
    return simple_witness(a, C("[00]"), b, C("[00]"), n, n_cert)


class TestBuilderSelfChecks:
    """Each builder checks what it built before it returns it, so breaking
    one step of a build trips that check and its message."""

    @pytest.mark.parametrize("build, message", [
        (monolith_witness, "monolith witness failed to evaluate"),
        (simple_witness, "simple witness failed to evaluate")])
    def test_a_dropped_letter_is_caught(self, monkeypatch, build, message):
        n, n_cert = nontrivial_commutator_base()
        assert proper_witness(build, n, n_cert)
        expand = witnesses._expand

        def dropped(*args, **kwargs):
            target, tagged = expand(*args, **kwargs)
            return target, tagged[:-1]

        monkeypatch.setattr(witnesses, "_expand", dropped)
        with pytest.raises(VerificationError, match=f"^internal error: {message}$"):
            proper_witness(build, n, n_cert)

    def test_a_broken_one_commutator_lift_is_caught(self, monkeypatch):
        """The transporter of every rigid lift becomes the identity, so each
        such lift is [g, e] = e: its word still evaluates to its letter,
        and only the witness's value is wrong.  Here all four lifts are
        rigid: those of a, b, b·a and the transporter of W = [00]."""
        lift, move = witnesses.derived_conjugator, witnesses.transporter
        rigid, broken = [], []

        def recording(g, region, memo=None):
            rigid.append(g.support().is_proper())
            try:
                return lift(g, region, memo)
            finally:
                rigid.pop()

        def breaking(src, dst):
            if rigid and rigid[-1]:
                broken.append(src)
                return identity(src.arity)
            return move(src, dst)

        monkeypatch.setattr(witnesses, "derived_conjugator", recording)
        monkeypatch.setattr(witnesses, "transporter", breaking)
        with pytest.raises(VerificationError,
                           match="^internal error: simple witness failed to evaluate$"):
            proper_witness(simple_witness, *nontrivial_commutator_base())
        assert len(broken) == 4

    def test_a_wrong_three_cycle_is_caught(self, monkeypatch):
        # the two swaps whose commutator is the 3-cycle become the identity
        cycle = witnesses._cycle
        monkeypatch.setattr(witnesses, "_cycle", lambda words, arity: (
            identity(arity) if len(words) == 2 else cycle(words, arity)))
        with pytest.raises(VerificationError, match="^internal error: 3-cycle certificate$"):
            proper_witness(simple_witness, *nontrivial_commutator_base())


def _unevaluated(*args, **kwargs):
    raise AssertionError("evaluated a certificate")


@pytest.mark.parametrize("build", [
    lambda n, cert: proper_witness(simple_witness, n, cert),
    lambda n, cert: claim2_factorization(n, cert)],
    ids=["simple_witness", "claim2_factorization"])
def test_certificate_of_another_arity_is_refused_unevaluated(monkeypatch, build):
    cert3, _ = certificate_from_obj(json.loads(Path(test_golden.NCERT3).read_text()))
    n, _ = nontrivial_commutator_base()
    monkeypatch.setattr(CommutatorWord, "evaluate", _unevaluated)
    with pytest.raises(ArityMismatchError, match="^mixed arities 2 and 3$"):
        build(n, cert3)


class TestSimpleWitnessCertificate:
    @pytest.mark.parametrize("name", ["simple_proper", "simple_full"])
    def test_golden_roundtrip(self, name):
        obj = json.loads((Path(__file__).parent / "golden" / f"{name}.txt").read_text())
        sw, target = certificate_from_obj(obj)
        assert isinstance(sw, SimpleWitness)
        assert json.loads(written(sw, target)) == obj

    @pytest.mark.parametrize("full_union", [False, True])
    def test_arity3_roundtrip(self, full_union):
        rng = random.Random(60 + full_union)
        for _ in range(4):
            x = random_element(rng, 3, 3, nontrivial=True)
            y = random_element(rng, 3, 3, nontrivial=True)
            n = commutator(x, y)
            if n.is_identity():
                continue
            a, ya, b, yb = random_witness_input(rng, 3, full_union=full_union)
            sw = simple_witness(a, ya, b, yb, n, CommutatorWord(((x, y),), 3))
            target = commutator(a, b)
            obj = json.loads(written(sw, target))
            assert obj["arity"] == 3
            assert certificate_from_obj(obj) == (sw, target)
            assert sw.evaluate() == target

    def test_evaluate_count_mismatch(self):
        n, n_cert = nontrivial_commutator_base()
        sw = SimpleWitness(NormalWord(n, ((n, 1), (n, -1))), (n_cert,))
        with pytest.raises(VerificationError, match="count mismatch"):
            sw.evaluate()

    def test_evaluate_conjugator_mismatch(self):
        n, n_cert = nontrivial_commutator_base()
        assert SimpleWitness(NormalWord(n, ((n, 1),)), (n_cert,)).evaluate() == n
        sw = SimpleWitness(NormalWord(n, ((identity(), 1),)), (n_cert,))
        with pytest.raises(VerificationError, match="does not match its letter"):
            sw.evaluate()


def golden_simple_request(name: str) -> tuple:
    """The simple_witness arguments of a golden simple-witness invocation."""
    argv, _ = test_golden.CASES[name]
    k, rest = (int(argv[2]), argv[3:]) if argv[1] == "--arity" else (2, argv[1:])
    a, ya, b, yb, n = rest[:5]
    n_cert_path = Path(argv[argv.index("--n-cert") + 1])
    n_cert, _ = certificate_from_obj(json.loads(n_cert_path.read_text()))
    return E(a, k), C(ya, k), E(b, k), C(yb, k), E(n, k), n_cert


GOLDEN_SIMPLE = ["simple_proper", "simple_full", "simple_proper_arity3", "simple_full_arity3"]


@pytest.mark.parametrize("name", GOLDEN_SIMPLE)
def test_inline_file_reads_as_its_counterpart(name):
    """Each golden simple witness as it was written before the `elements`
    list (every factor literal inline, every conjugator word with its
    target) reads as the same certificate and target as its text in the
    `elements` form, which is under half its size, and certifies the
    golden's target.  The inline files keep the conjugators of the builder
    of their time, which lifted every conjugator with two commutators."""
    inline_text = (GOLDEN / f"{name}_inline.json").read_text()
    inline = json.loads(inline_text)
    parsed = certificate_from_obj(inline)
    text = witnesses.dumps_simple_witness(*parsed)
    assert certificate_from_obj(json.loads(text)) == parsed
    assert simple_witness_to_inline_obj(*parsed) == inline
    assert len(text) < len(inline_text) / 2
    golden = certificate_from_obj(json.loads((GOLDEN / f"{name}.txt").read_text()))
    assert parsed[1] == golden[1] == parsed[0].evaluate()


class TestSharedMemo:
    """simple_witness builds its conjugators and checks them through one
    memo, which cannot make a wrong certificate pass."""

    @staticmethod
    def build(monkeypatch, name) -> tuple:
        """The golden request's witness and the memo its build filled, read
        off the calls to derived_conjugator."""
        memos = []
        plain = witnesses.derived_conjugator

        def recording(g, region, memo=None):
            memos.append(memo)
            return plain(g, region, memo)

        monkeypatch.setattr(witnesses, "derived_conjugator", recording)
        args = golden_simple_request(name)
        sw = simple_witness(*args)
        monkeypatch.undo()
        assert memos and all(m is memos[0] for m in memos)
        assert sw.evaluate(dict(memos[0])) == commutator(args[0], args[2])
        return sw, memos[0]

    @pytest.mark.parametrize("name", GOLDEN_SIMPLE)
    def test_swapped_factor_fails_against_the_filled_memo(self, monkeypatch, name):
        """A factor (x, y) turned into (y, x), whose value the memo holds
        under the reversed key, still refutes its certificate."""
        sw, memo = self.build(monkeypatch, name)
        tampered = 0
        for i, cert in enumerate(sw.certs):
            for j, (x, y) in enumerate(cert.factors):
                factors = cert.factors[:j] + ((y, x),) + cert.factors[j + 1:]
                forged = CommutatorWord(factors, cert.arity)
                if forged.evaluate() == sw.word.letters[i][0]:
                    continue
                certs = sw.certs[:i] + (forged,) + sw.certs[i + 1:]
                with pytest.raises(VerificationError, match="does not match its letter"):
                    SimpleWitness(sw.word, certs).evaluate(dict(memo))
                tampered += 1
                break
        assert tampered

    @pytest.mark.parametrize("name", GOLDEN_SIMPLE)
    def test_replaced_conjugator_fails_against_the_filled_memo(self, monkeypatch, name):
        sw, memo = self.build(monkeypatch, name)
        lts = sw.word.letters
        tampered = 0
        for i in range(len(lts)):
            conj, e = lts[i]
            other = lts[(i + 1) % len(lts)][0]
            if other == conj:
                continue
            word = NormalWord(sw.word.base, lts[:i] + ((other, e),) + lts[i + 1:])
            with pytest.raises(VerificationError, match="does not match its letter"):
                SimpleWitness(word, sw.certs).evaluate(dict(memo))
            tampered += 1
        assert tampered

    @pytest.mark.parametrize("name", GOLDEN_SIMPLE)
    def test_no_pair_composed_twice(self, monkeypatch, name):
        """Building and self-checking compose each commutator [x, y] once,
        [y, x] counting as the same unordered pair."""
        args = golden_simple_request(name)
        calls = TestMemoisedEvaluation.counting_commutator(monkeypatch)
        simple_witness(*args)
        pairs = Counter(frozenset(pair) for pair in calls)
        assert pairs and max(pairs.values()) == 1, pairs.most_common(1)


class TestClaim1:
    def test_equal_sets_trivial(self):
        e, cert = claim1_transporter(C("[00]"), C("[00]"), C("[10]"))
        assert e.is_identity() and cert.factors == ()

    def test_disjoint_cylinder_triple(self):
        ia, ib, ic = C("[00]"), C("[01]"), C("[10]")
        e, cert = claim1_transporter(ia, ib, ic)
        assert len(cert.factors) == 1
        assert cert.evaluate() == e
        assert e.image(ia) == ib
        assert e.in_rist(ic.complement())

    def test_union_everything_rejected(self):
        with pytest.raises(PreconditionError):
            claim1_transporter(C("[0]"), C("[10]"), C("[11]"))

    def test_overlap_rejected(self):
        with pytest.raises(PreconditionError):
            claim1_transporter(C("[0]"), C("[01]"), C("[10]"))

    @pytest.mark.parametrize("empty", range(3))
    def test_empty_region_rejected(self, empty):
        regions = [C("[00]"), C("[01]"), C("[10]")]
        regions[empty] = C("[]")
        with pytest.raises(PreconditionError, match="regions must be non-empty"):
            claim1_transporter(*regions)

    def test_random_triples(self):
        rng = random.Random(45)
        done = 0
        while done < 80:
            pieces = [random_clopen(rng) for _ in range(3)]
            ia = pieces[0]
            ib = pieces[1].intersect(ia.complement())
            ic = pieces[2].intersect(ia.union(ib).complement())
            if ib.is_empty() or ic.is_empty() or ia.union(ib).union(ic).is_full():
                continue
            e, cert = claim1_transporter(ia, ib, ic)
            assert len(cert.factors) <= 1
            assert cert.evaluate() == e
            assert e.image(ia) == ib
            assert e.in_rist(ic.complement())
            done += 1

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_swap_patch_oracle(self, arity):
        """The certified patch against the swap patched directly: on
        disjoint triples cut from a random code with room left over, and,
        with one region replaced by a random set, on the precondition
        failures (above arity 2 also on word counts no completion can
        match)."""
        rng = random.Random(230 + arity)
        depth = {2: 4, 3: 2, 4: 2}[arity]
        built = refused = 0
        while built + refused < 40:
            code = random_code(rng, arity, depth)
            if len(code) < 4:
                continue
            rng.shuffle(code)
            cuts = [0] + sorted(rng.sample(range(1, len(code)), 3))
            regions = [canonicalize(code[a:b], arity) for a, b in zip(cuts, cuts[1:])]
            if rng.random() < 0.25:
                regions[rng.randrange(3)] = random_clopen(rng, arity, depth)
            try:
                want = claim1_swap_patch(*regions)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                    claim1_transporter(*regions)
                refused += 1
                continue
            assert claim1_transporter(*regions) == want, regions
            built += 1
        assert built >= 10 and refused >= 5


class TestClaim2:
    def setup_method(self):
        self.cover = min_cover_3(2)

    def test_identity(self):
        res = claim2_factorization(identity())
        assert res.s1.is_identity() and res.s2.is_identity() and res.s3.is_identity()

    def test_shortcut_when_already_fixing(self):
        g = E("{00->00,01->01,10->11,11->10}")  # fixes J1 = [00,110]? no: fixes [00],[01]
        res = claim2_factorization(g)
        assert res.s1 == g and res.s2.is_identity() and res.s3.is_identity()
        assert g.in_rist(self.cover.members[res.indices[0]].complement())

    def test_swap(self):
        g = E(SWAP)
        res = claim2_factorization(g)
        assert res.s1 * res.s2 * res.s3 == g
        for s, i in zip((res.s1, res.s2, res.s3), res.indices):
            assert s.in_rist(self.cover.members[i].complement())

    def test_certified_variant(self):
        rng = random.Random(46)
        for _ in range(40):
            x, y = random_element(rng), random_element(rng)
            cert = CommutatorWord(((x, y),))
            g = cert.evaluate()
            res = claim2_factorization(g, cert)
            assert res.s1 * res.s2 * res.s3 == g
            assert res.certs is not None
            for s, c in zip((res.s1, res.s2, res.s3), res.certs):
                assert c.evaluate() == s

    def test_bad_cert_rejected(self):
        with pytest.raises(PreconditionError):
            claim2_factorization(E(SWAP), CommutatorWord(()))

    def test_random_uncertified(self):
        rng = random.Random(47)
        for _ in range(100):
            g = random_element(rng)
            res = claim2_factorization(g)
            assert res.s1 * res.s2 * res.s3 == g
            for s, i in zip((res.s1, res.s2, res.s3), res.indices):
                assert s.in_rist(self.cover.members[i].complement())


class TestClaim3:
    def setup_method(self):
        self.cover = min_cover_3(2)

    def test_identities(self):
        res = claim3_witness(identity(), identity())
        assert res.c.in_rist(res.ic.complement())
        assert len(res.f_table) == 6

    def test_swap_and_identity(self):
        g, h = E(SWAP), identity()
        res = claim3_witness(g, h)
        assert (res.c * g).in_rist(res.ia.complement())
        assert (res.c * h).in_rist(res.ib.complement())
        assert res.c.in_rist(res.ic.complement())

    def test_random_pairs(self):
        rng = random.Random(48)
        for _ in range(60):
            g, h = random_element(rng), random_element(rng)
            res = claim3_witness(g, h)
            blocked = res.ia.union(res.ib).union(res.ic)
            assert not blocked.is_full()
            assert res.ia.disjoint(res.ib) and res.ia.disjoint(res.ic) and res.ib.disjoint(res.ic)
            assert (res.c * g).in_rist(res.ia.complement())
            assert (res.c * h).in_rist(res.ib.complement())
            assert res.c.in_rist(res.ic.complement())
            assert len(res.f_table) == 6
            for member, f in zip(self.cover.members, res.f_table):
                assert f.image(member.complement()).disjoint(blocked)

    def test_targets_match_the_disjointness_search(self):
        """Comparing the target words finds what testing the cylinders for
        disjointness and room finds, at arities 2 to 5, past depth 2 too."""
        depths = set()
        for k in range(2, 6):
            rng = random.Random(k)
            for i in range(100):
                g, h = random_element(rng, k, 2 + i % 5), random_element(rng, k, 2 + i % 5)
                targets = _claim3_targets(g, h, k)
                assert targets == claim3_targets_disjoint_checks(g, h, k)
                depths.add(len(targets[0].code[0]))
        assert depths == {2, 3}


@pytest.mark.parametrize("build", [
    lambda: transporter(C("[0]"), C("[0]", 3)),
    lambda: join_compression(C("[00]"), C("[01]", 3)),
    lambda: claim3_witness(E(SWAP), identity(3)),
    lambda: E(SWAP) * identity(3),
    lambda: commutator(E(SWAP), identity(3)),
    lambda: commutator(identity(3), E(SWAP)),
    lambda: NormalWord(E(SWAP), ((identity(3), 1),)).evaluate(),
    lambda: NormalWord(E(SWAP), ((identity(), 1), (identity(3), -1))).evaluate(),
    lambda: C("[0]").union(C("[1]", 3)),
    lambda: C("[0]").intersect(C("[1]", 3)),
    lambda: C("[0]").disjoint(C("[1]", 3)),
    lambda: C("[0]").subset(C("[1]", 3)),
    lambda: E(SWAP).restrict(C("[0]", 3)),
    lambda: E(SWAP).image(C("[0]", 3)),
    lambda: E(SWAP).in_rist(C("[0]", 3)),
    lambda: sigma_swap(E(SWAP), C("[00]", 3)),
    lambda: patch([(C("[0]"), E(SWAP)), (C("[1]", 3), identity())]),
    lambda: patch([(C("[0]"), E(SWAP)), (C("[1]"), identity(3))]),
    lambda: onto_transporter(C("[0]"), C("[0]", 3)),
    lambda: CommutatorWord((), 2) * CommutatorWord((), 3),
], ids=["transporter", "join_compression", "claim3_witness", "mul", "commutator",
        "commutator_reversed", "normal_word_letter", "normal_word_later_letter", "union",
        "intersect", "disjoint", "subset", "restrict", "image", "in_rist", "sigma_swap",
        "patch_region", "patch_map", "onto_transporter", "commutator_word_product"])
def test_mixed_arities_rejected(build):
    with pytest.raises(ArityMismatchError, match=r"mixed arities \d+ and \d+"):
        build()


@pytest.mark.parametrize("arity", [1, 11, 2.0, True, "2", None, [2]])
@pytest.mark.parametrize("build", [identity, whole_space,
                                   lambda k: CommutatorWord((), k).evaluate(),
                                   letters, lambda k: cylinder("0", k)],
                         ids=["identity", "whole_space", "empty_commutator_word", "letters",
                              "cylinder"])
def test_invalid_arity_rejected(build, arity):
    """Only an `int` in ARITIES is an arity: `letters` refuses every other
    value, naming it by `repr`, and so does each builder that takes one."""
    with pytest.raises(ArityMismatchError,
                       match=f"arity must be between 2 and 10, got {re.escape(repr(arity))}$"):
        build(arity)


class TestCertificateSerialization:
    def test_random_normal_word_roundtrip(self):
        from cantorwit.witnesses import certificate_from_obj, verify_certificate
        rng = random.Random(50)
        for i in range(50):
            a, ya, b, yb = random_witness_input(rng, full_union=i % 2 == 0)
            n = random_element(rng, max_depth=4, nontrivial=True)
            word = monolith_witness(a, ya, b, yb, n)
            obj = json.loads(written(word, word.evaluate()))
            back, target = certificate_from_obj(obj)
            assert back == word and target == word.evaluate()
            assert verify_certificate(obj) == word.evaluate()

    def test_arity3_roundtrip(self):
        from cantorwit.witnesses import certificate_from_obj
        rng = random.Random(51)
        x = random_element(rng, arity=3)
        y = random_element(rng, arity=3)
        word = CommutatorWord(((x, y),), 3)
        obj = json.loads(written(word, word.evaluate()))
        assert obj["arity"] == 3
        back, target = certificate_from_obj(obj)
        assert back == word and target == word.evaluate()


GOLDEN = Path(__file__).parent / "golden"
MISSING = object()


def golden_certificates() -> dict:
    """Every certificate object of the golden files, and each of the
    certificates a claim2 transcript lists, by name."""
    found = {}
    for path in sorted(GOLDEN.glob("*.txt")) + sorted(GOLDEN.glob("*.json")):
        try:
            obj = json.loads(path.read_text())
        except ValueError:
            continue
        if "kind" in obj:
            found[path.stem] = obj
        for i, cert in enumerate(obj.get("certs", ())):
            found[f"{path.stem}.certs[{i}]"] = cert
    return found


def built_certificates(arity: int) -> dict:
    """derived-conj, monolith and simple certificates built at an arity."""
    rng = random.Random(170 + arity)
    found = {}
    for i in range(2):
        d, cert = derived_conjugator(random_element(rng, arity, 4), random_clopen(rng, arity, 4))
        found[f"derived_conj_{i}"] = commutator_word_to_obj(cert, target=d)
        a, ya, b, yb = random_witness_input(rng, arity, full_union=i == 1)
        found[f"monolith_{i}"] = normal_word_to_obj(
            monolith_witness(a, ya, b, yb, random_element(rng, arity, 4, nontrivial=True)),
            target=commutator(a, b))
        n = identity(arity)
        while n.is_identity():
            x, y = random_element(rng, arity, 3), random_element(rng, arity, 3)
            n = commutator(x, y)
        sw = simple_witness(a, ya, b, yb, n, CommutatorWord(((x, y),), arity))
        found[f"simple_{i}"] = simple_witness_to_obj(sw, target=commutator(a, b))
        found[f"simple_inline_{i}"] = simple_witness_to_inline_obj(sw, target=commutator(a, b))
    return found


def with_target(obj: dict, target) -> dict:
    """A copy of a certificate object whose target (the witness's, for a
    simple witness) is replaced, or dropped when MISSING."""
    obj = copy.deepcopy(obj)
    holder = obj["witness"] if obj.get("kind") == "simple_witness" else obj
    holder.pop("target", None)
    if target is not MISSING:
        holder["target"] = target
    return obj


def word_variants(obj: dict) -> dict:
    """The certificate as it is, with a word that evaluates elsewhere, and
    with a malformed literal in its word; a simple witness also with a
    malformed conjugator, alone and after a malformed conjugator target,
    and, when it has an `elements` list, with an index out of its range."""
    wrong, broken = copy.deepcopy(obj), copy.deepcopy(obj)
    variants = {"as_is": obj, "wrong_value": wrong, "malformed_word": broken}
    if obj["kind"] == "simple_witness":
        wrong["conjugators"][0]["factors"] = []
        broken["witness"]["base"] = "{0->"
        variants["malformed_conjugator"] = late = copy.deepcopy(obj)
        late["conjugators"][-1]["factors"] = [{"x": "{0->", "y": "{e->e}"}]
        variants["malformed_conjugator_target"] = both = copy.deepcopy(late)
        both["conjugators"][0]["target"] = "{0->1,1-0}"
        if "elements" in obj:
            variants["bad_index"] = bad = copy.deepcopy(obj)
            bad["conjugators"][-1]["factors"] = [{"x": 0, "y": len(obj["elements"])}]
    elif obj["kind"] == "normal_word":
        wrong["letters"] = wrong["letters"][:-1]
        broken["base"] = "{0->"
    else:
        wrong["factors"] = wrong["factors"][:-1]
        broken["factors"][0]["x"] = "{0->"
    return variants


def rotation(arity: int) -> PrefixMap:
    """The rotation of the first-letter cylinders, c -> c + 1 mod arity."""
    alphabet = letters(arity)
    return PrefixMap.from_pairs(zip(alphabet, alphabet[1:] + alphabet[0]), arity)


def target_mutations(text: str, arity: int) -> dict:
    """Target texts around a canonical literal: equal elements written
    otherwise, a different element, and targets that do not parse."""
    pairs = list(parse_element(text, arity).pairs)

    def fmt(ps):
        return "{" + ",".join(f"{d or 'e'}->{r or 'e'}" for d, r in ps) + "}"

    alphabet = letters(arity)
    d, r = pairs[0]
    split = [(d + c, r + c) for c in alphabet] + pairs[1:]
    return {
        "canonical": text,
        "spaces": " " + text.replace(",", " ,\n ").replace("->", " -> ") + "\t",
        "reordered": fmt(pairs[::-1]),
        "split_pair": fmt(split),
        "wrong_element": str(parse_element(text, arity) * rotation(arity)),
        "grammar_error": text.replace("->", "-", 1),
        "unbraced": text[:-1],
        "off_alphabet": fmt([(d + str(arity), r)] + pairs[1:]),
        "incomplete_code": fmt(split[1:]),
        "int": 5,
        "null": None,
        "missing": MISSING,
    }


def outcome(check, obj):
    """The value a checker returns, or the type and message it raises."""
    try:
        return check(obj)
    except ToolkitError as exc:
        return type(exc), str(exc)


CERTIFICATES = ([(f"golden:{name}", obj.get("arity", 2), obj)
                 for name, obj in golden_certificates().items()]
                + [(f"arity{k}:{name}", k, obj) for k in (3, 4)
                   for name, obj in built_certificates(k).items()])


WRITERS = {NormalWord: (witnesses.dumps_normal_word, normal_word_to_obj),
           CommutatorWord: (witnesses.dumps_commutator_word, commutator_word_to_obj),
           SimpleWitness: (witnesses.dumps_simple_witness, simple_witness_to_obj)}


def written(cert, target) -> str:
    """The writer's text for a certificate, once it is checked to be
    json.dumps of the oracle object and to read back as the certificate
    and its target."""
    write, oracle = WRITERS[type(cert)]
    text = write(cert, target)
    assert text == json.dumps(oracle(cert, target), indent=2, sort_keys=True)
    assert certificate_from_obj(json.loads(text)) == (cert, target)
    return text


class TestWriters:
    """Each certificate writer gives the text of json.dumps(obj, indent=2,
    sort_keys=True) on the object its oracle in `helpers` builds."""

    @pytest.mark.parametrize("name, arity, obj", CERTIFICATES,
                             ids=[name for name, _, _ in CERTIFICATES])
    def test_matches_the_oracle(self, name, arity, obj):
        cert, target = certificate_from_obj(obj, arity)
        written(cert, cert.evaluate() if target is None else target)

    @pytest.mark.parametrize("name", [name for name in test_golden.CERTIFYING
                                      if not name.startswith("claim2")])
    def test_prints_the_golden(self, name):
        text = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert written(*certificate_from_obj(json.loads(text))) + "\n" == text

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_random_certificates(self, arity):
        """Words of up to 4 letters, or up to 6 factors, over a small pool
        holding {e->e}, with factors and conjugator words repeated both as
        the same objects and as equal copies."""
        rng = random.Random(190 + arity)
        pool = [random_element(rng, arity, 3) for _ in range(6)] + [identity(arity)]
        pool.append(parse_element(str(pool[0]), arity))           # an equal copy

        def commutator_word():
            factors = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(5))]
            return CommutatorWord(tuple(factors + factors[:rng.randrange(3)]), arity)

        base = random_element(rng, arity, 3, nontrivial=True)
        for _ in range(30):
            target = rng.choice(pool)
            letters_ = tuple((rng.choice(pool), rng.choice((1, -1)))
                             for _ in range(rng.randrange(5)))
            word = NormalWord(base, letters_)
            certs = [commutator_word() for _ in letters_]
            if certs:
                certs[-1] = rng.choice(certs)                       # a shared word
            for cert in (word, commutator_word(), SimpleWitness(word, tuple(certs))):
                written(cert, target)

    def test_empty_words(self):
        base = rotation(3)
        for cert in (NormalWord(base), CommutatorWord((), 3),
                     SimpleWitness(NormalWord(base), ())):
            assert '": []' in written(cert, identity(3))


class TestVerifyTarget:
    """verify_certificate accepts a target whose text is the value's
    canonical literal without parsing it; every other target is parsed and
    compared.  Checked against verify_parse_target, which parses every
    literal first, on target texts that denote the value, another element
    or nothing."""

    @pytest.mark.parametrize("name, arity, obj", CERTIFICATES,
                             ids=[name for name, _, _ in CERTIFICATES])
    def test_matches_parsing_the_target_first(self, name, arity, obj):
        cert, _ = certificate_from_obj(obj, arity)
        canonical = str(cert.evaluate())
        for variant, word in word_variants(obj).items():
            for mutation, target in target_mutations(canonical, arity).items():
                mutated = with_target(word, target)
                expected = outcome(lambda o: verify_parse_target(o, arity), mutated)
                assert outcome(lambda o: verify_certificate(o, arity), mutated) == expected, \
                    (variant, mutation)

    def test_mutations_reach_every_outcome(self):
        """The mutations above accept, refuse with a verification failure
        and refuse with a parse error, so the comparison is not vacuous."""
        obj = json.loads((GOLDEN / "derived_conj.txt").read_text())
        kinds = {mutation: outcome(verify_parse_target, with_target(obj, target))
                 for mutation, target in target_mutations(obj["target"], 2).items()}
        for mutation in ("canonical", "spaces", "reordered", "split_pair"):
            assert str(kinds[mutation]) == obj["target"], mutation
        assert kinds["wrong_element"][0] is VerificationError
        for mutation in ("grammar_error", "unbraced", "off_alphabet", "incomplete_code",
                         "int", "null", "missing"):
            assert kinds[mutation][0] is ParseError, mutation

    @pytest.mark.parametrize("arity", [11, 1, 0, -3])
    def test_out_of_range_arity_refused_as_parsing_the_target_first(self, arity):
        """An empty commutator word at the arity, and a simple witness
        naming it over an empty arity-2 witness: both are refused before
        any literal is read."""
        word = {"kind": "commutator_word", "arity": arity, "factors": [], "target": "{e->e}"}
        simple = {"kind": "simple_witness", "arity": arity, "conjugators": [],
                  "witness": {"kind": "normal_word", "arity": 2, "base": SWAP,
                              "letters": [], "target": "{e->e}"}}
        for obj in (word, simple):
            expected = outcome(verify_parse_target, obj)
            assert expected == (ParseError, "malformed certificate: arity must be between "
                                f"2 and 10, got {arity}")
            assert outcome(verify_certificate, obj) == expected

    @pytest.mark.parametrize("arity, other", [(2, 3), (3, 2), (4, 3)])
    def test_conjugators_of_another_arity_refused_after_the_target(self, arity, other):
        """A simple witness whose conjugator words name another arity than
        its witness is malformed; a malformed witness target is reported
        in its place, as a reader parsing it first would."""
        rotate = str(rotation(arity))
        obj = {"kind": "simple_witness", "arity": other,
               "witness": {"kind": "normal_word", "arity": arity, "base": rotate,
                           "letters": [{"conj": "{e->e}", "exp": 1}]},
               "conjugators": [{"kind": "commutator_word", "factors": []}]}
        for mutation, target in target_mutations(rotate, arity).items():
            mutated = with_target(obj, target)
            expected = outcome(verify_parse_target, mutated)
            assert outcome(verify_certificate, mutated) == expected, mutation
            if mutation in ("canonical", "spaces", "reordered", "split_pair", "wrong_element",
                            "missing"):
                assert expected == (ParseError, "malformed certificate: mixed arities "
                                    f"{arity} and {other}"), mutation
            else:
                assert expected[0] is ParseError and "mixed" not in expected[1], mutation

    @pytest.mark.parametrize("name, arity, obj", CERTIFICATES,
                             ids=[name for name, _, _ in CERTIFICATES])
    def test_literal_text_is_compared_before_whitespace_is_removed(self, monkeypatch, name,
                                                                   arity, obj):
        """A target that is the value's literal as it stands is accepted
        with no whitespace scan and no parse, one with interior whitespace
        after one scan and no parse, and a non-canonical one (a pair split
        into its children) after a scan and a parse.  Each verdict is that
        of verify_parse_target."""
        cert, _ = certificate_from_obj(obj, arity)
        literal = str(cert.evaluate())
        interior = literal.replace(",", ", ").replace("->", " ->\n")
        cases = [(literal, 0, 0), (interior, 1, 0),
                 (target_mutations(literal, arity)["split_pair"], 1, 1)]
        stripped = []
        monkeypatch.setattr(witnesses, "_strip",
                            lambda text: stripped.append(text) or _strip(text))
        texts = self.parsed_texts(monkeypatch)
        certificate_from_obj(with_target(obj, MISSING), arity)
        word_texts = texts[:]
        for target, scans, parses in cases:
            mutated = with_target(obj, target)
            stripped.clear()
            texts.clear()
            assert verify_certificate(mutated, arity) == verify_parse_target(mutated, arity)
            assert (stripped, texts[:len(word_texts)]) == ([target] * scans, word_texts)
            assert texts[len(word_texts):] == [target] * parses

    @staticmethod
    def parsed_texts(monkeypatch, module=witnesses) -> list:
        texts = []

        def parse(text, arity=2):
            texts.append(text)
            return parse_element(text, arity)

        monkeypatch.setattr(module, "parse_element", parse)
        return texts

    @pytest.mark.parametrize("name", sorted(n for n, o in golden_certificates().items()
                                            if "target" in o.get("witness", o)))
    def test_target_is_parsed_only_when_not_canonical(self, monkeypatch, name):
        """verify parses the literals of the word, as a reader of the
        certificate without its target does, and the target only when it
        is not the canonical literal: golden targets are canonical, except
        that of noncanonical_target.json.  The literals come in the order
        verify_parse_target reads those of the certificate without its
        target, and the target last when it is parsed.  A simple witness is
        also read with its first conjugator target spaced, a text no other
        literal shares, which that order parses before the conjugator's
        factors."""
        obj = golden_certificates()[name]
        target = obj.get("witness", obj)["target"]
        cert, parsed = certificate_from_obj(obj)
        canonical = str(cert.evaluate())
        assert (target != canonical) == (name == "noncanonical_target")
        texts = self.parsed_texts(monkeypatch)
        certificate_from_obj(with_target(obj, MISSING))
        word_texts = texts[:]
        texts.clear()
        assert verify_certificate(obj) == parsed
        assert texts == word_texts + [target] * (target != canonical)
        variants = [obj]
        if obj["kind"] == "simple_witness":
            spaced = copy.deepcopy(obj)
            conj = spaced["witness"]["letters"][0]["conj"]
            spaced["conjugators"][0]["target"] = " " + conj.replace(",", " , ")
            variants.append(spaced)
        reference = self.parsed_texts(monkeypatch, helpers)
        for variant in variants:
            assert verify_parse_target(variant) == parsed
            reference.clear()
            with pytest.raises(ParseError, match="no target"):
                verify_parse_target(with_target(variant, MISSING))
            texts.clear()
            assert verify_certificate(variant) == parsed
            assert texts == reference + [target] * (target != canonical)


class TestCommutingChain:
    def test_small_cylinders(self):
        ya, yb = C("[00]"), C("[01]")
        g, h = commuting_chain(ya, yb)
        assert g.image(ya).disjoint(ya)
        assert h.image(ya).disjoint(g.image(ya))
        assert h.image(ya).disjoint(yb)

    def test_same_region(self):
        ya = C("[0]")
        g, h = commuting_chain(ya, ya)
        assert g.image(ya).disjoint(ya)
        assert h.image(ya).disjoint(g.image(ya))
        assert h.image(ya).disjoint(ya)

    def test_disjointness_implies_commutation(self):
        rng = random.Random(49)
        for _ in range(40):
            ya = random_clopen(rng)
            yb = random_clopen(rng)
            g, h = commuting_chain(ya, yb)
            a = random_rist_element(rng, ya)
            b = random_rist_element(rng, yb)
            ga = g * a * g.inverse()
            ha = h * a * h.inverse()
            assert commutator(a, ga).is_identity()
            assert commutator(ga, ha).is_identity()
            assert commutator(ha, b).is_identity()

    def test_full_union_allowed(self):
        g, h = commuting_chain(C("[0]"), C("[1]"))
        assert g.image(C("[0]")).disjoint(C("[0]"))

    def test_improper_rejected(self):
        with pytest.raises(PreconditionError):
            commuting_chain(C("[e]"), C("[0]"))
