import gc
import random
import time
from dataclasses import FrozenInstanceError
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorwit.clopen import (ARITIES, ClopenSet, canonicalize, cylinder, letters, merge_siblings,
                             refine, whole_space)
from cantorwit.corpus import random_clopen, random_code, random_element
from cantorwit.errors import ArityMismatchError, PreconditionError, ToolkitError
from cantorwit import prefixmap
from cantorwit.literals import parse_clopen, parse_element
from cantorwit.prefixmap import (_CHAIN, _DEFER_PAIRS, PrefixMap, _check_complete_code, _element,
                                 _swap, compose, identity, onto_transporter, patch, sigma_swap)
from cantorwit.witnesses import CommutatorWord, NormalWord

from helpers import (all_words, apply_pairs, compose_full_scan, is_complete_code, lenlex,
                     maps_equal, member, merge_siblings_worklist, moved_cylinder_pairs,
                     patch_pairwise, reduce_table, refine_table, sigma_swap_two_pass, view)

E = parse_element
C = parse_clopen


def seeded_elements(seed, count, **kw):
    rng = random.Random(seed)
    return [random_element(rng, **kw) for _ in range(count)]


def walk_table(g_pairs, h_pairs) -> dict:
    """The unreduced table of g·h through the library walk, as `compose`
    builds it: h's range-to-domain table refined with g's pair table."""
    return refine(view({r: d for d, r in h_pairs}), view(dict(g_pairs)))


class TestReduce:
    def test_empty_pair_list(self):
        with pytest.raises(PreconditionError, match="at least one pair"):
            PrefixMap.from_pairs([])

    def test_identity_reduction(self):
        assert E("{00->00,01->01,1->1}") == identity()

    def test_sibling_merge(self):
        assert E("{00->10,01->11,1->0}") == E("{0->1,1->0}")

    def test_six_pair_refinement(self):
        # a refinement of {0->00,10->01,11->1}, pair by pair
        refined = E("{00->000,01->001,100->010,101->011,110->10,111->11}")
        assert refined == E("{0->00,10->01,11->1}")

    def test_incomplete_domain(self):
        with pytest.raises(PreconditionError):
            PrefixMap.from_pairs([("0", "00"), ("10", "01")])

    def test_overlapping_domain(self):
        with pytest.raises(PreconditionError):
            PrefixMap.from_pairs([("0", "0"), ("01", "10"), ("1", "11")])

    def test_incomplete_range(self):
        with pytest.raises(PreconditionError):
            PrefixMap.from_pairs([("0", "00"), ("1", "01")])

    def test_reduction_soundness_on_random_refinements(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_element(rng)
            refined = []
            for d, r in g.pairs:
                if rng.random() < 0.5:
                    refined.extend((d + c, r + c) for c in "01")
                else:
                    refined.append((d, r))
            assert PrefixMap.from_pairs(refined, 2) == g

    @pytest.mark.parametrize("arity", range(2, 11))
    def test_code_check_matches_oracle(self, arity):
        # random complete codes of depth at most `depth`, arity**depth <= 50 000,
        # then a word dropped, added, duplicated or extended, or an overlap
        rng = random.Random(40 + arity)
        alpha = "0123456789"[:arity]
        depth = max(d for d in range(1, 17) if arity ** d <= 50_000)
        verdicts = set()
        for _ in range(300 if arity <= 4 else 100):
            words = [""]
            for _ in range(rng.randint(0, 24 // arity + 4)):
                w = rng.choice(words)
                if len(w) < depth - 1:
                    words.remove(w)
                    words += [w + c for c in alpha]
            fault = rng.choice(["none", "drop", "add", "duplicate", "extend", "overlap"])
            w = rng.choice(words)
            if fault == "drop":
                words.remove(w)
            elif fault == "add":
                words.append("".join(rng.choices(alpha, k=rng.randint(0, depth))))
            elif fault == "duplicate":
                words.append(w)
            elif fault == "extend":
                words[words.index(w)] = w + rng.choice(alpha)
            elif fault == "overlap":
                words.append(w[:rng.randint(0, len(w))] if rng.random() < 0.5
                             else w + rng.choice(alpha))
            rng.shuffle(words)
            complete = is_complete_code(words, arity)
            verdicts.add(complete)
            overlap = any(u.startswith(v) or v.startswith(u)
                          for i, u in enumerate(words) for v in words[i + 1:])
            try:
                accepted = _check_complete_code(words, arity, "domain") == sorted(words)
            except PreconditionError as exc:
                accepted = False
                assert str(exc).startswith("domain words overlap" if overlap
                                           else "incomplete domain code"), words
            assert accepted == complete, words
        assert verdicts == {True, False}

    def test_deep_comb_rejected_in_linear_time(self):
        # arity 10: the nine words 0^i·c at every level i below 156, and one
        # word of a million symbols under the gap 0^156 that they leave
        comb = ["0" * i + c for i in range(156) for c in "123456789"]
        comb.append("0" * 10**6)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="^incomplete domain code$"):
            PrefixMap.from_pairs(list(zip(comb, comb)), 10)
        assert time.perf_counter() - start < 1

    def test_literal_of_131072_pairs_parses(self):
        words = all_words(2, 17)
        pairs = tuple((w, w[:-1] + "10"[int(w[-1])]) for w in words)
        text = "{" + ",".join(f"{d}->{r}" for d, r in pairs) + "}"
        assert len(text) > 4_800_000
        assert parse_element(text).pairs == pairs

    def test_symbol_out_of_range_names_the_first_bad_word(self):
        with pytest.raises(ArityMismatchError,
                           match=r"^symbol '2' out of range for arity 2 in word '02'$"):
            PrefixMap.from_pairs([("0", "1"), ("1", "02"), ("2", "0")], 2)
        with pytest.raises(ArityMismatchError, match="arity must be between 2 and 10"):
            PrefixMap.from_pairs([("", "")], 11)


def word_tables(seed, arity, count):
    """Word tables that merge_siblings meets or could meet, by kind:
    refinements of reduced elements, unreduced product tables, cascades
    that merge down to the empty word, and clopen codes whose sibling
    families are partial."""
    rng = random.Random(seed)
    alpha = "0123"[:arity]
    depth = {2: 5, 3: 3, 4: 3}[arity]
    tables = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            table = dict(random_element(rng, arity, depth).pairs)
            for _ in range(rng.randint(0, 8)):
                d = rng.choice(list(table))
                r = table.pop(d)
                table.update((d + c, r + c) for c in alpha)
        elif kind == 1:
            g, h = (random_element(rng, arity, depth) for _ in range(2))
            table = walk_table(g.pairs, rng.choice([h, g.inverse()]).pairs)
        elif kind == 2:
            stem = "".join(rng.choices(alpha, k=rng.randint(0, 3)))
            words = rng.choice([all_words(arity, rng.randint(0, depth - 1)),
                                random_code(rng, arity, depth)])
            table = {w: stem + w for w in words}
        else:
            code = random_code(rng, arity, depth)
            table = {w: w for w in rng.sample(code, rng.randint(1, len(code)))}
        tables.append(table)
    return tables


class TestMergeSiblings:
    """The once-per-family sibling merge, the step-reduced product and
    the two-sort orders against the plain versions they replace."""

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_worklist_oracle(self, arity):
        merged_to_root = partial = 0
        for table in word_tables(60 + arity, arity, 400):
            out = merge_siblings(dict(table), arity)
            assert out == merge_siblings_worklist(dict(table), arity), table
            merged_to_root += len(out) == 1 and "" in out
            partial += len(out) == len(table)
        assert merged_to_root and partial

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_reduced_tables_are_reduced_elements(self, arity):
        tables = word_tables(70 + arity, arity, 200)
        for table in tables[0::4] + tables[1::4]:   # complete codes on both sides
            pairs = reduce_table(dict(table), arity)
            assert PrefixMap.from_pairs(pairs, arity).pairs == pairs

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_orders_are_lenlex(self, arity):
        for table in word_tables(80 + arity, arity, 200):
            merged = merge_siblings_worklist(dict(table), arity)
            assert reduce_table(dict(table), arity) == tuple(
                sorted(merged.items(), key=lambda pr: lenlex(pr[0])))
            assert canonicalize(table, arity).code == tuple(
                sorted(merge_siblings_worklist({w: w for w in table}, arity), key=lenlex))
        for g in seeded_elements(90 + arity, 100, arity=arity, max_depth=4):
            assert g.inverse().pairs == tuple(
                sorted(((r, d) for d, r in g.pairs), key=lambda pr: lenlex(pr[0])))

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_compose_matches_reduced_products(self, arity):
        els = seeded_elements(100 + arity, 120, arity=arity, max_depth=4)
        for f, g, h in zip(els, els[1:], els[2:]):
            assert compose(f, g, h) == f * g * h
            assert compose(f, f.inverse(), g) == g
        assert compose(els[0]) == els[0]


class TestSeededMerge:
    """compose's walk and its seeded sibling merge against the nested-loop
    refinement with a full-scan merge, and against from_pairs of the
    unreduced table (shallow words above arity 4)."""

    DEPTH = {2: 5, 3: 3, 4: 3}

    @classmethod
    def chains(cls, seed, arity, count):
        """Random chains of 2-5 factors, chains g·g^-1 that collapse to the
        identity, and chains whose unreduced intermediates hold full
        sibling families (a prefix that cancels, then more factors), which
        the merge of an intermediate step reduces."""
        rng = random.Random(seed)
        pool = seeded_elements(seed, 40, arity=arity, max_depth=cls.DEPTH.get(arity, 2))
        for i in range(count):
            kind = i % 3
            if kind == 0:
                yield rng.choices(pool, k=rng.randint(2, 5))
            elif kind == 1:
                gs = rng.choices(pool, k=rng.randint(1, 2))
                yield gs + [g.inverse() for g in reversed(gs)]
            else:
                f, g = rng.choices(pool, k=2)
                head = rng.choice([[f, f.inverse()], [f, g, (f * g).inverse()]])
                yield head + rng.choices(pool, k=rng.randint(1, 2))

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_full_scan_and_from_pairs(self, arity):
        collapsed = families = 0
        for chain in self.chains(110 + arity, arity, 150):
            table = chain[0].pairs
            for k, g in enumerate(chain[1:], 1):
                table = walk_table(table, g.pairs)
                if k < len(chain) - 1:
                    families += len(merge_siblings(dict(table), arity)) < len(table)
            product = compose(*chain)
            assert product == compose_full_scan(*chain), chain
            assert product == PrefixMap.from_pairs(list(table.items()), arity)
            collapsed += product.is_identity()
        assert collapsed and families

    @pytest.mark.parametrize("arity", ARITIES)
    def test_walk_matches_refine_table(self, arity):
        for chain in self.chains(120 + arity, arity, 60):
            table = chain[0].pairs
            for g in chain[1:]:
                walked = walk_table(table, g.pairs)
                assert walked == refine_table(table, g.pairs)
                table = walked


def warmed(g):
    """g with both cached views and its inverse computed."""
    g._domain, g._range, g.inverse()
    return g


def assert_cache_matches_pairs(g):
    """Every view cached on g equals one recomputed from its pairs, and a
    cached inverse is the inverse of the pairs, linked back to g, whose
    range view holds g's own domain table and keys (not copies) and still
    equals a range view recomputed from the inverse's pairs."""
    fresh = PrefixMap.from_pairs(g.pairs, g.arity)
    for name in ("_domain", "_range"):
        if name in g.__dict__:
            assert g.__dict__[name] == getattr(fresh, name), (name, g)
    if "_inverse" in g.__dict__:
        inv = g.__dict__["_inverse"]
        assert inv == fresh.inverse() and inv.inverse() is g, g
        table, keys = inv.__dict__["_range"]
        assert table is g._domain[0] and keys is g._domain[1], g
        assert inv._range == PrefixMap.from_pairs(inv.pairs, inv.arity)._range, g


class TestCachedViews:
    """The views and the inverse kept on each element change neither its
    value nor its identity as a value, and no later operation writes to
    them."""

    DEPTH = {2: 5, 3: 3, 4: 3}

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_warmed_element_equals_fresh(self, arity):
        els = seeded_elements(130 + arity, 40, arity=arity, max_depth=self.DEPTH[arity])
        for g in els + [f * g for f, g in zip(els, els[1:])]:
            fresh = PrefixMap.from_pairs(g.pairs, g.arity)
            warmed(g)
            assert g == fresh and fresh == g
            assert hash(g) == hash(fresh)
            assert repr(g) == repr(fresh) and str(g) == str(fresh)
            assert g.inverse() == fresh.inverse() and hash(g.inverse()) == hash(fresh.inverse())

    @classmethod
    def chain_of_operations(cls, seed, arity):
        """A pool of elements after a seeded chain of products, inverses,
        powers, restrictions and images, none of which reads pairs."""
        depth = cls.DEPTH[arity]
        rng = random.Random(seed)
        pool = seeded_elements(seed, 12, arity=arity, max_depth=depth)
        for _ in range(300):
            op = rng.randrange(5)
            g = rng.choice(pool)
            if op == 0:
                pool.append(g * rng.choice(pool))
            elif op == 1:
                pool.append(g.inverse())
            elif op == 2:
                pool.append(g ** rng.choice([-3, -2, -1, 2, 3]))
            elif op == 3:
                g.restrict(random_clopen(rng, arity, depth))
            else:
                g.image(random_clopen(rng, arity, depth))
            if len(pool) > 40:
                pool = rng.sample(pool, 20)
        return pool

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_views_survive_a_chain_of_operations(self, arity):
        checked = set()
        for g in self.chain_of_operations(140 + arity, arity):
            for h in (g, g.inverse()):
                assert_cache_matches_pairs(h)
                checked.update(n for n in ("_domain", "_range") if n in h.__dict__)
        assert checked == {"_domain", "_range"}

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_inverse_of_fresh_element_pointwise(self, arity):
        depth = self.DEPTH[arity]
        words = all_words(arity, depth + 1)
        for g in seeded_elements(150 + arity, 40, arity=arity, max_depth=depth):
            inv = PrefixMap.from_pairs(g.pairs, g.arity).inverse()
            longest = max(len(w) for pair in g.pairs for w in pair)
            for w in words:
                w += "0" * longest
                assert apply_pairs(inv.pairs, apply_pairs(g.pairs, w)) == w
                assert apply_pairs(g.pairs, apply_pairs(inv.pairs, w)) == w

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_products_of_warmed_factors_match_full_scan(self, arity):
        els = [warmed(g) for g in
               seeded_elements(160 + arity, 40, arity=arity, max_depth=self.DEPTH[arity])]
        acc = els[0]
        for k, (f, g, h) in enumerate(zip(els, els[1:], els[2:]), 2):
            assert f * g == compose_full_scan(f, g)
            assert compose(f, g.inverse(), h) == compose_full_scan(f, g.inverse(), h)
            acc = warmed(acc * g)
            assert acc == compose_full_scan(*els[:k])
            assert_cache_matches_pairs(acc)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_fresh_elements_carry_their_domain(self, arity):
        # parsed literals, pairs whose sibling families merge, and inverses
        letters = "0123"[:arity]
        for g in seeded_elements(170 + arity, 40, arity=arity, max_depth=self.DEPTH[arity]):
            split = [(d + c, r + c) for d, r in g.pairs for c in letters]
            for fresh in (parse_element(str(g), arity), PrefixMap.from_pairs(split, arity),
                          PrefixMap.from_pairs(g.pairs, arity).inverse()):
                assert "_domain" in fresh.__dict__
                assert_cache_matches_pairs(fresh)
                assert fresh in (g, g.inverse())

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_pairs_are_built_only_when_read(self, arity):
        pool = self.chain_of_operations(180 + arity, arity) + [identity(arity)]
        for g in pool:
            hash(g)
            assert "pairs" not in g.__dict__ and "_domain" in g.__dict__
        g = pool[-1]
        assert g.pairs is g.__dict__["pairs"]

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_unread_pairs_agree_with_a_fresh_element(self, arity):
        """An element whose pairs were never read, against one built from
        its pairs in canonical order (sorted here from its table), and one
        with the same table at another arity: equality, hashing and the
        identity test read no pairs; repr, str and the moved cylinder build
        them."""
        pool = self.chain_of_operations(190 + arity, arity)
        pool.append(pool[0] * pool[0].inverse())
        pool = list({id(g): g for g in pool}.values())  # a cached inverse, or g * e, recurs
        for g in pool:
            pairs = sorted(g._domain[0].items(), key=lambda pr: lenlex(pr[0]))
            fresh = PrefixMap.from_pairs(pairs, g.arity)
            assert g == fresh and fresh == g and not g != fresh
            assert g != 5 and (g == "{e->e}") is False
            assert g != _element(*fresh._domain, arity + 1)
            assert g.is_identity() == fresh.is_identity()
            assert hash(g) == hash(fresh)
            assert "pairs" not in g.__dict__
            assert repr(g) == repr(fresh) and str(g) == str(fresh)
            if fresh.is_identity():
                with pytest.raises(PreconditionError, match="moves no cylinder"):
                    g.moved_cylinder()
            else:
                assert g.moved_cylinder() == fresh.moved_cylinder()

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_literal_is_formatted_once(self, arity):
        """str returns the literal cached on first read, formatted from the
        table without building `pairs`: the text a fresh formatting of the
        pairs gives, which parses back to the element, and caching it
        leaves the element frozen."""
        els = seeded_elements(160 + arity, 40, arity=arity, max_depth=self.DEPTH[arity])
        pool = els + [h.inverse() for h in els] + [f * h for f, h in zip(els, els[1:])]
        pool += [identity(arity), els[0] * els[0].inverse()]
        texts = [str(g) for g in pool]
        assert not any("pairs" in g.__dict__ for g in pool)
        for g, text in zip(pool, texts):
            assert text == "{" + ",".join(f"{d or 'e'}->{r or 'e'}" for d, r in g.pairs) + "}"
            assert str(g) is text
            assert parse_element(text, arity) == g
            for name in ("_literal", "arity", "other"):
                with pytest.raises(FrozenInstanceError):
                    setattr(g, name, "{e->e}")
                with pytest.raises(FrozenInstanceError):
                    delattr(g, name)
            assert str(g) is text

    VIEWS = ("pairs", "_literal", "_range", "_inverse", "_hash")

    @staticmethod
    def read_views(g):
        """Read every view of g, and its hash, string and repr."""
        for name in TestCachedViews.VIEWS:
            getattr(g, name)
        hash(g), str(g), repr(g)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_equal_elements_hash_alike(self, arity):
        """Equal elements hash alike however they were built: from shuffled
        or split pairs, as products, as inverses or from their literals;
        and reading every view leaves each hash as it was."""
        rng = random.Random(220 + arity)
        alphabet = letters(arity)
        els = seeded_elements(220 + arity, 30, arity=arity, max_depth=self.DEPTH[arity])
        for g, h in zip(els, els[1:]):
            shuffled = list(g.pairs)
            rng.shuffle(shuffled)
            split = [(d + c, r + c) for d, r in g.pairs for c in alphabet]
            rng.shuffle(split)
            swapped = [(r, d) for d, r in g.inverse().pairs]
            builds = [PrefixMap.from_pairs(shuffled, arity), PrefixMap.from_pairs(split, arity),
                      (g * h) * h.inverse(), h.inverse() * (h * g),
                      PrefixMap.from_pairs(swapped, arity), parse_element(str(g), arity)]
            inverses = [PrefixMap.from_pairs([(r, d) for d, r in g.pairs], arity),
                        h * (g * h).inverse(), parse_element(str(g.inverse()), arity)]
            for same, other in [(g, builds), (g.inverse(), inverses)]:
                before = [hash(x) for x in (same, *other)]
                for x in (same, *other):
                    assert x == same and hash(x) == hash(same)
                    self.read_views(x)
                    self.read_views(x.inverse())
                assert [hash(x) for x in (same, *other)] == before
                assert all(x.__dict__["_hash"] == before[0] for x in (same, *other))

    def test_each_view_is_computed_once(self, monkeypatch):
        """A view is computed on its first read only, stored in the
        instance `__dict__`, and every later read returns that object; an
        inverse links its element's views instead of computing its own."""
        pool = [PrefixMap.from_pairs(g.pairs, g.arity) for arity in (2, 3, 4)
                for g in seeded_elements(230 + arity, 10, arity=arity, max_depth=3)]
        calls = {name: 0 for name in self.VIEWS}

        def counting(name, compute):
            def counted(g):
                calls[name] += 1
                return compute(g)
            return counted

        for name in self.VIEWS:
            view = PrefixMap.__dict__[name]
            monkeypatch.setattr(view, "compute", counting(name, view.compute))
        for g in pool:
            assert not any(name in g.__dict__ for name in self.VIEWS)
            first = {name: getattr(g, name) for name in self.VIEWS}
            self.read_views(g)
            for name in self.VIEWS:
                assert g.__dict__[name] is first[name] and getattr(g, name) is first[name]
            inv = g.inverse()
            assert inv._range is g._domain and inv.inverse() is g
        assert calls == {name: len(pool) for name in self.VIEWS}

    def test_constructor_keeps_the_table_not_the_order_of_its_pairs(self):
        """Pairs given out of canonical order make the same element: equal,
        with the same hash, repr and pairs."""
        g = E("{00->1,01->00,1->01}")
        shuffled = PrefixMap.from_pairs(reversed(g.pairs), g.arity)
        assert shuffled == g and hash(shuffled) == hash(g)
        assert repr(shuffled) == repr(g) and shuffled.pairs == g.pairs

    def test_only_from_pairs_builds_an_element(self):
        """The class itself takes no pairs, so a list that is not a
        bijection becomes an element only through `from_pairs`, which
        refuses it; `repr` writes that call."""
        with pytest.raises(TypeError):
            PrefixMap((("0", "0"),), 2)
        with pytest.raises(PreconditionError, match="^incomplete domain code$"):
            PrefixMap.from_pairs([("0", "0")], 2)
        for g in (identity(3), E("{00->1,01->00,1->01}")):
            assert eval(repr(g)) == g

    def test_attributes_cannot_be_assigned_or_deleted(self):
        for g in (identity(3), E("{0->1,1->0}") * E("{0->10,10->11,11->0}")):
            for name in ("pairs", "arity", "_domain", "_range", "_inverse", "other"):
                with pytest.raises(FrozenInstanceError):
                    setattr(g, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(g, name)
            assert g == PrefixMap.from_pairs(g.pairs, g.arity)


class TestIdentityFactors:
    """`compose` checks every factor's arity, then drops identity factors."""

    @staticmethod
    def moving(arity, seed):
        return [g for g in seeded_elements(seed, 8, arity=arity, max_depth=3)
                if not g.is_identity()]

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_identity_factors_drop_out(self, arity):
        e = identity(arity)
        for g in self.moving(arity, 190 + arity):
            for factors in ((e, g), (g, e), (e, g, e), (e, e, g), (g, e, e), (g,)):
                assert compose(*factors) is g
            assert e * g is g and g * e is g
            assert compose(e, identity(arity)) is e and compose(e) is e
        for f, g in zip(self.moving(arity, 200 + arity), self.moving(arity, 210 + arity)):
            assert compose(e, f, e, g, e) == compose(f, g) == compose_full_scan(f, g)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_mixed_arities_raise_with_an_identity_anywhere(self, arity):
        other = 2 if arity > 2 else 3
        e, x = identity(arity), identity(other)
        g = self.moving(arity, 220 + arity)[0]
        for factors in ((g, x), (x, g), (e, x), (x, e), (g, e, x), (x, e, g), (e, x, e)):
            with pytest.raises(ArityMismatchError,
                               match=f"mixed arities {factors[0].arity} and"):
                compose(*factors)
        with pytest.raises(ArityMismatchError):
            NormalWord(g, ((x, 1),)).evaluate()
        with pytest.raises(ArityMismatchError, match=f"mixed arities {arity} and {other}"):
            CommutatorWord(((x, x),), arity).evaluate()

    def test_empty_words_evaluate_to_the_identity(self):
        base = parse_element("{0->1,1->2,2->0}", 3)
        for word in (CommutatorWord((), 3), NormalWord(base)):
            value = word.evaluate()
            assert value == identity(3) and value.arity == 3


def count_refines(monkeypatch) -> list:
    """A list that gets one entry per `refine` call that `compose` makes."""
    calls = []

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(prefixmap, "refine", counted)
    return calls


def level_permutation(rng, arity, depth, moved=None):
    """A permutation of the words of length `depth`: a random one, or a
    cycle through `moved` of them, which reduces to few pairs."""
    words = all_words(arity, depth)
    if moved is None:
        images = rng.sample(words, len(words))
    else:
        cycle = rng.sample(words, moved)
        images = [dict(zip(cycle, cycle[1:] + cycle[:1])).get(w, w) for w in words]
    return PrefixMap.from_pairs(zip(words, images), arity)


def deferred(g) -> bool:
    return "_product" in g.__dict__


class TestDeferredProducts:
    """A product whose left operand is deferred or has at least
    `_DEFER_PAIRS` pairs waits for its first read, which composes its chain
    pairwise; the value is the left fold's, and `compose` and `**` never
    defer."""

    # words of the permuted level: 128, 81 and 64 at arities 2, 3 and 4
    DEPTH = {2: 7, 3: 4, 4: 3}
    LENGTHS = (1, 2, 3, 10, 63, 64, 65, 255, 256, 257, 300)

    @classmethod
    def factors(cls, arity, seed, count):
        """Cycles of 2 or 3 level words first, so that the left operand grows
        from a few pairs past `_DEFER_PAIRS`, then cycles mixed with random
        level permutations and identities."""
        rng = random.Random(seed)
        depth = cls.DEPTH[arity]
        out = [level_permutation(rng, arity, depth, rng.choice((2, 3))) for _ in range(12)]
        while len(out) < count:
            out.append(rng.choice((level_permutation(rng, arity, depth),
                                   level_permutation(rng, arity, depth, 2),
                                   identity(arity))))
        return out

    @staticmethod
    def chain(factors):
        """The product through `*`, with the left operand's pair count or
        None (deferred) before each step."""
        x, lefts = factors[0], []
        for f in factors[1:]:
            lefts.append(None if deferred(x) else len(x._domain[0]))
            x = x * f
            assert not deferred(x) or x.__dict__["_product"][2] <= _CHAIN
        return x, lefts

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_chains_match_the_full_scan_fold(self, arity):
        fs = self.factors(arity, 310 + arity, max(self.LENGTHS))
        expected, acc = {}, fs[0]
        for n, f in enumerate(fs, start=1):
            acc = acc if n == 1 else compose_full_scan(acc, f)
            if n in self.LENGTHS:
                expected[n] = acc
        for n in self.LENGTHS:
            x, lefts = self.chain(fs[:n])
            if n >= 64:
                assert None in lefts and any(p is not None and p < _DEFER_PAIRS for p in lefts)
                assert any(p is not None and p >= _DEFER_PAIRS for p in lefts)
            assert x == expected[n] and str(x) == str(expected[n]) and x.pairs == expected[n].pairs

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_chains_that_cancel_read_as_the_identity(self, arity):
        fs = [f for f in self.factors(arity, 320 + arity, 150) if not f.is_identity()]
        for half in (fs[:3], fs[:40], fs):
            x, _ = self.chain(half + [f.inverse() for f in reversed(half)])
            assert x.is_identity() and str(x) == "{e->e}" and x == identity(arity)
        big = max(fs, key=lambda f: len(f.pairs))
        x = big * big.inverse()
        assert deferred(x) and x.is_identity() and str(x) == "{e->e}"

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_mixed_arities_raise_at_the_product(self, arity):
        other = 2 if arity > 2 else 3
        big = max(self.factors(arity, 330 + arity, 20), key=lambda f: len(f.pairs))
        far = max(self.factors(other, 340 + other, 20), key=lambda f: len(f.pairs))
        small = identity(arity)
        chained = big * big
        far_chained = far * far
        assert deferred(chained) and deferred(far_chained)
        for left, right in ((big, far), (chained, far), (chained, far_chained), (small, far_chained),
                            (far_chained, small), (far, chained)):
            with pytest.raises(ArityMismatchError,
                               match=f"^mixed arities {left.arity} and {right.arity}$"):
                left * right

    def test_long_right_nested_product_does_not_recurse(self):
        rng = random.Random(350)
        big = level_permutation(rng, 2, 7)
        start = x = level_permutation(rng, 2, 7, 3)
        for _ in range(3000):
            x = big * x
        assert deferred(x)
        assert x == compose(big ** 3000, start)

    def test_shared_left_operand_is_composed_once(self, monkeypatch):
        fs = self.factors(2, 360, 40)
        x = fs[0]
        for f in fs[1:-2]:
            x = x * f
        assert deferred(x)
        y, z = x * fs[-2], x * fs[-1]
        y_value, z_value = compose(*fs[:-1]), compose(*fs[:-2], fs[-1])
        calls = count_refines(monkeypatch)
        y._domain
        assert "_domain" in x.__dict__ and not deferred(x)
        before = len(calls)
        z._domain
        assert len(calls) - before == 1
        assert y == y_value and z == z_value

    def test_unread_chain_holds_at_most_the_chain_bound(self):
        rng = random.Random(370)
        pool = [level_permutation(rng, 2, 6) for _ in range(20)]
        fs = [rng.choice(pool) for _ in range(10_000)]
        x, lefts = self.chain(fs)
        assert lefts.count(None) > 9_000
        live = sum(1 for g in gc.get_objects() if g.__class__ is PrefixMap and deferred(g))
        assert deferred(x) and live <= _CHAIN
        assert x == compose(*fs)

    def test_deferred_products_are_frozen_and_hash_as_their_value(self):
        fs = self.factors(2, 380, 30)
        big = max(fs, key=lambda f: len(f.pairs))
        for make, value in ((lambda: big * fs[0], compose(big, fs[0])),
                            (lambda: self.chain(fs)[0], compose(*fs))):
            g = make()
            assert deferred(g)
            for name in ("pairs", "arity", "_domain", "_product", "other"):
                with pytest.raises(FrozenInstanceError):
                    setattr(g, name, None)
                with pytest.raises(FrozenInstanceError):
                    delattr(g, name)
            assert deferred(g) and hash(g) == hash(value) and g == value
            assert make() == value and value == make() and {make(), value} == {value}

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_identity_operands_return_the_other(self, arity):
        e = identity(arity)
        fs = self.factors(arity, 390 + arity, 20)
        big = max(fs, key=lambda f: len(f.pairs))
        assert len(big.pairs) >= _DEFER_PAIRS
        chained = big * fs[-2]
        assert chained * e is chained and deferred(chained)
        # `compose` reads the deferred right operand
        assert e * chained is chained and not deferred(chained)
        assert e * big is big and big * e is big
        assert chained == compose(big, fs[-2])

    def test_compose_and_powers_do_not_defer(self):
        fs = self.factors(2, 400, 20)
        big = max(fs, key=lambda f: len(f.pairs))
        for g in (compose(big, fs[-2]), compose(big, big, big), big ** 2, big ** 5, big ** -3):
            assert not deferred(g) and "_domain" in g.__dict__


class TestComposeInvert:
    def test_identity_neutral(self):
        g = E("{0->00,10->01,11->1}")
        assert identity() * g == g and g * identity() == g

    def test_involution(self):
        g = E("{0->1,1->0}")
        assert (g * g).is_identity()

    def test_contracting_square(self):
        g = E("{0->00,10->01,11->1}")
        expected = E("{0->000,10->001,110->01,111->1}")
        assert g * g == expected
        # oracle: pointwise evaluation at depth 5
        for w in all_words(2, 5):
            assert apply_pairs((g * g).pairs, w) == apply_pairs(g.pairs, apply_pairs(g.pairs, w))

    def test_inverse_cancels(self):
        g = E("{0->00,10->01,11->1}")
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            E("{0->1,1->0}") * parse_element("{0->1,1->2,2->0}", 3)

    def test_group_laws_random(self):
        els = seeded_elements(5, 60)
        for f, g, h in zip(els, els[1:], els[2:]):
            assert (f * g) * h == f * (g * h)
        for g in els:
            assert maps_equal(g * g.inverse(), identity())

    def test_compose_matches_oracle_random(self):
        rng = random.Random(6)
        for _ in range(50):
            g, h = random_element(rng), random_element(rng)
            gh = g * h
            depth = max(len(d) for d, _ in list(g.pairs) + list(h.pairs) + list(gh.pairs)) + 1
            for w in all_words(2, depth):
                assert apply_pairs(gh.pairs, w) == apply_pairs(g.pairs, apply_pairs(h.pairs, w))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_power_consistency(self, seed):
        g = random_element(random.Random(seed))
        assert g ** 3 == g * g * g
        assert g ** -2 == (g * g).inverse()
        for arity in (2, 3, 4):
            g = random_element(random.Random(seed), arity=arity)
            forward = backward = identity(arity)
            for n in range(10):
                # forward and backward are the n-fold products of g and g^-1
                assert g ** n == forward and g ** -n == backward
                assert identity(arity) ** n == identity(arity) == identity(arity) ** -n
                forward, backward = forward * g, backward * g.inverse()

    def test_power_takes_int_exponents_only(self):
        g = E("{0->1,1->0}")
        for n in (2.0, True, False, "2", None):
            with pytest.raises(TypeError, match="unsupported operand type"):
                g ** n

    def test_power_makes_logarithmically_many_compositions(self, monkeypatch):
        """Repeated squaring, whatever the size of the base: at most two
        compositions per bit of the exponent."""
        g = level_permutation(random.Random(410), 2, 6)
        assert len(g.pairs) >= _DEFER_PAIRS
        expected, acc = {0: identity()}, identity()
        checked = (0, 1, 2, 3, 7, 64, 100, 255, 256, 511, 1000)
        for n in range(1, max(checked) + 1):
            acc = compose_full_scan(acc, g)
            if n in checked:
                expected[n] = acc
        calls = count_refines(monkeypatch)
        for n in checked:
            before = len(calls)
            assert g ** n == expected[n]
            assert len(calls) - before <= 2 * n.bit_length()
            assert g ** -n == expected[n].inverse()


class TestImage:
    def test_region_of_another_arity_rejected(self):
        with pytest.raises(ArityMismatchError):
            E("{0->1,1->0}").restrict(parse_clopen("[0]", 3))

    def test_identity_image(self):
        assert identity().image(C("[01]")) == C("[01]")

    def test_contracting_image(self):
        assert E("{0->00,10->01,11->1}").image(C("[01]")) == C("[001]")

    def test_swap_image(self):
        assert E("{0->1,1->0}").image(C("[00,11]")) == C("[10,01]")

    def test_whole_space_preserved(self):
        g = E("{0->00,10->01,11->1}")
        assert g.image(whole_space()).is_full()

    def test_roundtrip(self):
        g = E("{0->00,10->01,11->1}")
        c = C("[001,1]")
        assert g.inverse().image(g.image(c)) == c

    @pytest.mark.parametrize("arity", ARITIES)
    def test_whole_space_on_either_side_of_restrict(self, arity):
        """The region [e] restricts an element to its own pairs, and the
        identity's {e->e} table restricts to each word of the region."""
        rng = random.Random(180 + arity)
        full = whole_space(arity)
        assert identity(arity).restrict(full) == [("", "")]
        for _ in range(30):
            g = random_element(rng, arity, 2)
            region = random_clopen(rng, arity, 2)
            assert dict(g.restrict(full)) == dict(g.pairs)
            assert g.image(full) == full
            assert dict(identity(arity).restrict(region)) == {w: w for w in region.code}

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_image_matches_pointwise_oracle(self, arity):
        rng = random.Random(7 + arity)
        max_depth = {2: 5, 3: 3, 4: 2}[arity]
        for _ in range(50):
            g = random_element(rng, arity, max_depth)
            c = random_clopen(rng, arity, max_depth)   # proper: a partial antichain
            img = g.image(c)
            # deep enough that every word is at least as long as every code
            # word and domain word, and its image as every image word
            shrink = max(len(d) - len(r) for d, r in g.pairs)
            depth = max([len(w) for w in c.code] + [len(d) for d, _ in g.pairs]
                        + [len(w) + shrink for w in img.code] + [1])
            for w in all_words(arity, depth):
                assert member(img.code, apply_pairs(g.pairs, w)) == member(c.code, w)

    def test_boolean_isomorphism(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_element(rng)
            a, b = random_clopen(rng, proper=False), random_clopen(rng, proper=False)
            assert g.image(a.union(b)) == g.image(a).union(g.image(b))
            assert g.image(a.complement()) == g.image(a).complement()


class TestFixesAndRist:
    def test_identity_fixes_everything(self):
        assert identity().fixes_pointwise(C("[0,10]"))

    def test_disjoint_swap_case(self):
        g = E("{00->10,10->00,01->01,11->11}")
        assert g.fixes_pointwise(C("[01,11]"))
        assert g.in_rist(C("[00,10]"))

    def test_swap_moves_everything(self):
        assert not E("{0->1,1->0}").fixes_pointwise(C("[0]"))

    def test_contracting_pair_detected(self):
        # 0 -> 00 fixes only the single point 000...; the cylinder still moves
        g = E("{0->00,10->01,11->1}")
        assert not g.fixes_pointwise(C("[0]"))
        assert not g.fixes_pointwise(C("[000]"))


class TestMovedCylinder:
    def test_incomparable(self):
        assert E("{0->1,1->0}").moved_cylinder() == C("[0]")

    def test_identity_error(self):
        with pytest.raises(PreconditionError):
            identity().moved_cylinder()

    def test_contracting_branch(self):
        # first moved pair (0, 00) is comparable: excess "0", letter "1"
        g = E("{0->00,10->01,11->1}")
        z = g.moved_cylinder()
        assert z == C("[01]")
        assert z.disjoint(g.image(z))

    def test_expanding_branch(self):
        # first moved pair in canonical order is (1, 11): excess "1", letter "0"
        g = E("{00->0,01->10,1->11}")
        z = g.moved_cylinder()
        assert z == C("[10]")
        assert z.disjoint(g.image(z))

    def test_random_corpus_disjointness(self):
        rng = random.Random(9)
        for _ in range(200):
            g = random_element(rng, nontrivial=True)
            z = g.moved_cylinder()
            assert len(z.code) == 1
            assert z.disjoint(g.image(z))

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    def test_matches_pairs_oracle(self, arity):
        """The shortest moved key of the sorted table gives the cylinder of
        the first moved pair in `pairs`, and the identity the same error;
        products and inverses carry tables `pairs` was never read from."""
        rng = random.Random(610 + arity)
        depth = {2: 5, 3: 3, 4: 2, 5: 2}[arity]
        els = [random_element(rng, arity, depth) for _ in range(60)]
        pool = els + [f * g.inverse() for f, g in zip(els, els[1:])]
        pool += [identity(arity), els[0] * els[0].inverse()]
        seen = set()
        for g in pool:
            got = outcome(PrefixMap.moved_cylinder, g)  # before the oracle reads `pairs`
            assert got == outcome(moved_cylinder_pairs, g), g
            seen.add("cylinder" if isinstance(got, ClopenSet) else got[1])
        assert seen == {"cylinder", "the identity moves no cylinder"}


class TestSigmaSwap:
    def test_full_swap_is_g(self):
        g = E("{0->1,1->0}")
        assert sigma_swap(g, C("[0]")) == g

    def test_partial_swap(self):
        g = E("{0->1,1->0}")
        assert sigma_swap(g, C("[00]")) == E("{00->10,10->00,01->01,11->11}")

    def test_overlap_rejected(self):
        g = E("{0->00,10->01,11->1}")
        with pytest.raises(PreconditionError):
            sigma_swap(g, C("[0]"))

    def test_involution_and_rist(self):
        rng = random.Random(10)
        for _ in range(100):
            g = random_element(rng, nontrivial=True)
            y = cylinder(g.moved_cylinder().code[0] + "0")
            s = sigma_swap(g, y)
            assert (s * s).is_identity()
            assert s.in_rist(y.union(g.image(y)))
            # s agrees with g on y: pointwise via the composite fixing y
            assert (g.inverse() * s).fixes_pointwise(y)


class TestPatch:
    def test_no_constraint_rejected(self):
        with pytest.raises(PreconditionError):
            patch([])

    def test_mixed_arities_rejected(self):
        with pytest.raises(ArityMismatchError):
            patch([(C("[0]"), identity()), (C("[1]"), identity(3))])
        with pytest.raises(ArityMismatchError):
            patch([(parse_clopen("[0]", 3), identity())])

    def test_single_identity_constraint(self):
        b = patch([(C("[0]"), identity())])
        assert (identity().inverse() * b).fixes_pointwise(C("[0]"))

    def test_two_constraints(self):
        b = patch([(C("[00]"), E("{0->1,1->0}")), (C("[01]"), identity())])
        assert b.image(C("[00]")) == C("[10]")
        assert b.fixes_pointwise(C("[01]"))
        assert b == E("{00->10,01->01,10->00,11->11}")

    def test_full_cover_identity(self):
        assert patch([(C("[0]"), identity()), (C("[1]"), identity())]).is_identity()

    def test_overlapping_regions_rejected(self):
        with pytest.raises(PreconditionError):
            patch([(C("[0]"), identity()), (C("[01]"), identity())])

    def test_overlapping_images_rejected(self):
        with pytest.raises(PreconditionError):
            patch([(C("[00]"), E("{00->01,01->00,1->1}")), (C("[01]"), identity())])

    def test_one_sided_leftover_rejected(self):
        # region covers everything, image does not
        with pytest.raises(PreconditionError):
            patch([(C("[0]"), E("{0->00,10->01,11->1}")), (C("[1]"), E("{1->01,00->1,01->00}"))])

    def test_agreement_postcondition_random(self):
        rng = random.Random(12)
        for _ in range(60):
            g = random_element(rng)
            region = random_clopen(rng)
            b = patch([(region, g)])
            assert (g.inverse() * b).fixes_pointwise(region)


def outcome(build, *args):
    """The element a construction returns, or the type and message it raises."""
    try:
        return build(*args)
    except ToolkitError as exc:
        return type(exc), str(exc)


class TestOneRestriction:
    """patch and sigma_swap, which restrict each map to its region once,
    against `patch_pairwise` and `sigma_swap_two_pass`: the same element,
    or the same exception type and message."""

    @staticmethod
    def constraints(rng, arity):
        """1-3 constraints: regions cut disjointly from one code, each
        replaced by a random region (which may overlap the others) with
        probability 1/4; maps sharing one element (so disjoint regions have
        disjoint images) with probability 3/5, else drawn on their own."""
        code = random_code(rng, arity, 3)
        groups = [[] for _ in range(rng.randint(1, 3))]
        for w in code:
            rng.choice(groups + [[]]).append(w)
        shared = random_element(rng, arity, 3)
        return [(canonicalize(words, arity) if rng.random() < 0.75
                 else random_clopen(rng, arity, 3),
                 shared if rng.random() < 0.6 else random_element(rng, arity, 3))
                for words in groups]

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_patch_matches_pairwise(self, arity):
        rng = random.Random(230 + arity)
        seen = set()
        for _ in range(150):
            constraints = self.constraints(rng, arity)
            expected = outcome(patch_pairwise, constraints)
            assert outcome(patch, constraints) == expected, constraints
            seen.add(expected[1] if isinstance(expected, tuple) else "element")
        assert {"element", "patch regions overlap", "patch images overlap"} <= seen

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_sigma_swap_matches_two_pass(self, arity):
        rng = random.Random(240 + arity)
        seen = set()
        for _ in range(150):
            g = random_element(rng, arity, 3)
            if g.is_identity() or rng.random() < 0.5:
                region = random_clopen(rng, arity, 3)
            else:
                word = g.moved_cylinder().code[0] + rng.choice(letters(arity))
                region = cylinder(word, arity)
            expected = outcome(sigma_swap_two_pass, g, region)
            assert outcome(sigma_swap, g, region) == expected, (g, region)
            seen.add(expected[1] if isinstance(expected, tuple) else "element")
        assert seen == {"element", "swap region overlaps its image"}

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    def test_swap_hands_back_its_image_and_support(self, arity):
        """`_swap` returns `sigma_swap`'s involution with g(Y) and
        Y ∪ g(Y), each equal to a fresh `image` and `union`."""
        rng = random.Random(620 + arity)
        depth = {2: 5, 3: 3, 4: 2, 5: 2}[arity]
        for _ in range(80):
            g = random_element(rng, arity, depth, nontrivial=True)
            word = g.moved_cylinder().code[0] + rng.choice(letters(arity))
            region = cylinder(word, arity)
            swap, image, support = _swap(g, region)
            assert swap == sigma_swap(g, region)
            assert image == g.image(region)
            assert support == region.union(g.image(region))


class TestOntoTransporter:
    def test_mixed_arities_rejected(self):
        with pytest.raises(ArityMismatchError):
            onto_transporter(C("[0]"), parse_clopen("[0]", 3))

    def test_empty_onto_non_empty_rejected(self):
        with pytest.raises(PreconditionError):
            onto_transporter(C("[]"), C("[0]"))
        with pytest.raises(PreconditionError):
            onto_transporter(C("[0]"), C("[]"))


class TestLiteralRoundTrip:
    def test_element_roundtrip(self):
        for text in ("{0->1,1->0}", "{e->e}", "{0->00,10->01,11->1}"):
            assert str(E(text)) == text

    def test_clopen_roundtrip(self):
        for text in ("[]", "[e]", "[0,10]"):
            assert str(C(text)) == text

    def test_parse_canonicalizes(self):
        assert str(C("[00,01]")) == "[0]"
        assert str(E("{00->00,01->01,1->1}")) == "{e->e}"
