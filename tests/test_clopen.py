import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorwit.clopen import (ARITIES, canonicalize, cylinder, empty_set, letters, merge_siblings,
                              refine, split_words, whole_space)
from cantorwit.corpus import random_clopen, random_element
from cantorwit.errors import ArityMismatchError, PreconditionError

from helpers import (all_words, apply_pairs, lenlex, member, merge_siblings_worklist,
                     refine_oracle, refine_table, split_words_resorting, view)

words2 = st.lists(st.text(alphabet="01", max_size=5), max_size=8)


def codes(*ws):
    return canonicalize(ws)


class TestCanonicalize:
    def test_full_sibling_merge(self):
        assert canonicalize({"00", "01"}).code == ("0",)

    def test_prefix_absorption(self):
        assert canonicalize({"0", "01"}).code == ("0",)

    def test_total_merge(self):
        assert canonicalize({"00", "01", "10", "11"}).code == ("",)

    def test_cascading_merge(self):
        assert canonicalize({"000", "001", "01", "1"}).code == ("",)

    def test_empty(self):
        assert canonicalize(set()).code == ()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            canonicalize({"02"}, arity=2)

    def test_absorbed_word_still_checked(self):
        # "02" extends "0" and is dropped, but its symbol is out of range
        with pytest.raises(ArityMismatchError):
            canonicalize({"0", "02"}, 2)

    def test_bad_symbol_names_the_first_bad_word(self):
        # in sorted order "02" comes before "0\u00e9", whose symbol is not ASCII
        with pytest.raises(ArityMismatchError,
                           match="^symbol '2' out of range for arity 2 in word '02'$"):
            canonicalize({"1", "0\u00e9", "02"}, 2)
        with pytest.raises(ArityMismatchError, match="symbol '\u00e9'"):
            canonicalize({"1", "0\u00e9"}, 2)

    @pytest.mark.parametrize("arity", [3, 4])
    def test_same_denotation_higher_arity(self, arity):
        rng = random.Random(90 + arity)
        alpha = "0123"[:arity]
        for _ in range(150):
            ws = {"".join(rng.choice(alpha) for _ in range(rng.randint(0, 4)))
                  for _ in range(rng.randint(0, 10))}
            c = canonicalize(ws, arity)
            assert canonicalize(c.code, arity) == c
            depth = max([len(w) for w in ws] + [len(w) for w in c.code] + [1])
            for w in all_words(arity, depth):
                assert member(ws, w) == member(c.code, w)

    def test_arity3_partial_family_not_merged(self):
        assert canonicalize({"00", "01"}, arity=3).code == ("00", "01")
        assert canonicalize({"00", "01", "02"}, arity=3).code == ("0",)

    @given(words2)
    @settings(max_examples=150)
    def test_idempotent(self, ws):
        c = canonicalize(ws)
        assert canonicalize(c.code) == c

    @given(words2)
    @settings(max_examples=150)
    def test_same_denotation(self, ws):
        c = canonicalize(ws)
        depth = max([len(w) for w in ws] + [len(w) for w in c.code] + [1])
        for w in all_words(2, depth):
            assert member(ws, w) == member(c.code, w)


class TestBooleanOps:
    def test_complement_cylinder(self):
        assert cylinder("0").complement().code == ("1",)

    def test_intersect(self):
        assert codes("0").intersect(codes("01", "1")).code == ("01",)

    def test_union_derived(self):
        # oracle: membership of every depth-3 word against both sides
        a, b = codes("00"), codes("01", "10")
        u = a.union(b)
        for w in all_words(2, 3):
            assert member(u.code, w) == (member(a.code, w) or member(b.code, w))
        assert u.code == ("0", "10")

    def test_complement_involution(self):
        a = codes("00", "101")
        assert a.complement().complement() == a

    def test_subset_order(self):
        a, b = codes("00"), codes("0")
        assert a.subset(b) and not b.subset(a)
        assert a.subset(a)

    def test_empty_full(self):
        assert empty_set().is_empty() and not empty_set().is_full()
        assert whole_space().is_full()
        assert whole_space().complement().is_empty()

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            codes("0").union(canonicalize({"0"}, arity=3))

    @given(words2, words2)
    @settings(max_examples=150)
    def test_de_morgan(self, ws1, ws2):
        a, b = canonicalize(ws1), canonicalize(ws2)
        assert a.union(b).complement() == a.complement().intersect(b.complement())

    @given(words2, words2)
    @settings(max_examples=150)
    def test_ops_match_membership_oracle(self, ws1, ws2):
        a, b = canonicalize(ws1), canonicalize(ws2)
        depth = max([len(w) for w in a.code + b.code] + [1])
        u, i = a.union(b), a.intersect(b)
        for w in all_words(2, depth):
            ina, inb = member(a.code, w), member(b.code, w)
            assert member(u.code, w) == (ina or inb)
            assert member(i.code, w) == (ina and inb)
        assert a.disjoint(b) == (not any(member(a.code, w) and member(b.code, w)
                                         for w in all_words(2, depth)))

    @given(words2, words2)
    @settings(max_examples=100)
    def test_subset_iff_pointwise(self, ws1, ws2):
        a, b = canonicalize(ws1), canonicalize(ws2)
        depth = max([len(w) for w in a.code + b.code] + [1])
        pointwise = all(member(b.code, w) for w in all_words(2, depth)
                        if member(a.code, w))
        assert a.subset(b) == pointwise


def random_antichain(rng, alpha, splits):
    """A random subset of a random complete code."""
    words = [""]
    for _ in range(rng.randint(0, splits)):
        w = words.pop(rng.randrange(len(words)))
        words += [w + c for c in alpha]
    return rng.sample(words, rng.randint(0, len(words)))


class TestComplement:
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_membership_oracle(self, arity):
        rng = random.Random(60 + arity)
        alpha = "0123"[:arity]
        for _ in range(300):
            a = canonicalize(random_antichain(rng, alpha, 10), arity)
            b = canonicalize(random_antichain(rng, alpha, 10), arity)
            comp = a.complement()
            assert canonicalize(comp.code, arity) == comp
            depth = max([len(w) for w in a.code + b.code] + [1])
            meets = misses = False
            for w in all_words(arity, depth):
                ina, inb = member(a.code, w), member(b.code, w)
                assert member(comp.code, w) != ina, (a, w)
                meets = meets or (ina and inb)
                misses = misses or (ina and not inb)
            assert a.disjoint(b) == (not meets), (a, b)
            assert a.subset(b) == (not misses), (a, b)


def antichain_pairs(rng, arity, count):
    """Pairs of antichains: random, identical, nested and edge cases."""
    alpha = letters(arity)
    pairs = [([], []), ([], [""]), ([""], [""]), ([""], ["0", alpha[-1] * 3])]
    for _ in range(count):
        xs = random_antichain(rng, alpha, 10)
        kind = rng.choice(["random", "identical", "nested", "edge"])
        if kind == "random":
            ys = random_antichain(rng, alpha, 10)
        elif kind == "identical":
            ys = list(xs)
        elif kind == "nested":
            ys = [w + "".join(rng.choices(alpha, k=rng.randint(0, 3))) for w in xs]
        else:
            ys = rng.choice([[], [""]])
        pairs.append((xs, ys) if rng.random() < 0.5 else (ys, xs))
    return pairs


def identity_table(words):
    return {w: w for w in words}


class TestRefine:
    """The common-refinement walk on word tables against the nested-loop
    oracle, at every arity (shallow words above arity 4)."""

    DEPTH = {2: 5, 3: 3, 4: 3}

    @staticmethod
    def oracle(xs, ys):
        """`refine_table` of two word tables, with `xs` as the inner
        factor's range-to-domain table and `ys` as the outer one."""
        return refine_table(ys.items(), [(d, x) for x, d in xs.items()])

    @pytest.mark.parametrize("arity", ARITIES)
    def test_codes_refine_to_their_meets(self, arity):
        for xs, ys in antichain_pairs(random.Random(80 + arity), arity, 400):
            walked = refine(view(identity_table(xs)), view(identity_table(ys)))
            assert walked == identity_table(w for _, _, w in refine_oracle(xs, ys)), (xs, ys)

    @pytest.mark.parametrize("arity", ARITIES)
    def test_element_table_maps_the_pieces(self, arity):
        rng = random.Random(90 + arity)
        for xs, _ in antichain_pairs(rng, arity, 200):
            g = random_element(rng, arity, self.DEPTH.get(arity, 2))
            walked = refine(view(identity_table(xs)), view(dict(g.pairs)))
            dom = [d for d, _ in g.pairs]
            assert walked == {w: apply_pairs(g.pairs, w)
                              for _, _, w in refine_oracle(xs, dom)}, (xs, g)

    @pytest.mark.parametrize("arity", ARITIES)
    def test_seeded_merge_of_reduced_views(self, arity):
        """On the views of two reduced elements g and h the merge from the
        seeds of equal-word pieces reduces the table of g·h as a merge
        started from every piece does."""
        rng = random.Random(240 + arity)
        depth = self.DEPTH.get(arity, 2)
        merged = 0
        for _ in range(300):
            g, h = (random_element(rng, arity, depth) for _ in range(2))
            h = rng.choice([h, g.inverse(), g.inverse() * h])
            seeds = []
            table = refine(view({r: d for d, r in h.pairs}), view(dict(g.pairs)), seeds)
            assert table == refine_table(g.pairs, h.pairs), (g, h)
            full = merge_siblings_worklist(dict(table), arity)
            merged += len(full) < len(table)
            assert merge_siblings(table, arity, seeds) == full, (g, h)
        assert merged >= 50

    def test_run_swaps_only_the_leading_prefix(self):
        """01 recurs in 0101: a run swaps the prefix, not a later
        occurrence, on either side of the walk."""
        assert refine(view({"0101": "0101"}), view({"01": "1"})) == {"0101": "101"}
        assert refine(view({"01": "1"}), view({"0101": "0101"})) == {"101": "0101"}
        assert refine(view({"0101": "0"}), view({"01": "0101"})) == {"0": "010101"}

    @pytest.mark.parametrize("arity", ARITIES)
    def test_recurring_prefixes_match_the_oracle(self, arity):
        """Keys y·y under keys y, and words that repeat their keys, so that
        every word of a run holds the shorter word more than once."""
        rng = random.Random(300 + arity)
        alpha = letters(arity)
        for _ in range(100):
            ys = random_antichain(rng, alpha, 4)
            short = {y: y + rng.choice(alpha) + y for y in ys}
            long = {y * 2 + c: y * 3 + c for y in ys for c in rng.sample(alpha, 2)}
            for xs, zs in ((long, short), (short, long)):
                assert refine(view(xs), view(zs)) == self.oracle(xs, zs), (xs, zs)

    @pytest.mark.parametrize("arity", ARITIES)
    def test_empty_word_on_either_side(self, arity):
        """Against the table of the whole space, an {e->e} view, each word
        of the other table is its own swap; a table sending e to a word w
        puts w in front of each word, as `"".replace(e, w, 1)` does."""
        rng = random.Random(320 + arity)
        alpha = letters(arity)
        for _ in range(50):
            words = random_antichain(rng, alpha, 6)
            table = {x: rng.choice(alpha) + x[::-1] for x in words}
            front = {"": rng.choice(["", alpha[-1], alpha[1] + alpha[0]])}
            for xs, ys in ((front, table), (table, front)):
                assert refine(view(xs), view(ys)) == self.oracle(xs, ys), (xs, ys)
        assert refine(view({"": ""}), view({"0": "1", "1": "0"})) == {"0": "1", "1": "0"}
        assert refine(view({"0": "1", "1": "0"}), view({"": ""})) == {"1": "0", "0": "1"}
        assert refine(view({"": "10"}), view({"0": "1", "1": "0"})) == {"100": "1", "101": "0"}
        assert refine(view({"0": "1", "1": "0"}), view({"": "10"})) == {"1": "100", "0": "101"}

    @pytest.mark.parametrize("arity", ARITIES)
    def test_whole_space_intersects_to_the_other_set(self, arity):
        rng = random.Random(340 + arity)
        full, empty = whole_space(arity), empty_set(arity)
        for c in [full, empty] + [random_clopen(rng, arity, self.DEPTH.get(arity, 2))
                                  for _ in range(30)]:
            assert full.intersect(c) == c == c.intersect(full)
            assert empty.intersect(c) == empty == c.intersect(empty)


class TestSplitToSize:
    def test_identity_split(self):
        assert split_words(["0"], 1, 2) == ("0",)

    def test_three_way(self):
        assert split_words(["0"], 3, 2) == ("00", "010", "011")

    def test_infeasible_arity3(self):
        with pytest.raises(PreconditionError):
            split_words(["0"], 2, 3)

    def test_too_small(self):
        with pytest.raises(PreconditionError):
            split_words(["0", "10"], 1, 2)

    def test_empty_antichain(self):
        with pytest.raises(PreconditionError):
            split_words([], 1, 2)
        assert split_words([], 0, 2) == ()

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_result_stays_lenlex_sorted(self, arity):
        rng = random.Random(140 + arity)
        alpha = "0123"[:arity]
        for _ in range(200):
            words = random_antichain(rng, alpha, 8) or [""]
            size = len(words) + (arity - 1) * rng.randint(0, 12)
            result = split_words(words, size, arity)
            assert result == tuple(sorted(result, key=lenlex))
            assert result == split_words_resorting(words, size, arity)

    @given(words2, st.integers(min_value=0, max_value=6))
    @settings(max_examples=100)
    def test_splits_canonicalize_back(self, ws, extra):
        c = canonicalize(ws)
        if c.is_empty():
            return
        refined = split_words(c.code, len(c.code) + extra, 2)
        assert canonicalize(refined) == c
        assert len(refined) == len(c.code) + extra
