import random

import pytest

from cantorwit.clopen import canonicalize, cylinder, whole_space
from cantorwit.compression import (join_compression, min_cover_3, transporter,
                                   two_disjoint_cylinders, wandering_base, wanders,
                                   wandering_witness)
from cantorwit.corpus import random_clopen
from cantorwit.errors import PreconditionError
from cantorwit.literals import parse_clopen, parse_element

from helpers import transporter_zip

C = parse_clopen
E = parse_element


class TestTransporter:
    def test_basic(self):
        y, o = C("[0]"), C("[11]")
        h = transporter(y, o)
        assert h.image(y).subset(o)

    def test_same_set_gives_identity(self):
        assert transporter(C("[00,1]"), C("[00,1]")).is_identity()

    def test_whole_space_identity(self):
        assert transporter(whole_space(), whole_space()).is_identity()

    def test_whole_space_into_proper_rejected(self):
        with pytest.raises(PreconditionError):
            transporter(whole_space(), C("[0]"))

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            transporter(C("[]"), C("[0]"))
        with pytest.raises(PreconditionError):
            transporter(C("[0]"), C("[]"))

    def test_into_whole_space_leaves_room(self):
        y = C("[0]")
        h = transporter(y, whole_space())
        assert not h.image(y).is_full()

    def test_random_postcondition(self):
        rng = random.Random(21)
        for _ in range(300):
            y = random_clopen(rng)
            o = random_clopen(rng)
            assert transporter(y, o).image(y).subset(o)

    def test_arity3(self):
        y = canonicalize({"0", "1"}, 3)
        o = canonicalize({"22"}, 3)
        assert transporter(y, o).image(y).subset(o)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_zip_oracle(self, arity):
        """The completion through `onto_transporter` against the zipped
        pairing, also when the target words are the whole split code of
        dst and so merge back to it."""
        rng = random.Random(220 + arity)
        depth = {2: 5, 3: 3, 4: 3}[arity]
        merged = 0
        for _ in range(400):
            src = random_clopen(rng, arity, depth)
            dst = rng.choice([random_clopen(rng, arity, depth), whole_space(arity)])
            h = transporter(src, dst)
            assert h == transporter_zip(src, dst), (src, dst)
            merged += len(src.code) > len(dst.code) and h.image(src) == dst
        assert merged


class TestWandering:
    def test_base_element_constant(self):
        g0, z0 = wandering_base(2)
        assert g0 == E("{0->00,10->01,11->1}")
        assert z0 == C("[01]")

    def test_base_orbit(self):
        g0, z0 = wandering_base(2)
        assert g0.image(z0) == C("[001]")
        assert g0.inverse().image(z0) == C("[10]")
        assert (g0 ** 2).image(z0) == C("[0001]")
        assert (g0 ** -2).image(z0) == C("[110]")

    def test_fixed_region_returns_base(self):
        g, trap = wandering_witness(C("[01]"))
        assert g == wandering_base(2)[0]
        assert trap == C("[00]")

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    def test_trap_certifies_windowed_disjointness(self, arity):
        """The trap relations hold for the returned element, and the
        images g^m(region), |m| <= 8, are pairwise disjoint by brute force."""
        rng = random.Random(1000 + arity)
        depth = {2: 5, 3: 3, 4: 3, 5: 2}[arity]
        regions = [cylinder("0", arity), wandering_base(arity)[1]]
        regions += [random_clopen(rng, arity, depth) for _ in range(50)]
        for y in regions:
            g, trap = wandering_witness(y)
            assert y.disjoint(trap) and g.image(y).subset(trap) and g.image(trap).subset(trap)
            assert wanders(g, y, trap)
            imgs = [(g ** m).image(y) for m in range(-8, 9)]
            assert all(imgs[i].disjoint(imgs[j])
                       for i in range(len(imgs)) for j in range(i + 1, len(imgs))), y

    def test_whole_space_rejected(self):
        with pytest.raises(PreconditionError):
            wandering_witness(whole_space())

    @pytest.mark.parametrize("g, region, trap, relations", [
        # the trap meets the region
        ("{0->00,10->01,11->1}", "[01]", "[0]", (False, True, True)),
        # the trap misses g(region) = [001]
        ("{0->00,10->01,11->1}", "[01]", "[000]", (True, False, True)),
        # the swap sends the trap [1] back onto the region
        ("{0->1,1->0}", "[0]", "[1]", (True, True, False)),
    ])
    def test_each_failing_relation_is_refused(self, g, region, trap, relations):
        g, region, trap = E(g), C(region), C(trap)
        assert (region.disjoint(trap), g.image(region).subset(trap),
                g.image(trap).subset(trap)) == relations
        assert wanders(g, region, trap) is False

    def test_disjoint_powers_commute(self):
        # supported elements conjugated by distinct powers commute, by
        # direct composition
        from cantorwit.corpus import random_rist_element
        from cantorwit.witnesses import commutator
        rng = random.Random(24)
        for _ in range(20):
            y = random_clopen(rng)
            g, _ = wandering_witness(y)
            a = random_rist_element(rng, y)
            conj = {m: (g ** m) * a * (g ** m).inverse() for m in range(-3, 4)}
            for m in range(-3, 4):
                for n in range(m + 1, 4):
                    assert commutator(conj[m], conj[n]).is_identity()


class TestJoinCompression:
    def test_two_small_cylinders(self):
        y, z = C("[00]"), C("[01]")
        g = join_compression(y, z)
        assert g.image(y.union(z)).subset(y)

    def test_half_and_quarter(self):
        y, z = C("[0]"), C("[10]")
        g = join_compression(y, z)
        assert g.image(y.union(z)).subset(y)

    def test_no_room_rejected(self):
        with pytest.raises(PreconditionError):
            join_compression(C("[0]"), C("[1]"))

    def test_overlap_rejected(self):
        with pytest.raises(PreconditionError):
            join_compression(C("[0]"), C("[01]"))

    def test_empty_part_rejected(self):
        for parts in ((C("[]"), C("[01]")), (C("[00]"), C("[]"))):
            with pytest.raises(PreconditionError, match="non-empty parts"):
                join_compression(*parts)

    def test_no_spare_cylinders_in_the_empty_set(self):
        with pytest.raises(PreconditionError):
            two_disjoint_cylinders(C("[]"))

    def test_random_postcondition(self):
        rng = random.Random(23)
        done = 0
        while done < 100:
            y = random_clopen(rng)
            z = random_clopen(rng).intersect(y.complement())
            if z.is_empty() or y.union(z).is_full():
                continue
            g = join_compression(y, z)
            assert g.image(y.union(z)).subset(y)
            done += 1


class TestMinCover3:
    def test_constants(self):
        cov = min_cover_3(2)
        assert cov.cover == (C("[00,110]"), C("[01,111]"), C("[10,11]"))
        assert cov.privates == (C("[00]"), C("[01]"), C("[10]"))
        assert cov.members == cov.cover + cov.privates

    def test_covers(self):
        j1, j2, j3 = min_cover_3(2).cover
        assert j1.union(j2).union(j3).is_full()

    def test_each_member_essential(self):
        j1, j2, j3 = min_cover_3(2).cover
        assert not j2.union(j3).is_full()
        assert not j1.union(j3).is_full()
        assert not j1.union(j2).is_full()

    def test_private_separation(self):
        cov = min_cover_3(2)
        for i, u in enumerate(cov.privates):
            assert u.subset(cov.cover[i])
            for j, other in enumerate(cov.cover):
                if i != j:
                    assert u.disjoint(other)

    def test_some_private_avoids_any_two_members(self):
        cov = min_cover_3(2)
        for y in cov.members:
            for z in cov.members:
                assert any(u.disjoint(y) and u.disjoint(z) for u in cov.privates)

    @pytest.mark.parametrize("arity", [3, 4])
    def test_higher_arity(self, arity):
        cov = min_cover_3(arity)
        j1, j2, j3 = cov.cover
        assert j1.union(j2).union(j3).is_full()
        assert not j2.union(j3).is_full()
        assert not j1.union(j3).is_full()
        assert not j1.union(j2).is_full()
        for i, u in enumerate(cov.privates):
            assert u.subset(cov.cover[i])
            for j, other in enumerate(cov.cover):
                if i != j:
                    assert u.disjoint(other)
