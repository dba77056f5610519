import inspect
import random

import pytest
from hypothesis import given, settings

import strategies as sts
from strategies import to_point
from preord.factorization import monotone_light_factorization
from preord.oracle import (
    EnumerationCapError,
    brute_force_in_N,
    closure_slow,
    compose_relations_slow,
    enumerate_morphisms,
    enumerate_preorders,
    enumerate_preorders_by_closure,
    monotone_by_pairs,
    random_monotone_map,
    random_morphism,
    random_preorder,
    reflect_by_quotient,
    universal_n_cokernel,
    universal_n_kernel,
    universal_orthogonality,
    universal_pullback,
)
from preord.pretorsion import canonical_sequence, in_ideal_N, n_kernel, reflect
from preord.relations import (
    FinPreorder,
    PreordMorphism,
    Relation,
    compose_relations,
    identity_morphism,
    preord_pullback,
    reflexive_transitive_closure,
)

EXPECTED_COUNTS = {
    # carrier -> (preorders, partial orders, equivalence relations)
    0: (1, 1, 1),
    1: (1, 1, 1),
    2: (4, 3, 2),
    3: (29, 19, 5),
    4: (355, 219, 15),
}


class TestEnumeration:
    @pytest.mark.parametrize("n", sorted(EXPECTED_COUNTS))
    def test_counts_by_filtering(self, n):
        pres, posets, eqs = EXPECTED_COUNTS[n]
        found = list(enumerate_preorders(n))
        assert len(found) == pres
        assert sum(1 for p in found if p.is_partial_order()) == posets
        assert sum(1 for p in found if p.is_equivalence()) == eqs

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_methods_generate_identical_sets(self, n):
        filtered = {p.rel.rows for p in enumerate_preorders(n)}
        closed = {p.rel.rows for p in enumerate_preorders_by_closure(n)}
        assert filtered == closed
        assert len(filtered) == EXPECTED_COUNTS[n][0]

    def test_no_duplicates(self):
        seen = [p.rel.rows for p in enumerate_preorders(3)]
        assert len(seen) == len(set(seen))

    def test_cap_is_enforced(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_preorders(5))


class TestMorphismEnumeration:
    def test_point_to_point(self):
        point = FinPreorder.discrete(1)
        assert len(list(enumerate_morphisms(point, point))) == 1

    def test_discrete_two_to_chain(self):
        assert len(list(enumerate_morphisms(FinPreorder.discrete(2), FinPreorder.chain(2)))) == 4

    def test_chain_to_chain(self):
        assert len(list(enumerate_morphisms(FinPreorder.chain(2), FinPreorder.chain(2)))) == 3

    def test_empty_source(self):
        empty = FinPreorder.discrete(0)
        assert len(list(enumerate_morphisms(empty, FinPreorder.chain(2)))) == 1
        assert len(list(enumerate_morphisms(FinPreorder.chain(2), empty))) == 0


class TestBruteForceIdeal:
    def test_constant_is_member(self):
        assert brute_force_in_N(to_point(FinPreorder.codiscrete(3)))

    def test_identity_on_chain_is_not(self):
        assert not brute_force_in_N(identity_morphism(FinPreorder.chain(2)))

    @given(sts.monotone_maps(max_size=3))
    @settings(max_examples=80)
    def test_agreement_with_pointwise_test(self, f):
        assert brute_force_in_N(f) == in_ideal_N(f)


class TestUniversalProperties:
    def test_canonical_sequence_passes(self):
        p = FinPreorder.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        seq = canonical_sequence(p)
        ok, why = universal_n_kernel(seq.free_part, seq.torsion_part.src, seq.torsion_part)
        assert ok, why
        ok, why = universal_n_cokernel(seq.torsion_part, seq.free_part)
        assert ok, why

    def test_corrupted_kernel_fails_with_counterexample(self):
        f = to_point(FinPreorder.codiscrete(2))
        kern = n_kernel(f)
        # drop the pair (0, 1) from the kernel relation
        damaged_rel = Relation.from_pairs(
            kern.K.carrier, kern.K.carrier, [(0, 0), (1, 1), (1, 0)]
        )
        damaged = FinPreorder(kern.K.carrier, damaged_rel)
        damaged_incl = PreordMorphism(damaged, f.src, kern.k.map)
        ok, why = universal_n_kernel(f, damaged, damaged_incl)
        assert not ok
        assert "factors 0 times" in why

    def test_pullback_universal_property(self):
        chain = FinPreorder.chain(2)
        codisc = FinPreorder.codiscrete(2)
        f, g = to_point(chain), to_point(codisc)
        pb = preord_pullback(f, g)
        ok, why = universal_pullback(f, g, pb.object, pb.p1, pb.p2)
        assert ok, why

    def test_orthogonality_counts_diagonals(self):
        f = to_point(FinPreorder.codiscrete(2))
        light = monotone_light_factorization(f)
        ok, why = universal_orthogonality(light.e, light.m, light.e, light.m)
        assert ok, why


class TestSlowAgreements:
    @given(sts.endorelation_pairs(max_size=4))
    def test_compose_agreement(self, pair):
        r, s = pair
        assert compose_relations_slow(r, s) == compose_relations(r, s)

    @given(sts.endorelations(max_size=5))
    def test_closure_agreement(self, r):
        assert closure_slow(r) == reflexive_transitive_closure(r)

    @given(sts.preorders(max_size=10))
    def test_reflect_agreement(self, p):
        fast = reflect(p)
        slow = reflect_by_quotient(p)
        assert fast.poset == slow.poset
        assert fast.unit.map == slow.unit.map


class TestRandomGenerators:
    def test_deterministic_given_seed(self):
        a = [random_preorder(random.Random(5), 12).rel.rows for _ in range(3)]
        assert a[0] == a[1] == a[2]
        f = random_morphism(random.Random(5), 10)
        g = random_morphism(random.Random(5), 10)
        assert f.map == g.map

    def test_random_morphism_takes_only_a_seed_stream_and_a_bound(self):
        assert list(inspect.signature(random_morphism).parameters) == ["rng", "max_size"]

    def test_random_maps_are_monotone(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_preorder(rng, rng.randint(0, 15))
            q = random_preorder(rng, rng.randint(1, 15))
            mapping = random_monotone_map(rng, p, q)
            PreordMorphism(p, q, mapping)  # validates monotonicity

    def test_random_maps_on_50_points_are_rarely_constant(self):
        """Neither strategy falls back to a constant map: 200 draws between
        random 50-point preorders are monotone, and at most 5 % constant."""
        rng = random.Random(0)
        constant = 0
        for _ in range(200):
            p, q = random_preorder(rng, 50), random_preorder(rng, 50)
            values = random_monotone_map(rng, p, q).values
            assert monotone_by_pairs(p.rel.rows, q.rel.rows, values)
            constant += len(set(values)) == 1
        assert constant <= 10

    def test_empty_target(self):
        rng = random.Random(1)
        p = random_preorder(rng, 3)
        q = FinPreorder.discrete(0)
        assert random_monotone_map(rng, p, q) is None
