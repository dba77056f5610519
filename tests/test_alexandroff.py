import pytest
from hypothesis import given

import strategies as sts
from preord.alexandroff import (
    AlexandroffSpace,
    ContinuousMap,
    classify_continuous,
    closure_of_point,
    is_T0,
    is_partition,
    min_open,
    preorder_to_space,
    space_to_preorder,
    subspace,
    t0_reflection,
)
from preord.oracle import enumerate_open_sets, enumerate_preorders
from preord.pretorsion import reflect
from preord.relations import FinPreorder, FinSet, SetMap, _bits


def sierpinski():
    return preorder_to_space(FinPreorder.chain(2))


class TestTranslation:
    def test_discrete_preorder_gives_discrete_topology(self):
        space = preorder_to_space(FinPreorder.discrete(3))
        assert space.min_nbhd == (1, 2, 4)

    def test_codiscrete_gives_trivial_topology(self):
        space = preorder_to_space(FinPreorder.codiscrete(2))
        assert space.min_nbhd == (3, 3)

    def test_two_chain_gives_sierpinski(self):
        space = sierpinski()
        assert min_open(space, 0) == frozenset({0})
        assert min_open(space, 1) == frozenset({0, 1})

    def test_sierpinski_back_to_chain(self):
        assert space_to_preorder(sierpinski()) == FinPreorder.chain(2)

    @given(sts.preorders(max_size=40))
    def test_round_trips(self, p):
        space = preorder_to_space(p)
        assert space_to_preorder(space) == p
        assert preorder_to_space(space_to_preorder(space)) == space


class TestPointSets:
    def test_discrete_space(self):
        space = preorder_to_space(FinPreorder.discrete(2))
        assert closure_of_point(space, 0) == frozenset({0})
        assert min_open(space, 0) == frozenset({0})

    def test_codiscrete_space(self):
        space = preorder_to_space(FinPreorder.codiscrete(2))
        assert closure_of_point(space, 0) == frozenset({0, 1})
        assert min_open(space, 0) == frozenset({0, 1})

    def test_sierpinski_points(self):
        space = sierpinski()
        assert closure_of_point(space, 0) == frozenset({0, 1})
        assert min_open(space, 0) == frozenset({0})

    def test_closures_are_specialization_up_sets(self):
        for n in range(4):
            for p in enumerate_preorders(n):
                space = preorder_to_space(p)
                rows = space_to_preorder(space).rel.rows
                for x in range(n):
                    assert closure_of_point(space, x) == frozenset(_bits(rows[x]))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            min_open(sierpinski(), 5)


class TestPredicates:
    def test_discrete(self):
        space = preorder_to_space(FinPreorder.discrete(2))
        assert is_T0(space) and is_partition(space)

    def test_codiscrete(self):
        space = preorder_to_space(FinPreorder.codiscrete(2))
        assert not is_T0(space) and is_partition(space)

    def test_sierpinski(self):
        assert is_T0(sierpinski()) and not is_partition(sierpinski())

    @given(sts.preorders(max_size=40))
    def test_dual_computations_agree(self, p):
        space = preorder_to_space(p)
        assert is_T0(space) == p.is_partial_order()
        assert is_partition(space) == p.is_equivalence()


class TestT0Reflection:
    def test_t0_input_is_isomorphic(self):
        space = sierpinski()
        reflected, projection = t0_reflection(space)
        assert reflected.size == space.size
        assert projection.map.is_injective()

    def test_codiscrete_collapses(self):
        space = preorder_to_space(FinPreorder.codiscrete(4))
        reflected, projection = t0_reflection(space)
        assert reflected.size == 1
        assert is_T0(reflected)

    @given(sts.preorders(max_size=12))
    def test_agrees_with_order_reflection(self, p):
        space = preorder_to_space(p)
        reflected, projection = t0_reflection(space)
        poset, unit = reflect(p)
        assert reflected == preorder_to_space(poset)
        assert projection.map == unit.map


class TestSubspace:
    def test_open_point_of_sierpinski(self):
        sub = subspace(sierpinski(), [0])
        assert sub.min_nbhd == (1,)

    def test_closed_point_of_sierpinski(self):
        sub = subspace(sierpinski(), [1])
        assert sub.min_nbhd == (1,)


class TestContinuity:
    def test_validation_rejects_discontinuous(self):
        codisc = preorder_to_space(FinPreorder.codiscrete(2))
        chain = sierpinski()
        with pytest.raises(ValueError, match="continuous"):
            ContinuousMap(codisc, chain, SetMap(codisc.carrier, chain.carrier, (0, 1)))

    def test_identity_lies_in_both_classes(self):
        space = sierpinski()
        flags = classify_continuous(
            ContinuousMap(space, space, SetMap(space.carrier, space.carrier, (0, 1)))
        )
        assert flags.in_M_star_top and flags.in_E_prime_top

    def test_codiscrete_to_point(self):
        codisc = preorder_to_space(FinPreorder.codiscrete(2))
        point = preorder_to_space(FinPreorder.discrete(1))
        flags = classify_continuous(
            ContinuousMap(codisc, point, SetMap(codisc.carrier, point.carrier, (0, 0)))
        )
        assert flags.in_E_prime_top and not flags.in_M_star_top

    def test_open_point_inclusion(self):
        point = preorder_to_space(FinPreorder.discrete(1))
        flags = classify_continuous(
            ContinuousMap(point, sierpinski(), SetMap(point.carrier, sierpinski().carrier, (0,)))
        )
        assert flags.in_M_star_top and not flags.in_E_prime_top


class TestSpaceValidation:
    def test_point_must_be_in_own_neighborhood(self):
        with pytest.raises(ValueError, match="missing"):
            AlexandroffSpace(FinSet(2), (2, 2))

    def test_neighborhoods_must_be_nested(self):
        # U(0) = {0,1} but U(1) = {1,2} is not inside it
        with pytest.raises(ValueError, match="nested"):
            AlexandroffSpace(FinSet(3), (0b011, 0b110, 0b100))

    def test_min_nbhd_is_intersection_of_opens(self):
        space = preorder_to_space(FinPreorder.from_edges(3, [(0, 1), (1, 2)]))
        opens = enumerate_open_sets(space)
        for x in range(space.size):
            expected = (1 << space.size) - 1
            for mask in opens:
                if mask >> x & 1:
                    expected &= mask
            assert expected == space.min_nbhd[x]

    def test_open_enumeration_cap(self):
        space = preorder_to_space(FinPreorder.discrete(13))
        with pytest.raises(ValueError, match="cap"):
            enumerate_open_sets(space)
