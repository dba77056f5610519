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
from preord.relations import FinPreorder, FinSet, SetMap, _bits, identity_map


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

    def test_is_open_on_every_subset_and_nothing_else(self):
        space = sierpinski()
        assert [mask for mask in range(4) if space.is_open(mask)] == [0, 1, 3]
        for mask in (-1, -4, 4, 32):
            with pytest.raises(ValueError, match=rf"mask {mask} is not a subset"):
                space.is_open(mask)


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


# each refusal of a public constructor or function, with its exception and
# message; points of a labelled carrier are named by their labels
REJECTIONS = {
    "neighborhood-count": (
        lambda: AlexandroffSpace(FinSet(2), (1,)), ValueError, "expected 2 neighborhoods, got 1",
    ),
    "neighborhood-off-the-carrier-labelled": (
        lambda: AlexandroffSpace(FinSet(1, ("x",)), (0b11,)),
        ValueError, "neighborhood of x is not a subset of the carrier",
    ),
    "not-nested-labelled": (
        lambda: AlexandroffSpace(FinSet(3, ("a", "b", "c")), (0b011, 0b110, 0b100)),
        ValueError, "neighborhoods are not nested: U(b) is not inside U(a)",
    ),
    "map-endpoints": (
        lambda: ContinuousMap(
            sierpinski(), preorder_to_space(FinPreorder.discrete(1)), identity_map(FinSet(2))
        ),
        ValueError, "underlying map does not match the endpoints",
    ),
    "not-continuous-labelled": (
        lambda: ContinuousMap(
            preorder_to_space(FinPreorder.chain(2, ("a", "b"))),
            preorder_to_space(FinPreorder.discrete(2, ("x", "y"))),
            SetMap(FinSet(2, ("a", "b")), FinSet(2, ("x", "y")), (0, 1)),
        ),
        ValueError, "not continuous: a specializes to b but the images do not",
    ),
    "closure-of-a-missing-point": (
        lambda: closure_of_point(sierpinski(), 2), IndexError, "point 2 out of range 0..1",
    ),
    "subspace-on-a-missing-point": (
        lambda: subspace(sierpinski(), [0, 5]), IndexError, "point 5 out of range 0..1",
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections_name_their_reason(case):
    sts.assert_rejects(*REJECTIONS[case])
