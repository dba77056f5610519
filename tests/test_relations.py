import functools
import itertools
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given
from hypothesis.errors import InvalidArgument

import strategies as sts
from preord.alexandroff import AlexandroffSpace, ContinuousMap, preorder_to_space
from preord.oracle import (
    closure_slow,
    compose_relations_slow,
    enumerate_morphisms,
    enumerate_preorders,
    enumerate_set_maps,
    monotone_by_pairs,
    or_cols_by_bits,
    or_rows_by_bits,
    transitive_by_pairs,
    transpose_by_bits,
    universal_pullback,
)
from preord.relations import (
    _built,
    _excess,
    _or_cols,
    _or_rows,
    _scc_classes,
    _walk,
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    compose_maps,
    compose_relations,
    direct_image,
    graph_relation,
    identity_map,
    identity_morphism,
    inverse_image,
    is_isomorphism,
    is_pullback_square,
    kernel_pair,
    meet,
    opposite,
    preord_pullback,
    quotient,
    reflexive_transitive_closure,
    row_classes,
)
from preord.suites import _relation_predicates, check_reflection_parts

TWO = FinSet(2)
THREE = FinSet(3)


def rel(src, dst, pairs):
    return Relation.from_pairs(src, dst, pairs)


def f_three_to_two():
    return SetMap(THREE, TWO, (0, 0, 1))


class TestCompose:
    def test_single_pair_composite(self):
        r = rel(TWO, TWO, [(0, 1)])
        s = rel(TWO, TWO, [(1, 0)])
        assert compose_relations(r, s).pairs() == ((0, 0),)

    def test_identity_is_neutral(self):
        r = rel(TWO, TWO, [(0, 1), (1, 1)])
        assert compose_relations(Relation.diagonal(TWO), r) == r
        assert compose_relations(r, Relation.diagonal(TWO)) == r

    def test_empty_annihilates(self):
        full = Relation.full(THREE, THREE)
        empty = Relation.empty(THREE, THREE)
        assert compose_relations(full, empty) == empty

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            compose_relations(rel(TWO, TWO, []), rel(THREE, THREE, []))

    def test_associativity_exhaustive_small(self):
        sizes = [0, 1, 2]
        for a, b, c, d in itertools.product(sizes, repeat=4):
            if a * b * c * d > 8:
                continue
            fa, fb, fc, fd = FinSet(a), FinSet(b), FinSet(c), FinSet(d)
            for r_rows in itertools.product(range(1 << b), repeat=a):
                r = Relation(fa, fb, r_rows)
                for s_rows in itertools.product(range(1 << c), repeat=b):
                    s = Relation(fb, fc, s_rows)
                    for t_rows in itertools.product(range(1 << d), repeat=c):
                        t = Relation(fc, fd, t_rows)
                        assert compose_relations(compose_relations(r, s), t) == compose_relations(
                            r, compose_relations(s, t)
                        )

    def test_associativity_sampled_at_three(self):
        rng = random.Random(7)
        carriers = [FinSet(3)] * 4
        for _ in range(2000):
            rels = [
                Relation(
                    carriers[i],
                    carriers[i + 1],
                    tuple(rng.randrange(8) for _ in range(3)),
                )
                for i in range(3)
            ]
            r, s, t = rels
            assert compose_relations(compose_relations(r, s), t) == compose_relations(
                r, compose_relations(s, t)
            )


class TestOpposite:
    def test_transposition(self):
        assert opposite(rel(TWO, TWO, [(0, 1)])).pairs() == ((1, 0),)

    def test_involution(self):
        r = rel(THREE, TWO, [(0, 1), (2, 0)])
        assert opposite(opposite(r)) == r

    def test_fixes_equivalence(self):
        r = rel(TWO, TWO, [(0, 0), (1, 1), (0, 1), (1, 0)])
        assert opposite(r) == r

    @given(sts.endorelation_pairs())
    def test_antihomomorphism(self, pair):
        r, s = pair
        assert opposite(compose_relations(r, s)) == compose_relations(
            opposite(s), opposite(r)
        )


class TestMeet:
    def test_full_is_neutral(self):
        r = rel(TWO, TWO, [(0, 1)])
        assert meet(r, Relation.full(TWO, TWO)) == r

    def test_antisymmetry_of_posets(self):
        chain = FinPreorder.chain(3).rel
        assert meet(chain, opposite(chain)) == Relation.diagonal(THREE)

    def test_elementwise_conjunction(self):
        r = rel(TWO, TWO, [(0, 1), (1, 0), (0, 0), (1, 1)])
        s = rel(TWO, TWO, [(0, 0), (1, 1), (0, 1)])
        assert set(meet(r, s).pairs()) == {(0, 0), (1, 1), (0, 1)}

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            meet(rel(TWO, TWO, []), rel(THREE, THREE, []))


class TestDirectImage:
    def test_identity_keeps_relation(self):
        r = rel(THREE, THREE, [(0, 2), (1, 1)])
        assert direct_image(identity_map(THREE), r) == r

    def test_constant_collapses(self):
        const = SetMap(THREE, TWO, (0, 0, 0))
        r = rel(THREE, THREE, [(0, 2), (1, 1)])
        assert direct_image(const, r).pairs() == ((0, 0),)

    def test_projection_example(self):
        f = f_three_to_two()
        r = rel(THREE, THREE, [(0, 2), (0, 0), (1, 1), (2, 2)])
        assert set(direct_image(f, r).pairs()) == {(0, 0), (1, 1), (0, 1)}

    def test_matches_relational_formula(self):
        for dom, cod in [(2, 2), (3, 2), (3, 3), (2, 3)]:
            src, dst = FinSet(dom), FinSet(cod)
            for f in enumerate_set_maps(src, dst):
                g = graph_relation(f)
                for rows in itertools.product(range(1 << dom), repeat=dom):
                    r = Relation(src, src, rows)
                    via_compose = compose_relations(
                        compose_relations(opposite(g), r), g
                    )
                    assert direct_image(f, r) == via_compose


class TestInverseImage:
    def test_diagonal_gives_kernel_pair(self):
        f = f_three_to_two()
        assert inverse_image(f, Relation.diagonal(TWO)) == kernel_pair(f)

    def test_identity_keeps_relation(self):
        s = rel(THREE, THREE, [(0, 2)])
        assert inverse_image(identity_map(THREE), s) == s

    def test_pointwise_rule(self):
        f = f_three_to_two()
        s = rel(TWO, TWO, [(0, 0), (1, 1), (0, 1)])
        expected = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (1, 2)}
        assert set(inverse_image(f, s).pairs()) == expected

    def test_matches_relational_formula(self):
        f = f_three_to_two()
        g = graph_relation(f)
        for rows in itertools.product(range(4), repeat=2):
            s = Relation(TWO, TWO, rows)
            via_compose = compose_relations(compose_relations(g, s), opposite(g))
            assert inverse_image(f, s) == via_compose

    def test_adjunction_inclusions_exhaustive(self):
        for dom, cod in [(2, 2), (3, 2), (2, 3)]:
            src, dst = FinSet(dom), FinSet(cod)
            for f in enumerate_set_maps(src, dst):
                for rows in itertools.product(range(1 << dom), repeat=dom):
                    r = Relation(src, src, rows)
                    assert r.is_subrelation_of(inverse_image(f, direct_image(f, r)))
                for rows in itertools.product(range(1 << cod), repeat=cod):
                    s = Relation(dst, dst, rows)
                    image = direct_image(f, inverse_image(f, s))
                    assert image.is_subrelation_of(s)
                    if f.is_surjective():
                        assert image == s


class TestKernelPair:
    def test_injective_gives_diagonal(self):
        f = SetMap(TWO, THREE, (0, 2))
        assert kernel_pair(f) == Relation.diagonal(TWO)

    def test_constant_gives_full(self):
        f = SetMap(THREE, TWO, (1, 1, 1))
        assert kernel_pair(f) == Relation.full(THREE, THREE)

    def test_blocks(self):
        assert set(kernel_pair(f_three_to_two()).pairs()) == {
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 2),
        }


class TestPredicates:
    def test_diagonal(self):
        flags = _relation_predicates(Relation.diagonal(THREE))
        assert (flags.reflexive, flags.transitive, flags.symmetric, flags.antisymmetric) == (
            True, True, True, True,
        )

    def test_full(self):
        flags = _relation_predicates(Relation.full(TWO, TWO))
        assert (flags.reflexive, flags.transitive, flags.symmetric, flags.antisymmetric) == (
            True, True, True, False,
        )

    def test_two_chain(self):
        flags = _relation_predicates(rel(TWO, TWO, [(0, 0), (1, 1), (0, 1)]))
        assert (flags.reflexive, flags.transitive, flags.symmetric, flags.antisymmetric) == (
            True, True, False, True,
        )

    def test_preorder_flags_read_off_equal_rows(self):
        seen = posets = equivalences = 0
        for n in range(5):
            for p in enumerate_preorders(n):
                seen += 1
                flags = _relation_predicates(p.rel)
                assert p.is_partial_order() == flags.antisymmetric
                assert p.is_equivalence() == flags.symmetric
                posets += flags.antisymmetric
                equivalences += flags.symmetric
        # 355 of the preorders have 4 points
        assert (seen, posets, equivalences) == (1 + 1 + 4 + 29 + 355, 243, 24)


class TestClosure:
    def test_empty_gives_discrete(self):
        closed = reflexive_transitive_closure(Relation.empty(THREE, THREE))
        assert closed == FinPreorder.discrete(3)

    def test_chain_edges(self):
        closed = FinPreorder.from_edges(3, [(0, 1), (1, 2)])
        assert closed == FinPreorder.chain(3)

    def test_cycle_gives_codiscrete(self):
        closed = FinPreorder.from_edges(2, [(0, 1), (1, 0)])
        assert closed == FinPreorder.codiscrete(2)

    @given(sts.endorelations())
    def test_idempotent(self, r):
        once = reflexive_transitive_closure(r)
        assert reflexive_transitive_closure(once.rel) == once

    @given(sts.endorelation_pairs())
    def test_monotone(self, pair):
        r, s = pair
        lesser = meet(r, s)
        assert reflexive_transitive_closure(lesser).rel.is_subrelation_of(
            reflexive_transitive_closure(r).rel
        )


class TestMorphisms:
    def test_monotonicity_enforced(self):
        chain = FinPreorder.chain(2)
        with pytest.raises(ValueError, match="not monotone"):
            PreordMorphism(chain, chain, SetMap(chain.carrier, chain.carrier, (1, 0)))

    def test_compose(self):
        chain = FinPreorder.chain(2)
        f = identity_morphism(chain)
        assert compose_maps(f.map, f.map) == f.map

    def test_isomorphism_detection(self):
        chain = FinPreorder.chain(2)
        disc = FinPreorder.discrete(2)
        bijection = PreordMorphism(disc, chain, SetMap(disc.carrier, chain.carrier, (0, 1)))
        assert not is_isomorphism(bijection)
        assert is_isomorphism(identity_morphism(chain))


def _point():
    return FinPreorder.discrete(1)


def _to_point(p):
    return PreordMorphism(p, _point(), SetMap(p.carrier, _point().carrier, (0,) * p.size))


class TestPullback:
    def test_along_identity_is_isomorphic_copy(self):
        chain = FinPreorder.chain(3)
        pb = preord_pullback(identity_morphism(chain), identity_morphism(chain))
        assert pb.object.size == 3
        assert is_isomorphism(pb.p1)
        assert is_isomorphism(pb.p2)

    def test_product_over_point(self):
        chain = FinPreorder.chain(2)
        codisc = FinPreorder.codiscrete(2)
        pb = preord_pullback(_to_point(chain), _to_point(codisc))
        assert pb.object.size == 4
        assert pb.object.rel.count() == 12
        carrier = pb.object.carrier
        assert [carrier.label(k) for k in range(4)] == [
            "(0,0)", "(0,1)", "(1,0)", "(1,1)",
        ]

    def test_codomain_mismatch(self):
        chain = FinPreorder.chain(2)
        with pytest.raises(ValueError, match="codomain mismatch"):
            preord_pullback(_to_point(chain), identity_morphism(chain))

    def test_projections_commute(self):
        chain = FinPreorder.chain(2)
        codisc = FinPreorder.codiscrete(3)
        f, g = _to_point(chain), _to_point(codisc)
        pb = preord_pullback(f, g)
        for k in range(pb.object.size):
            assert f(pb.p1(k)) == g(pb.p2(k))

    @given(sts.monotone_maps(max_size=5), st.data())
    def test_carrier_is_every_matching_pair_in_lexicographic_order(self, f, data):
        g = data.draw(sts.monotone_maps(max_size=5, dst=f.dst))
        pb = preord_pullback(f, g)
        pairs = [(pb.p1(k), pb.p2(k)) for k in range(pb.object.size)]
        assert pairs == [
            (x, z) for x in range(f.src.size) for z in range(g.src.size) if f(x) == g(z)
        ]


class TestPullbackUniversalProperty:
    def test_against_all_probes(self):
        from preord.oracle import (
            enumerate_morphisms,
            enumerate_preorders,
            universal_pullback,
        )

        rng = random.Random(3)
        objects = [
            p for n in range(3) for p in enumerate_preorders(n)
        ]
        instances = []
        for y in objects:
            for x in objects:
                for z in objects:
                    for f in enumerate_morphisms(x, y):
                        for g in enumerate_morphisms(z, y):
                            instances.append((f, g))
        for f, g in rng.sample(instances, 60):
            pb = preord_pullback(f, g)
            ok, why = universal_pullback(f, g, pb.object, pb.p1, pb.p2)
            assert ok, why


@functools.lru_cache(maxsize=None)
def small_commuting_squares():
    """Every commuting square ``(top, left, right, bottom)`` of monotone maps
    whose four corners have at most two points, each paired with the
    reference verdict: the comparison ``p ↦ (left p, top p)`` into
    ``preord_pullback(bottom, right)`` is an isomorphism."""
    objects = [p for n in range(3) for p in enumerate_preorders(n)]
    homs = {(i, j): list(enumerate_morphisms(a, b))
            for i, a in enumerate(objects) for j, b in enumerate(objects)}
    out = []
    for s, r, q, p in itertools.product(range(len(objects)), repeat=4):
        for bottom, right in itertools.product(homs[r, s], homs[q, s]):
            for left, top in itertools.product(homs[p, r], homs[p, q]):
                apex = objects[p]
                if any(right(top(x)) != bottom(left(x)) for x in range(apex.size)):
                    continue
                pb = preord_pullback(bottom, right)
                index = {(pb.p1(k), pb.p2(k)): k for k in range(pb.object.size)}
                values = tuple(index[left(x), top(x)] for x in range(apex.size))
                comparison = PreordMorphism(
                    apex, pb.object, SetMap(apex.carrier, pb.object.carrier, values)
                )
                out.append(((top, left, right, bottom), is_isomorphism(comparison)))
    return tuple(out)


def pullback_square_mismatches(decide):
    """The small commuting squares on which ``decide`` differs from the
    reference verdict."""
    return [sq for sq, expected in small_commuting_squares() if decide(*sq) != expected]


class TestPullbackSquare:
    def test_every_small_square_agrees_with_the_comparison(self):
        squares = small_commuting_squares()
        assert len(squares) == 14302
        assert sum(expected for _, expected in squares) == 1333
        assert pullback_square_mismatches(is_pullback_square) == []

    def test_sampled_squares_agree_with_the_universal_property(self):
        rng = random.Random(0)
        for (top, left, right, bottom), _ in rng.sample(small_commuting_squares(), 300):
            ok, why = universal_pullback(bottom, right, top.src, left, top)
            assert is_pullback_square(top, left, right, bottom) == ok, why

    def test_kernel_pair_square(self):
        codisc = FinPreorder.codiscrete(2)
        f = _to_point(codisc)
        pb = preord_pullback(f, f)
        assert is_pullback_square(top=pb.p2, left=pb.p1, right=f, bottom=f)

    def test_non_commuting_square_rejected(self):
        chain = FinPreorder.chain(2)
        swap_target = FinPreorder.codiscrete(2)
        up = PreordMorphism(chain, swap_target, SetMap(chain.carrier, swap_target.carrier, (0, 1)))
        swap = PreordMorphism(
            swap_target, swap_target, SetMap(swap_target.carrier, swap_target.carrier, (1, 0))
        )
        with pytest.raises(ValueError, match="does not commute"):
            is_pullback_square(top=up, left=up, right=swap, bottom=identity_morphism(swap_target))

    def test_relation_square_subrelation_is_not_pullback(self):
        # a unit's relation square is a pullback when the source relation is
        # the inverse image of the target's, as ``check_reflection_parts`` asks
        classes = FinSet(2, ("{0,1}", "{2}"))
        f = SetMap(THREE, classes, f_three_to_two().values)
        s = FinPreorder(classes, rel(classes, classes, [(0, 0), (1, 1), (0, 1)]))
        proper = FinPreorder(THREE, rel(THREE, THREE, [(0, 0), (1, 1), (2, 2), (0, 2)]))
        pulled = FinPreorder(THREE, inverse_image(f, s.rel))
        assert check_reflection_parts(proper, s, PreordMorphism(proper, s, f)) == (
            "relation square over the unit is not a pullback"
        )
        assert check_reflection_parts(pulled, s, PreordMorphism(pulled, s, f)) is None

    def test_relation_square_requires_commuting(self):
        # a relation that does not map into the target's is a unit that is
        # not monotone, reported before the pullback test
        f = f_three_to_two()
        too_big = FinPreorder(THREE, Relation.full(THREE, THREE))
        s = FinPreorder(TWO, Relation.diagonal(TWO))
        unit = _built(PreordMorphism, too_big, s, f)
        assert check_reflection_parts(too_big, s, unit) == "unit is not monotone"


class TestCarrierValidation:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            FinSet(2, ("a", "a"))

    def test_labels_must_match_size(self):
        with pytest.raises(ValueError, match="labels"):
            FinSet(2, ("a",))

    def test_default_labels_are_stored_as_none(self):
        assert FinSet(2, ("0", "1")) == FinSet(2)
        assert FinSet(0, ()).labels is None
        assert FinSet(2, ("1", "0")).labels == ("1", "0")

    def test_preorder_must_be_reflexive(self):
        with pytest.raises(ValueError, match="reflexive"):
            FinPreorder(TWO, rel(TWO, TWO, [(0, 1)]))

    def test_preorder_must_be_transitive(self):
        with pytest.raises(ValueError, match="transitive"):
            FinPreorder(THREE, rel(THREE, THREE, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]))


class TestColumnsMemo:
    def test_memoised_on_the_relation(self):
        r = FinPreorder.chain(3).rel
        assert r.columns() is r.columns()
        assert r.columns() == (0b001, 0b011, 0b111)

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        r, s = FinPreorder.chain(3).rel, FinPreorder.chain(3).rel
        r.columns()
        assert r == s and hash(r) == hash(s) and repr(r) == repr(s)


class TestQuotient:
    @pytest.mark.parametrize(
        "p, classes, message",
        [
            (FinPreorder.discrete(2), [[0]], "element 1 is in no class"),
            (FinPreorder.codiscrete(2), [[0, 1], [1]], "element 1 is in two classes"),
            (FinPreorder.discrete(1), [[0], []], "a class is empty"),
            (FinPreorder.chain(2), [[0, 1]], "class of 0 leaves the symmetric core"),
            (FinPreorder.codiscrete(2), [[0, 1, 2]], "element 2 out of range"),
            (FinPreorder.codiscrete(2), [[0, 1, -1]], "element -1 out of range"),
        ],
        ids=["missing", "repeated", "empty", "unequal-rows", "too-large", "negative"],
    )
    def test_rejects_what_is_not_a_partition_inside_the_core(self, p, classes, message):
        with pytest.raises(ValueError, match=message):
            quotient(p, classes)


class TestClassMap:
    """The class map of a partition, as ``quotient`` builds and checks it."""

    def test_sends_each_element_to_its_class(self):
        abc = FinSet(3, ("a", "b", "c"))
        q = quotient(FinPreorder(abc, rel(abc, abc, [(a, b) for a in range(3) for b in range(3)])),
                     [[0, 2], [1]]).map
        assert q.values == (0, 1, 0)
        assert q.cod == FinSet(2, ("{a,c}", "{b}"))

    @pytest.mark.parametrize(
        "classes, message",
        [
            ([[0], [1]], "not a partition: element 2 is in no class"),
            ([[0, 1], [1, 2]], "not a partition: element 1 is in two classes"),
            ([[0, 1, 2], []], "not a partition: a class is empty"),
            ([[0, 1, 3]], re.escape("not a partition: element 3 out of range 0..2")),
        ],
        ids=["missing", "overlapping", "empty", "out-of-range"],
    )
    def test_rejects_what_is_not_a_partition(self, classes, message):
        with pytest.raises(ValueError, match=message):
            quotient(FinPreorder.codiscrete(3), classes)


def _reflexive_relations(n):
    """Every reflexive relation on ``n`` points, as bit rows."""
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in range(1 << len(positions)):
        rows = [1 << i for i in range(n)]
        for p, (i, j) in enumerate(positions):
            if combo >> p & 1:
                rows[i] |= 1 << j
        yield tuple(rows)


@st.composite
def closed_edge_sets(draw):
    """Edges on 20 to 60 points, with their closure."""
    n = draw(st.integers(20, 60))
    point = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(point, point), min_size=1, max_size=2 * n))
    return n, edges, FinPreorder.from_edges(n, edges)


TRANSITIVITY_FAILURE = re.compile(r"not transitive: \((\d+), (\d+)\) and \((\d+), (\d+)\) but not \((\d+), (\d+)\)")
MONOTONICITY_FAILURE = re.compile(r"not monotone: \((\d+), (\d+)\) related but \((\d+), (\d+)\) is not")


def _transitivity_failure(carrier, rows):
    """The triple named by ``FinPreorder``'s error on ``rows``, checked to
    be a genuine violation, or ``None`` when the rows are accepted."""
    try:
        FinPreorder(carrier, Relation(carrier, carrier, rows))
    except ValueError as exc:
        i, j, j2, k, i2, k2 = map(int, TRANSITIVITY_FAILURE.fullmatch(str(exc)).groups())
        assert (j, i, k) == (j2, i2, k2)
        assert rows[i] >> j & 1 and rows[j] >> k & 1 and not rows[i] >> k & 1
        assert _excess(_walk(rows, rows)[0], rows) == (i, k)
        return (i, j, k)
    assert _excess(_walk(rows, rows)[0], rows) is None
    return None


def _monotonicity_failure(p, q, m):
    """The pair named by ``PreordMorphism``'s error on ``m``, checked to be a
    genuine violation, or ``None`` when the map is accepted."""
    v = m.values
    try:
        PreordMorphism(p, q, m)
    except ValueError as exc:
        a, b, fa, fb = map(int, MONOTONICITY_FAILURE.fullmatch(str(exc)).groups())
        assert (fa, fb) == (v[a], v[b])
        assert p.leq(a, b) and not q.leq(v[a], v[b])
        assert _excess(p.rel.rows, inverse_image(m, q.rel).rows) == (a, b)
        return (a, b)
    assert _excess(p.rel.rows, inverse_image(m, q.rel).rows) is None
    return None


class TestCoveredValidation:
    """Object and morphism validation, inclusions of bit rows through the
    covered kernel ``_or_rows``, agree with the per-pair scans of
    ``oracle``, and every counterexample is genuine."""

    def test_excess_is_the_first_pair_outside_the_bound(self):
        relations = list(_all_relations(THREE, TWO))
        for r in relations:
            for s in relations:
                outside = [(i, j) for i, j in r.pairs() if not s.has(i, j)]
                assert _excess(r.rows, s.rows) == (outside[0] if outside else None)

    def test_transitivity_on_every_reflexive_relation_up_to_four_points(self):
        seen = 0
        for n in range(5):
            carrier = FinSet(n)
            for rows in _reflexive_relations(n):
                seen += 1
                bad = _transitivity_failure(carrier, rows)
                assert (bad is None) == transitive_by_pairs(rows)
                assert _relation_predicates(Relation(carrier, carrier, rows)).transitive == (bad is None)
                if bad is None:
                    AlexandroffSpace(carrier, rows)
                    continue
                i, j, _ = bad
                with pytest.raises(ValueError, match=rf"not nested: U\({j}\) is not inside U\({i}\)"):
                    AlexandroffSpace(carrier, rows)
        assert seen == 4166

    def test_monotonicity_on_every_set_map_up_to_three_points(self):
        objects = [(p, preorder_to_space(p)) for n in range(4) for p in enumerate_preorders(n)]
        seen = 0
        for p, sp in objects:
            for q, sq in objects:
                accepted = []
                for m in enumerate_set_maps(p.carrier, q.carrier):
                    seen += 1
                    bad = _monotonicity_failure(p, q, m)
                    assert (bad is None) == monotone_by_pairs(p.rel.rows, q.rel.rows, m.values)
                    if bad is None:
                        accepted.append(m.values)
                        ContinuousMap(sp, sq, m)
                        continue
                    with pytest.raises(ValueError, match="not continuous"):
                        ContinuousMap(sp, sq, m)
                assert [f.map.values for f in enumerate_morphisms(p, q)] == accepted
        assert seen == 24907

    @given(closed_edge_sets(), st.data())
    def test_transitivity_counterexample_after_removing_one_pair(self, closed, data):
        n, _, p = closed
        pairs = [(i, j) for i, j in p.rel.pairs() if i != j]
        assume(pairs)
        i, j = data.draw(st.sampled_from(pairs))
        rows = list(p.rel.rows)
        rows[i] &= ~(1 << j)
        bad = _transitivity_failure(FinSet(n), tuple(rows))
        assert (bad is None) == transitive_by_pairs(rows)

    @given(closed_edge_sets(), st.data())
    def test_monotonicity_counterexample_after_removing_one_edge(self, closed, data):
        n, edges, p = closed
        drop = data.draw(st.integers(0, len(edges) - 1))
        q = FinPreorder.from_edges(n, edges[:drop] + edges[drop + 1 :])
        bad = _monotonicity_failure(p, q, identity_map(p.carrier))
        assert (bad is None) == monotone_by_pairs(p.rel.rows, q.rel.rows, tuple(range(n)))
        assert (bad is None) == (p == q)


def _all_relations(src, dst):
    """Every relation ``src -> dst``."""
    for combo in range(1 << (src.size * dst.size)):
        rows = tuple(combo >> (i * dst.size) & ((1 << dst.size) - 1) for i in range(src.size))
        yield Relation(src, dst, rows)


@st.composite
def cyclic_relations(draw):
    """Random edges on 20 to 80 points plus a directed cycle through some of
    them: neither transitive nor acyclic."""
    n = draw(st.integers(20, 80))
    point = st.integers(0, n - 1)
    cycle = draw(st.lists(point, min_size=2, max_size=n, unique=True))
    edges = draw(st.lists(st.tuples(point, point), max_size=2 * n))
    edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    return Relation.from_pairs(FinSet(n), FinSet(n), edges)


def _assert_kernel_matches_bits(r):
    """On a fresh copy of ``r``: the call that records its walk, then a
    replay with a second table, the backward replay and the columns, each
    against its per-bit counterpart; and on another copy, the columns as
    the first call."""
    rows, width = r.rows, r.dst.size
    singletons = tuple(1 << j for j in range(width))
    wide = tuple(0b101 << j for j in range(width))
    weights = tuple(0b11 << i for i in range(len(rows)))
    first = Relation(r.src, r.dst, rows)
    assert first.columns() == transpose_by_bits(rows, width)
    assert _or_rows(first, wide) == or_rows_by_bits(rows, wide)
    r = Relation(r.src, r.dst, rows)
    assert "_walk" not in r.__dict__
    assert _or_rows(r, singletons) == or_rows_by_bits(rows, singletons) == rows
    walk = r.__dict__["_walk"]
    assert _or_rows(r, wide) == or_rows_by_bits(rows, wide)
    assert _or_cols(r, weights) == or_cols_by_bits(rows, weights, width)
    assert r.columns() == transpose_by_bits(rows, width)
    assert r.__dict__["_walk"] is walk
    if r.is_endorelation():
        assert _or_rows(r, rows) == or_rows_by_bits(rows, rows)
        assert reflexive_transitive_closure(r) == closure_slow(r)


class TestCoveredKernel:
    """The recorded covered walk, replayed forward by ``_or_rows`` and
    backward by ``_or_cols`` and ``Relation.columns``, and the walk of the
    closure agree with their per-bit counterparts in ``oracle``."""

    def test_every_endorelation_up_to_three_points(self):
        seen = 0
        for n in range(4):
            carrier = FinSet(n)
            for r in _all_relations(carrier, carrier):
                seen += 1
                _assert_kernel_matches_bits(r)
        assert seen == 1 + 2 + 16 + 512

    def test_or_rows_on_every_row_tuple_up_to_three_points(self):
        """Every tuple of up to three rows over up to three points, against
        singleton tables (whose answer is the rows), tables wider than the
        rows, and the rows themselves when they can index their own bits;
        and the walk recorded on a relation into the wider carrier, replayed
        forward with a second table and backward with weights."""
        seen = 0
        for n in range(4):
            for width in range(4):
                singletons = tuple(1 << j for j in range(width))
                wide = tuple(0b101 << j for j in range(width + 2))
                for combo in range(1 << (n * width)):
                    rows = tuple(combo >> (i * width) & ((1 << width) - 1) for i in range(n))
                    seen += 1
                    assert _walk(rows, singletons)[0] == rows
                    assert _walk(rows, wide)[0] == or_rows_by_bits(rows, wide)
                    r = _built(Relation, FinSet(n), FinSet(width + 2), rows)
                    assert _or_rows(r, wide) == or_rows_by_bits(rows, wide)  # records
                    assert _or_rows(r, wide[::-1]) == or_rows_by_bits(rows, wide[::-1])  # replays
                    assert _or_cols(r, wide[:n]) == or_cols_by_bits(rows, wide[:n], width + 2)
                    if width <= n:
                        assert _walk(rows, rows)[0] == or_rows_by_bits(rows, rows)
        assert seen == 4 + 1 + 2 + 4 + 8 + 1 + 4 + 16 + 64 + 1 + 8 + 64 + 512

    def test_heterogeneous_two_by_three_and_three_by_two(self):
        wide = list(_all_relations(TWO, THREE))
        tall = list(_all_relations(THREE, TWO))
        for r in wide + tall:
            _assert_kernel_matches_bits(r)
        for r in wide:
            for s in tall:
                assert compose_relations(r, s) == compose_relations_slow(r, s)
                assert compose_relations(s, r) == compose_relations_slow(s, r)

    @given(cyclic_relations())
    def test_cyclic_non_transitive_relations(self, r):
        _assert_kernel_matches_bits(r)

    @given(cyclic_relations())
    def test_closed_relations(self, r):
        _assert_kernel_matches_bits(reflexive_transitive_closure(r).rel)

    @given(cyclic_relations())
    def test_components_come_sinks_first(self, r):
        comps = _scc_classes(r.rows)
        earlier = 0
        for comp in comps:
            assert comp and not comp & earlier
            reached = 0
            for v in range(r.src.size):
                if comp >> v & 1:
                    reached |= r.rows[v]
            assert reached & ~(earlier | comp) == 0
            earlier |= comp
        assert earlier == (1 << r.src.size) - 1
        classes = row_classes(closure_slow(r).rel.rows)
        assert sorted(comps) == sorted(sum(1 << v for v in cls) for cls in classes)


class TestMonotoneMapStrategy:
    @given(sts.monotone_maps(dst=FinPreorder.discrete(0)))
    def test_empty_target_draws_the_empty_map(self, f):
        assert f.src.size == 0 and f.dst.size == 0

    @given(st.data())
    def test_nonempty_source_into_empty_target_is_rejected(self, data):
        with pytest.raises(InvalidArgument):
            data.draw(sts.monotone_maps(src=FinPreorder.chain(2), dst=FinPreorder.discrete(0)))
