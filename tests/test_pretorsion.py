import gc
import random
import weakref

import pytest
from hypothesis import given, settings

import strategies as sts
from preord import relations
from preord.oracle import (
    enumerate_morphisms,
    enumerate_preorders,
    generators_by_pairs,
    random_preorder,
    reflect_by_quotient,
    universal_n_cokernel,
    universal_n_kernel,
)
from preord.pretorsion import (
    Decomposition,
    canonical_sequence,
    decompose,
    generators,
    ideal_factorization,
    in_ideal_N,
    n_kernel,
    recompose,
    reflect,
    reflect_morphism,
    sym_core,
)
from preord.relations import (
    FinPreorder,
    Relation,
    SetMap,
    PreordMorphism,
    compose_morphisms,
    identity_morphism,
    inverse_image,
    is_isomorphism,
    meet,
    opposite,
    reflexive_transitive_closure,
)
from preord.suites import _relation_predicates, check_reflection_parts, check_trivial_homs


def running_example():
    return FinPreorder.from_edges(3, [(0, 1), (1, 0), (1, 2)])


def to_point(p):
    point = FinPreorder.discrete(1)
    return PreordMorphism(p, point, SetMap(p.carrier, point.carrier, (0,) * p.size))


class TestSymCore:
    def test_partial_order_gives_diagonal(self):
        chain = FinPreorder.chain(3)
        assert sym_core(chain) == Relation.diagonal(chain.carrier)

    def test_equivalence_is_fixed(self):
        blocks = FinPreorder.from_edges(3, [(0, 1), (1, 0)])
        assert sym_core(blocks) == blocks.rel

    def test_running_example_blocks(self):
        core = sym_core(running_example())
        assert set(core.pairs()) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}

    @given(sts.preorders(max_size=50))
    @settings(max_examples=30)
    def test_always_an_equivalence(self, p):
        flags = _relation_predicates(sym_core(p))
        assert flags.reflexive and flags.transitive and flags.symmetric
        assert sym_core(p) == meet(p.rel, opposite(p.rel))

    def test_is_the_meet_with_the_opposite_up_to_three_points(self):
        objects = [p for n in range(4) for p in enumerate_preorders(n)]
        assert len(objects) == 35
        for p in objects:
            assert sym_core(p) == meet(p.rel, opposite(p.rel))


class TestReflect:
    def test_discrete_is_fixed_up_to_labels(self):
        p = FinPreorder.discrete(3)
        poset, unit = reflect(p)
        assert unit.map.values == (0, 1, 2)
        assert poset.rel.rows == p.rel.rows
        assert is_isomorphism(unit)

    def test_codiscrete_collapses_to_point(self):
        poset, unit = reflect(FinPreorder.codiscrete(4))
        assert poset.size == 1
        assert unit.map.values == (0, 0, 0, 0)

    def test_running_example_condenses_to_chain(self):
        poset, unit = reflect(running_example())
        assert poset.size == 2
        assert poset.rel.pairs() == ((0, 0), (0, 1), (1, 1))
        assert unit.map.values == (0, 0, 1)
        assert poset.carrier.labels == ("{0,1}", "{2}")

    @given(sts.preorders(max_size=12))
    def test_quotient_is_partial_order(self, p):
        poset, unit = reflect(p)
        assert poset.is_partial_order()
        assert unit.is_surjective()

    @given(sts.preorders(max_size=12))
    def test_unit_square_is_pullback(self, p):
        poset, unit = reflect(p)
        assert inverse_image(unit.map, poset.rel) == p.rel
        assert check_reflection_parts(p, poset, unit) is None

    @given(sts.preorders(max_size=12))
    def test_idempotent_up_to_isomorphism(self, p):
        poset, _ = reflect(p)
        assert is_isomorphism(reflect(poset).unit)

    @given(sts.monotone_maps(max_size=7))
    def test_unit_naturality(self, f):
        lhs = compose_morphisms(reflect(f.dst).unit, f)
        rhs = compose_morphisms(reflect_morphism(f), reflect(f.src).unit)
        assert lhs.map == rhs.map

    def test_memoised_on_the_object(self):
        p = running_example()
        assert reflect(p) is reflect(p)

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        p, q = running_example(), running_example()
        reflect(p)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)

    def test_memo_dies_with_the_object(self):
        # labels no other test uses, so no earlier equal object is involved
        p = FinPreorder.from_edges(3, [(0, 1), (1, 0)], labels=("w0", "w1", "w2"))
        reflect(p)
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None

    def test_memo_makes_no_reference_cycle(self):
        p = FinPreorder.from_edges(3, [(0, 1), (1, 0)], labels=("c0", "c1", "c2"))
        reflection = reflect(p)
        assert reflection.unit.src == p and reflection.unit.src.rel is p.rel
        ref = weakref.ref(p)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del p
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_no_relation_is_transposed(self, monkeypatch):
        # count real transposes, the backward replays below the memo in
        # ``Relation.columns``
        transposed = []
        or_cols = relations._or_cols
        monkeypatch.setattr(
            relations, "_or_cols", lambda rel, weights: transposed.append(rel) or or_cols(rel, weights)
        )
        p = running_example()
        canonical_sequence(p)
        decompose(p)
        sym_core(p)
        assert transposed == []  # each reads its classes off equal rows


def _covers_by_pairs(poset):
    """The covering pairs of a partial order: ``a < b`` with nothing strictly
    between."""
    n, leq = poset.size, poset.leq
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and leq(a, b) and not any(c not in (a, b) and leq(a, c) and leq(c, b) for c in range(n))
    ]


def _small_and_random_preorders():
    rng = random.Random(0)
    yield from (p for n in range(4) for p in enumerate_preorders(n))
    for _ in range(60):
        yield random_preorder(rng, rng.randint(0, 30), edge_factor=rng.choice([0.5, 1.2, 3.0]))


class TestGenerators:
    def test_running_example(self):
        assert generators(running_example()).pairs() == ((0, 1), (0, 2), (1, 0))

    def test_closure_count_and_per_pair_edges(self):
        """The generators close to the object, number one per member of each
        core class of two or more members plus one per cover of the
        reflection, and are the edges the per-pair oracle picks."""
        for p in _small_and_random_preorders():
            gens = generators(p)
            assert reflexive_transitive_closure(gens) == p
            witness = reflect_by_quotient(p)
            sizes = [fibre.bit_count() for fibre in witness.unit.map.preimage_masks()]
            cycle_edges = sum(size for size in sizes if size > 1)
            assert gens.count() == cycle_edges + len(_covers_by_pairs(witness.poset))
            assert list(gens.pairs()) == generators_by_pairs(p)

    def test_partial_orders_give_their_hasse_edges(self):
        posets = [p for p in _small_and_random_preorders() if p.is_partial_order()]
        posets += [reflect(p).poset for p in _small_and_random_preorders()]
        for poset in posets:
            assert list(generators(poset).pairs()) == _covers_by_pairs(poset)


class TestIdeal:
    def test_discrete_source_is_member(self):
        f = to_point(FinPreorder.discrete(3))
        assert in_ideal_N(f)

    def test_identity_on_nondiscrete_is_not(self):
        assert not in_ideal_N(identity_morphism(FinPreorder.chain(2)))

    def test_constant_is_member(self):
        f = to_point(FinPreorder.codiscrete(3))
        assert in_ideal_N(f)

    def test_witness_composes_back(self):
        f = to_point(FinPreorder.codiscrete(3))
        witness = ideal_factorization(f)
        assert witness is not None
        assert witness.discrete.is_discrete()
        assert compose_morphisms(witness.embed, witness.collapse).map == f.map

    def test_no_witness_outside(self):
        assert ideal_factorization(identity_morphism(FinPreorder.chain(2))) is None


class TestNKernel:
    def test_injective_gives_discrete(self):
        chain = FinPreorder.chain(2)
        f = PreordMorphism(
            FinPreorder.discrete(2), chain, SetMap(FinPreorder.discrete(2).carrier, chain.carrier, (0, 1))
        )
        assert n_kernel(f).K == FinPreorder.discrete(2)

    def test_constant_keeps_relation(self):
        p = running_example()
        f = to_point(p)
        assert n_kernel(f).K == p

    def test_codiscrete_over_point(self):
        f = to_point(FinPreorder.codiscrete(2))
        assert n_kernel(f).K == FinPreorder.codiscrete(2)

    def test_composite_lands_in_ideal(self):
        f = to_point(running_example())
        kern = n_kernel(f)
        assert in_ideal_N(compose_morphisms(f, kern.k))


class TestCanonicalSequence:
    def test_partial_order_has_discrete_torsion(self):
        seq = canonical_sequence(FinPreorder.chain(3))
        assert seq.torsion_part.src.is_discrete()
        assert is_isomorphism(seq.free_part)

    def test_equivalence_has_discrete_quotient(self):
        blocks = FinPreorder.from_edges(3, [(0, 1), (1, 0)])
        seq = canonical_sequence(blocks)
        assert seq.torsion_part.src == blocks
        assert seq.free_part.dst.is_discrete()
        assert seq.free_part.dst.size == 2

    def test_running_example(self):
        seq = canonical_sequence(running_example())
        assert seq.witness == ((0, 1), (2,))
        assert seq.free_part.dst.rel.pairs() == ((0, 0), (0, 1), (1, 1))

    def test_universal_properties_on_running_example(self):
        seq = canonical_sequence(running_example())
        ok, why = universal_n_kernel(seq.free_part, seq.torsion_part.src, seq.torsion_part)
        assert ok, why
        ok, why = universal_n_cokernel(seq.torsion_part, seq.free_part)
        assert ok, why


class TestDecomposition:
    def test_discrete_round_trip(self):
        p = FinPreorder.discrete(2)
        d = decompose(p)
        assert d.equiv == Relation.diagonal(p.carrier)
        assert d.quotient_order.is_discrete()
        assert recompose(d) == p

    def test_codiscrete_round_trip(self):
        p = FinPreorder.codiscrete(3)
        d = decompose(p)
        assert d.equiv == Relation.full(p.carrier, p.carrier)
        assert d.quotient_order.size == 1
        assert recompose(d) == p

    @given(sts.preorders(max_size=10))
    def test_round_trips(self, p):
        d = decompose(p)
        assert recompose(d) == p
        assert decompose(recompose(d)) == d

    def test_recompose_rejects_non_antisymmetric_quotient(self):
        p = FinPreorder.codiscrete(2)
        bad = Decomposition(
            Relation.diagonal(p.carrier),
            p,
            SetMap(p.carrier, p.carrier, (0, 1)),
        )
        with pytest.raises(ValueError, match="antisymmetric"):
            recompose(bad)

    def test_decomposition_validates_kernel(self):
        p = FinPreorder.discrete(2)
        with pytest.raises(ValueError, match="equivalence"):
            Decomposition(
                Relation.from_pairs(p.carrier, p.carrier, [(0, 0), (1, 1), (0, 1)]),
                FinPreorder.discrete(2),
                SetMap(p.carrier, p.carrier, (0, 1)),
            )


class TestHomTriviality:
    def test_codiscrete_to_chain(self):
        t = FinPreorder.codiscrete(2)
        fp = FinPreorder.chain(2)
        assert len(list(enumerate_morphisms(t, fp))) == 2
        assert check_trivial_homs(t, fp) is None

    def test_discrete_source(self):
        assert check_trivial_homs(FinPreorder.discrete(3), FinPreorder.chain(3)) is None
