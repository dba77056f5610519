import gc
import weakref

import pytest
from hypothesis import given, settings

import strategies as sts
from preord import relations
from preord.oracle import brute_force_universal, enumerate_morphisms
from preord.pretorsion import (
    Decomposition,
    canonical_sequence,
    decompose,
    hom_is_trivial,
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
    relation_predicates,
    relation_square_is_pullback,
)


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
        flags = relation_predicates(sym_core(p))
        assert flags.reflexive and flags.transitive and flags.symmetric


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
        assert relation_square_is_pullback(unit.map, p.rel, poset.rel)

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

    def test_each_relation_is_transposed_once(self, monkeypatch):
        # count real transposes, below the memo in ``Relation.columns``
        transposed = []
        transpose = relations._transpose
        monkeypatch.setattr(
            relations, "_transpose", lambda rows, width: transposed.append(rows) or transpose(rows, width)
        )
        canonical_sequence(running_example())
        assert len(transposed) == 1  # the symmetric core; its checks read equal rows
        transposed.clear()
        p = running_example()
        reflect(p)
        canonical_sequence(p)
        decompose(p)
        canonical_sequence(p)
        assert transposed.count(p.rel.rows) == 1


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
        ok, why = brute_force_universal(
            "n-kernel", f=seq.free_part, K=seq.torsion_part.src, k=seq.torsion_part
        )
        assert ok, why
        ok, why = brute_force_universal(
            "n-cokernel", k=seq.torsion_part, p=seq.free_part
        )
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
        assert hom_is_trivial(t, fp)

    def test_discrete_source(self):
        assert hom_is_trivial(FinPreorder.discrete(3), FinPreorder.chain(3))

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="equivalence"):
            hom_is_trivial(FinPreorder.chain(2), FinPreorder.chain(2))
        with pytest.raises(ValueError, match="partial order"):
            hom_is_trivial(FinPreorder.discrete(2), FinPreorder.codiscrete(2))
