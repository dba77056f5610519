"""Thirteen hand-crafted corruptions, each caught by a verification check.

Every mutation reimplements one operation with a plausible bug, produces
its output, and feeds it through the same checks the suites run.  A
mutation counts as detected when the check reports a failure (or the
construction itself is rejected).  These document which part of the net
guards which operation.
"""

import pytest

from preord import factorization as fct
from preord.factorization import (
    FactorizationResult,
    is_effective_descent,
    is_in_E_bar,
    is_in_M,
)
from preord.oracle import (
    closure_slow,
    compose_relations_slow,
    universal_pullback,
)
from preord.oracle import enumerate_morphisms, enumerate_preorders
from preord.pretorsion import Reflection, generators, reflect, reflect_morphism, sym_core
from preord.relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    compose_relations,
    direct_image,
    graph_relation,
    identity_morphism,
    inverse_image,
    is_pullback_square,
    kernel_pair,
    meet,
    opposite,
    preord_pullback,
    quotient,
    row_classes,
)
from preord.suites import _relation_predicates


def to_point(p):
    point = FinPreorder.discrete(1)
    return PreordMorphism(p, point, SetMap(p.carrier, point.carrier, (0,) * p.size))


# -- 1. reflection that skips the symmetric-core quotient --------------------

def test_mutation_reflect_without_quotient():
    def corrupt_reflect(p):
        return Reflection(p, identity_morphism(p))

    from preord.suites import check_reflection_parts

    p = FinPreorder.codiscrete(2)
    failure = check_reflection_parts(p, *corrupt_reflect(p))
    assert failure == "quotient is not antisymmetric"


# -- 2. trivial-covering test without the uniqueness half --------------------

def test_mutation_in_M_without_uniqueness():
    def corrupt_is_in_M(f):
        core_src = sym_core(f.src)
        core_dst = sym_core(f.dst)
        pre = f.map.preimage_masks()
        for a in range(f.src.size):
            for b in _bits(core_dst.rows[f(a)]):
                if not core_src.rows[a] & pre[b]:  # existence only
                    return False
        return True

    f = to_point(FinPreorder.codiscrete(2))
    weakened = corrupt_is_in_M(f)
    square = is_pullback_square(
        top=f,
        left=reflect(f.src).unit,
        right=reflect(f.dst).unit,
        bottom=reflect_morphism(f),
    )
    assert weakened and not square  # naturality-square cross-check fires
    assert is_in_M(f) == square


# -- 3. symmetric core without the opposite ----------------------------------

def test_mutation_sym_core_without_opposite():
    def corrupt_sym_core(p):
        return p.rel

    flags = _relation_predicates(corrupt_sym_core(FinPreorder.chain(2)))
    assert not flags.symmetric  # the equivalence-relation check fires


# -- 4. relational composition with flipped arguments ------------------------

def test_mutation_compose_flipped():
    def corrupt_compose(r, s):
        return compose_relations(s, r)

    two = FinSet(2)
    r = Relation.from_pairs(two, two, [(0, 1)])
    s = Relation.from_pairs(two, two, [(1, 0)])
    assert corrupt_compose(r, s) != compose_relations_slow(r, s)


# -- 5. direct image keeping only diagonal collapses --------------------------

def test_mutation_direct_image_diagonal_only():
    def corrupt_direct_image(f, r):
        pairs = [(f(a), f(a)) for a in range(f.dom.size) if r.has(a, a)]
        return Relation.from_pairs(f.cod, f.cod, pairs)

    three, two = FinSet(3), FinSet(2)
    f = SetMap(three, two, (0, 0, 1))
    r = Relation.from_pairs(three, three, [(0, 0), (1, 1), (2, 2), (0, 2)])
    g = graph_relation(f)
    formula = compose_relations(compose_relations(opposite(g), r), g)
    assert corrupt_direct_image(f, r) != formula
    assert direct_image(f, r) == formula


# -- 6. inverse image transposed ----------------------------------------------

def test_mutation_inverse_image_transposed():
    def corrupt_inverse_image(f, s):
        pairs = [
            (a, a2)
            for a in range(f.dom.size)
            for a2 in range(f.dom.size)
            if s.has(f(a2), f(a))
        ]
        return Relation.from_pairs(f.dom, f.dom, pairs)

    three, two = FinSet(3), FinSet(2)
    f = SetMap(three, two, (0, 0, 1))
    s = Relation.from_pairs(two, two, [(0, 0), (1, 1), (0, 1)])
    g = graph_relation(f)
    formula = compose_relations(compose_relations(g, s), opposite(g))
    assert corrupt_inverse_image(f, s) != formula
    assert inverse_image(f, s) == formula


# -- 7. closure returning the full relation -----------------------------------

def test_mutation_closure_returns_full():
    def corrupt_closure(r):
        return FinPreorder(r.src, Relation.full(r.src, r.dst))

    three = FinSet(3)
    r = Relation.from_pairs(three, three, [(0, 1)])
    assert corrupt_closure(r) != closure_slow(r)  # minimality oracle fires


# -- 8. descent cover with two levels instead of three ------------------------

def test_mutation_cover_with_two_levels():
    def corrupt_cover(b, levels=2):
        # same lexicographic construction, but with too few levels
        from preord.relations import row_classes

        poset, _ = reflect(b)
        classes = row_classes(sym_core(b).rows)
        triples = [
            (ci, lv, beta)
            for ci, cls in enumerate(classes)
            for lv in range(levels)
            for beta in cls
        ]
        class_mask = [0] * len(classes)
        level_mask = {}
        for k, (ci, lv, _) in enumerate(triples):
            class_mask[ci] |= 1 << k
            level_mask[ci, lv] = level_mask.get((ci, lv), 0) | 1 << k
        rows = []
        for k, (ci, lv, _) in enumerate(triples):
            row = 1 << k
            for cj in _bits(poset.rel.rows[ci]):
                if cj != ci:
                    row |= class_mask[cj]
            for higher in range(lv + 1, levels):
                row |= level_mask[ci, higher]
            rows.append(row)
        carrier = FinSet(len(triples))
        total = FinPreorder(carrier, Relation(carrier, carrier, tuple(rows)))
        proj = PreordMorphism(
            total, b, SetMap(carrier, b.carrier, tuple(beta for _, _, beta in triples))
        )
        return total, proj

    from preord.suites import check_cover_parts

    b = FinPreorder.codiscrete(3)
    total, proj = corrupt_cover(b)
    failure = check_cover_parts(b, total, proj)
    assert failure is not None and "expected 9" in failure
    # even ignoring the size, the chain-lifting test refuses two levels
    assert not is_effective_descent(proj)


# -- 9. light factorization quotienting by the kernel pair alone --------------

def test_mutation_light_factorization_without_core():
    def corrupt_quotient(f):
        classes = {}
        for a in range(f.src.size):
            classes.setdefault(f(a), []).append(a)
        blocks = sorted(classes.values(), key=lambda c: c[0])
        values = [0] * f.src.size
        for ci, cls in enumerate(blocks):
            for a in cls:
                values[a] = ci
        carrier = FinSet(len(blocks))
        q = SetMap(f.src.carrier, carrier, tuple(values))
        mid = FinPreorder(carrier, direct_image(q, f.src.rel))
        return PreordMorphism(f.src, mid, q)

    f = to_point(FinPreorder.discrete(2))
    e = corrupt_quotient(f)
    assert not is_in_E_bar(e)  # certificate check fires: e is not fully faithful


# -- 10. pullback dropping a carrier element -----------------------------------

def test_mutation_pullback_dropping_element():
    def corrupt_pullback(f, g):
        full = preord_pullback(f, g)
        keep = range(full.object.size - 1)
        carrier = FinSet(len(keep))
        rows = [full.object.rel.rows[k] & ((1 << len(keep)) - 1) for k in keep]
        obj = FinPreorder(carrier, Relation(carrier, carrier, tuple(rows)))
        p1 = PreordMorphism(
            obj, f.src, SetMap(carrier, f.src.carrier, tuple(full.p1(k) for k in keep))
        )
        p2 = PreordMorphism(
            obj, g.src, SetMap(carrier, g.src.carrier, tuple(full.p2(k) for k in keep))
        )
        return obj, p1, p2

    chain = FinPreorder.chain(2)
    codisc = FinPreorder.codiscrete(2)
    f, g = to_point(chain), to_point(codisc)
    obj, p1, p2 = corrupt_pullback(f, g)
    ok, why = universal_pullback(f, g, obj, p1, p2)
    assert not ok
    assert "factors 0 times" in why


# -- 11. document writer dropping the edge that closes each core cycle ---------

def test_mutation_writer_drops_cycle_closing_edges():
    def corrupt_dumps(doc):
        out = ["preord 2", ""]
        for name in sorted(doc.preorders):
            p = doc.preorders[name]
            rows = list(generators(p).rows)
            for fibre in reflect(p).unit.map.preimage_masks():
                members = list(_bits(fibre))
                if len(members) > 1:
                    rows[members[-1]] &= ~(1 << members[0])  # last back to first
            labels = [p.carrier.label(i) for i in range(p.size)]
            out += [f"object {name}", ("  points " + " ".join(labels)).rstrip()]
            out += [f"  edge {labels[a]} {labels[b]}" for a, row in enumerate(rows) for b in _bits(row)]
            out.append("")
        return "\n".join(out)

    from preord.docio import loads
    from preord.suites import _object_document, check_document_roundtrip

    p = FinPreorder.codiscrete(2)
    text = corrupt_dumps(_object_document(p))
    assert check_document_roundtrip(p, text) == "writer disagrees with the per-pair writer"
    assert loads(text, strict=True).preorders["P"] != p  # the text is another object's
    # the check fires on exactly the objects with a core class of two or more
    for q in (q for n in range(4) for q in enumerate_preorders(n)):
        failure = check_document_roundtrip(q, corrupt_dumps(_object_document(q)))
        assert (failure is not None) == (not q.is_partial_order())


# -- 12. pullback-square test without the order comparison ---------------------

def test_mutation_pullback_square_without_order():
    def corrupt_is_pullback_square(top, left, right, bottom):
        # the comparison into the pullback is a bijection; its order is unread
        over = zip(bottom.map.preimage_masks(), right.map.preimage_masks())
        pairs = set(zip(left.map.values, top.map.values))
        return len(pairs) == top.src.size == sum(r.bit_count() * q.bit_count() for r, q in over)

    from test_relations import pullback_square_mismatches

    # the exhaustive square test fires on the squares that fail only on order
    assert len(pullback_square_mismatches(corrupt_is_pullback_square)) == 988
    assert pullback_square_mismatches(is_pullback_square) == []


# -- 13. light factorization with its classes ordered greatest member first ---

def test_mutation_light_factorization_classes_by_greatest_member():
    def corrupt_light_factorization(f):
        classes = row_classes(meet(kernel_pair(f.map), sym_core(f.src)).rows)
        classes.sort(key=lambda cls: -cls[-1])  # the library puts least members first
        e = quotient(f.src, classes)
        m_map = SetMap(e.dst.carrier, f.dst.carrier, tuple(f(cls[0]) for cls in classes))
        m = PreordMorphism(e.dst, f.dst, m_map)
        return FactorizationResult(e.dst, e, m, "monotone-light")

    from preord.suites import (
        check_e_bar_three_way,
        check_factorization_parts,
        check_factorization_uniqueness,
        check_m_star_agreement,
    )

    objects = [p for n in range(4) for p in enumerate_preorders(n)]
    maps = [f for p in objects for q in objects for f in enumerate_morphisms(p, q)]
    failures = [check_factorization_parts(f, corrupt_light_factorization(f)) for f in maps]
    caught = [f for f, failure in zip(maps, failures) if failure is not None]
    # the legs certify, so only the covering-kernel comparison fires: on every
    # map whose classes, read greatest member first, come in another order
    assert len(maps) == 11_345 and len(caught) == 10_374
    assert set(failures) == {None, "covering kernel is not the reflected relative kernel"}
    # the gate's other light-class checks pass it (every tenth caught map)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fct, "monotone_light_factorization", corrupt_light_factorization)
        for f in caught[::10]:
            assert check_factorization_uniqueness(f) is None
            assert check_m_star_agreement(f) is None
            assert check_e_bar_three_way(f) is None


def test_kernel_pair_mutation_is_covered_elsewhere():
    """Damaging the relative kernel is exercised by the universal-property
    oracle; see the corrupted-kernel case in the oracle tests."""
    f = to_point(FinPreorder.codiscrete(2))
    assert meet(f.src.rel, kernel_pair(f.map)) == f.src.rel
