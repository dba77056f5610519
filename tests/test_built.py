"""Every library result built without its constructor's checks equals its
rebuild through the public constructors, which run those checks.

The rebuild raises when a built carrier has repeated or unprintable labels,
a built relation or map does not fit its carriers, a built preorder is not
reflexive and transitive, a built space not nested, a built map not
monotone, or a built record (factorization, exact sequence, decomposition)
fails its constructor's checks.  It differs from the built value when a
built carrier keeps labels that spell ``0 1 ...``, which ``FinSet`` stores
as ``None``.  Equal values must also hash equally, since built values meet
checked ones in sets and dicts.
"""

import random

import pytest

from preord import alexandroff as alx
from preord import factorization as fct
from preord import oracle
from preord import pretorsion as pre
from preord.relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    compose_maps,
    compose_morphisms,
    compose_relations,
    direct_image,
    graph_relation,
    identity_map,
    identity_morphism,
    inverse_image,
    kernel_pair,
    meet,
    opposite,
    preord_pullback,
    quotient,
    reflexive_transitive_closure,
    row_classes,
)


def rebuilt(x):
    """``x`` made again through its public constructor, parts first."""
    if isinstance(x, fct.FactorizationResult):
        return fct.FactorizationResult(rebuilt(x.mid), rebuilt(x.e), rebuilt(x.m), x.system)
    if isinstance(x, pre.NExactSequence):
        return pre.NExactSequence(rebuilt(x.torsion_part), rebuilt(x.free_part), x.witness)
    if isinstance(x, pre.Decomposition):
        return pre.Decomposition(
            rebuilt(x.equiv), rebuilt(x.quotient_order), rebuilt(x.section_data)
        )
    if isinstance(x, FinSet):
        return FinSet(x.size, x.labels)
    if isinstance(x, Relation):
        return Relation(rebuilt(x.src), rebuilt(x.dst), x.rows)
    if isinstance(x, SetMap):
        return SetMap(rebuilt(x.dom), rebuilt(x.cod), x.values)
    if isinstance(x, FinPreorder):
        return FinPreorder(rebuilt(x.carrier), rebuilt(x.rel))
    if isinstance(x, PreordMorphism):
        return PreordMorphism(rebuilt(x.src), rebuilt(x.dst), rebuilt(x.map))
    if isinstance(x, alx.AlexandroffSpace):
        return alx.AlexandroffSpace(rebuilt(x.carrier), x.min_nbhd)
    if isinstance(x, alx.ContinuousMap):
        return alx.ContinuousMap(rebuilt(x.src), rebuilt(x.dst), rebuilt(x.map))
    raise TypeError(f"no public constructor known for {type(x).__name__}")


def assert_rebuilds(*values):
    for x in values:
        y = rebuilt(x)
        assert y == x and hash(y) == hash(x)


def check_object_sites(p: FinPreorder) -> None:
    poset, unit = pre.reflect(p)
    seq = pre.canonical_sequence(p)
    cover = fct.effective_descent_cover(p)
    space = alx.preorder_to_space(p)
    t0 = alx.t0_reflection(space)
    r = p.rel
    classes = row_classes(r.rows)
    assert_rebuilds(
        compose_relations(r, r),
        opposite(r),
        meet(r, opposite(r)),
        pre.sym_core(p),
        pre.generators(p),
        quotient(p, classes).map,
        quotient(p, classes),
        identity_map(p.carrier),
        reflexive_transitive_closure(p.rel),
        identity_morphism(p),
        poset,
        unit,
        unit.src,
        seq.torsion_part,
        seq,
        pre.decompose(p),
        pre.recompose(pre.decompose(p)),
        cover.total,
        cover.projection,
        space,
        alx.space_to_preorder(space),
        t0.space,
        t0.projection,
        alx.subspace(space, range(0, p.size, 2)),
        alx.subspace(space, range(1, p.size, 2)),
    )


def check_map_sites(f: PreordMorphism) -> None:
    pb = preord_pullback(f, f)
    kernel = pre.n_kernel(f)
    refl = fct.reflective_factorization(f)
    light = fct.monotone_light_factorization(f)
    witness = pre.ideal_factorization(f)
    if witness is not None:
        assert_rebuilds(*witness)
    assert_rebuilds(
        graph_relation(f.map),
        direct_image(f.map, f.src.rel),
        inverse_image(f.map, f.dst.rel),
        kernel_pair(f.map),
        compose_maps(pre.reflect(f.dst).unit.map, f.map),
        compose_morphisms(pre.reflect(f.dst).unit, f),
        pb.object,
        pb.p1,
        pb.p2,
        pre.reflect_morphism(f),
        kernel.k,
        refl.e,
        refl.m,
        light.e,
        light.m,
        refl,
        light,
    )


def test_every_site_on_every_preorder_and_map_up_to_three_points():
    objects = [p for n in range(4) for p in oracle.enumerate_preorders(n)]
    maps = [f for p in objects for q in objects for f in oracle.enumerate_morphisms(p, q)]
    assert len(objects) == 35 and len(maps) == 11_345
    for p in objects:
        check_object_sites(p)
    for f in maps:
        check_map_sites(f)


@pytest.mark.parametrize("seed", range(3))
def test_every_site_on_random_preorders_and_maps_up_to_forty_points(seed):
    rng = random.Random(seed)
    for _ in range(40):
        size = rng.randint(0, 40)
        check_object_sites(oracle.random_preorder(rng, size))
        f = oracle.random_morphism(rng, 40)
        check_map_sites(f)
        carrier = FinSet(size)
        edges = [(rng.randrange(size), rng.randrange(size)) for _ in range(size)]
        assert_rebuilds(reflexive_transitive_closure(Relation.from_pairs(carrier, carrier, edges)))


def test_every_site_on_the_edge_cases():
    # the empty carrier, where every built carrier has no labels
    empty = FinPreorder.discrete(0)
    check_object_sites(empty)
    check_map_sites(identity_morphism(empty))
    # two classes spell ``{a,b}``, so the reflection falls back to ``0 1``
    colliding = FinPreorder.from_edges(3, [(0, 1), (1, 0)], labels=("a", "b", "a,b"))
    assert pre.reflect(colliding).poset.carrier.labels is None
    check_object_sites(colliding)
    check_map_sites(identity_morphism(colliding))
    # copied labels that spell ``0 1``: a subspace and an ideal factorization
    spelled = FinPreorder.discrete(3, labels=("x", "0", "1"))
    space = alx.preorder_to_space(spelled)
    assert alx.subspace(space, [1, 2]).carrier.labels is None
    assert_rebuilds(alx.subspace(space, [1, 2]), alx.subspace(space, [1]))
    two = FinPreorder.discrete(2)
    f = PreordMorphism(two, spelled, SetMap(two.carrier, spelled.carrier, (1, 2)))
    witness = pre.ideal_factorization(f)
    assert witness.discrete.carrier.labels is None
    check_object_sites(spelled)
    check_map_sites(f)
    # labels that spell ``0 1`` in another order are kept
    swapped = FinPreorder.chain(2, labels=("1", "0"))
    check_object_sites(swapped)
    check_map_sites(PreordMorphism(two, swapped, SetMap(two.carrier, swapped.carrier, (1, 0))))
