"""Every library result built without its constructor's checks equals its
rebuild through the public constructors, which run those checks.

The rebuild raises when a built preorder is not reflexive and transitive,
a built space not nested, a built map not monotone, or a built record
(factorization, exact sequence, decomposition) fails its constructor's
checks; equal values must also hash equally, since built values meet
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
    compose_morphisms,
    identity_morphism,
    preord_pullback,
    reflexive_transitive_closure,
)


def rebuilt(x):
    """``x`` made again through its public constructor, parts first."""
    if isinstance(x, fct.FactorizationResult):
        return fct.FactorizationResult(rebuilt(x.mid), rebuilt(x.e), rebuilt(x.m), x.system)
    if isinstance(x, pre.NExactSequence):
        return pre.NExactSequence(rebuilt(x.torsion_part), rebuilt(x.free_part), x.witness)
    if isinstance(x, pre.Decomposition):
        return pre.Decomposition(x.equiv, rebuilt(x.quotient_order), x.section_data)
    if isinstance(x, FinPreorder):
        return FinPreorder(x.carrier, x.rel)
    if isinstance(x, PreordMorphism):
        return PreordMorphism(rebuilt(x.src), rebuilt(x.dst), x.map)
    if isinstance(x, alx.AlexandroffSpace):
        return alx.AlexandroffSpace(x.carrier, x.min_nbhd)
    if isinstance(x, alx.ContinuousMap):
        return alx.ContinuousMap(rebuilt(x.src), rebuilt(x.dst), x.map)


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
    assert_rebuilds(
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
        compose_morphisms(pre.reflect(f.dst).unit, f),
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
