"""The equivalence-vs-partial-order splitting of a finite preorder.

Every preorder carries a largest equivalence relation inside it (its
symmetric core) and a partial-order quotient by that core.  The quotient is
the unit of the reflection onto partial orders; morphisms that factor
through a discrete object form the ideal the splitting is exact against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .relations import (
    FinPreorder,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _built,
    _excess,
    _fresh_carrier,
    _quotient,
    _row_owners,
    _walk,
    identity_map,
    inverse_image,
    kernel_pair,
    meet,
    row_classes,
)

__all__ = [
    "Reflection",
    "NKernel",
    "IdealFactorization",
    "NExactSequence",
    "Decomposition",
    "sym_core",
    "generators",
    "reflect",
    "reflect_morphism",
    "in_ideal_N",
    "ideal_factorization",
    "n_kernel",
    "canonical_sequence",
    "decompose",
    "recompose",
]


def sym_core(p: FinPreorder) -> Relation:
    """The largest equivalence relation inside ``p``, read off equal rows as
    in ``reflect``: row ``a`` is the mask of the elements sharing its row,
    so it is built unchecked.

    Memoised on the relation ``p.rel``, outside its dataclass fields, so the
    copies ``reflect`` makes share it.  The core is always a new relation,
    never ``p.rel`` itself, so the memo does not reach back to its owner.
    """
    rel = p.rel
    core = rel.__dict__.get("_sym_core")
    if core is None:
        owners = _row_owners(rel.rows)
        core = _built(Relation, rel.src, rel.src, tuple(owners[row] for row in rel.rows))
        object.__setattr__(rel, "_sym_core", core)
    return core


def generators(p: FinPreorder) -> Relation:
    """The fewest edges whose reflexive-transitive closure is ``p``: a cycle
    through each core class of two or more members, each member to the
    next in index order and the last back to the first, and an edge from
    the least member of ``[c]`` to the least member of ``[d]`` for each
    covering pair ``[c] < [d]`` of the partial-order reflection.

    The classes are read off equal rows, as in ``sym_core``, and the least
    members stand for the reflection's points, so no quotient is built and
    the edges come out at the indices of ``p``.  Row ``a`` of ``strict``
    holds the least members strictly above ``a`` when ``a`` is a least
    member and is empty otherwise; its composite with itself holds those
    with a least member strictly between, so ``strict & ~(strict∘strict)``
    are the covers.  Every edge joins two elements of ``p``, so the
    relation is built unchecked.
    """
    rows = p.rel.rows
    owners = _row_owners(rows)
    least = 0
    for members in owners.values():
        least |= members & -members
    strict = [
        row & least & ~owners[row] if least >> a & 1 else 0
        for a, row in enumerate(rows)
    ]
    edges = [s & ~between for s, between in zip(strict, _walk(strict, strict)[0])]
    for members in owners.values():
        if members & (members - 1):
            cycle = list(_bits(members))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edges[a] |= 1 << b
    return _built(Relation, p.carrier, p.carrier, tuple(edges))


class Reflection(NamedTuple):
    poset: FinPreorder
    unit: PreordMorphism


def reflect(p: FinPreorder) -> Reflection:
    """Quotient by mutual reachability, yielding the partial-order reflection.

    The classes are read off equal rows (``row_classes``): in a preorder
    ``a`` and ``b`` are related both ways exactly when their up-sets are
    equal.  If ``a ≤ b ≤ a``, transitivity makes each up-set contain the
    other; if the up-sets are equal, reflexivity puts ``b`` in the up-set
    of ``a`` and ``a`` in that of ``b``.  Class indices are ordered by least
    member.  The classes partition ``p`` into equal rows by construction,
    so the quotient is built unchecked.

    The result is memoised on ``p`` itself, outside its dataclass fields, so
    it lives exactly as long as ``p`` and never affects equality or hashing.
    The unit starts at an equal copy of ``p`` sharing its relation, not at
    ``p``: a memo reaching back to ``p`` would be a reference cycle, and ``p``
    would outlive its last reference until the next garbage collection.  The
    copy holds the fields of the preorder ``p``, so it is built unchecked.
    """
    memo = p.__dict__.get("_reflection")
    if memo is None:
        copy = _built(FinPreorder, p.carrier, p.rel)
        unit = _quotient(copy, row_classes(p.rel.rows))
        memo = Reflection(unit.dst, unit)
        object.__setattr__(p, "_reflection", memo)
    return memo


def reflect_morphism(f: PreordMorphism) -> PreordMorphism:
    """The induced map between the partial-order reflections of the
    endpoints, monotone since ``[a] ≤ [b]`` iff ``a ≤ b``; it and its map,
    whose values are class indices of the target, are built unchecked.

    Memoised on ``f``, outside its dataclass fields.  The induced map runs
    between the two reflections, which never reach back to ``f``.
    """
    induced = f.__dict__.get("_reflected")
    if induced is None:
        src_poset, src_unit = reflect(f.src)
        dst_poset, dst_unit = reflect(f.dst)
        dst_class = dst_unit.map.values
        values = [0] * src_poset.size
        for c, v in zip(src_unit.map.values, f.map.values):
            values[c] = dst_class[v]
        mapping = _built(SetMap, src_poset.carrier, dst_poset.carrier, tuple(values))
        induced = _built(PreordMorphism, src_poset, dst_poset, mapping)
        object.__setattr__(f, "_reflected", induced)
    return induced


def in_ideal_N(f: PreordMorphism) -> bool:
    """Whether ``f`` factors through a discrete object.

    Decided by the pointwise collapse criterion: every related pair of the
    source must have equal images, ``≤_P ⊆ ker f``.  The equivalence with an
    actual factorization search is validated by the oracle suite rather than
    trusted axiomatically.
    """
    return _excess(f.src.rel.rows, kernel_pair(f.map).rows) is None


class IdealFactorization(NamedTuple):
    discrete: FinPreorder
    collapse: PreordMorphism
    embed: PreordMorphism


def ideal_factorization(f: PreordMorphism) -> IdealFactorization | None:
    """An explicit factorization of ``f`` through its image with discrete order.

    Returns ``None`` when ``f`` does not collapse every related pair.  No
    minimality of the discrete middle object is claimed.  The collapse is
    monotone as ``f`` collapses related pairs, and so is any map out of a
    discrete object; all three parts, their maps (positions in the image,
    and image points) and the carrier are built unchecked.
    """
    if not in_ideal_N(f):
        return None
    image = sorted(set(f.map.values))
    carrier = _fresh_carrier([f.dst.carrier.label(b) for b in image])
    mid = _built(FinPreorder, carrier, Relation.diagonal(carrier))
    position = {b: k for k, b in enumerate(image)}
    collapse = _built(
        PreordMorphism,
        f.src,
        mid,
        _built(SetMap, f.src.carrier, mid.carrier, tuple(position[v] for v in f.map.values)),
    )
    embed = _built(
        PreordMorphism, mid, f.dst, _built(SetMap, mid.carrier, f.dst.carrier, tuple(image))
    )
    return IdealFactorization(mid, collapse, embed)


class NKernel(NamedTuple):
    K: FinPreorder
    k: PreordMorphism


def n_kernel(f: PreordMorphism) -> NKernel:
    """The kernel of ``f`` relative to the ideal: the source relation met
    with the kernel pair, included back identically on elements.  A meet of
    a preorder with an equivalence is a preorder inside it, so ``K`` and
    its inclusion are built unchecked."""
    rel = meet(f.src.rel, kernel_pair(f.map))
    K = _built(FinPreorder, f.src.carrier, rel)
    return NKernel(K, _built(PreordMorphism, K, f.src, identity_map(f.src.carrier)))


@dataclass(frozen=True)
class NExactSequence:
    """The canonical short exact sequence of a preorder against the ideal.

    ``torsion_part`` includes the symmetric-core equivalence object, and
    ``free_part`` is the reflection unit onto the partial-order quotient.
    Their composite always factors through a discrete object, so it is not
    checked: a monotone map from an equivalence into a partial order is
    constant on related points, whose images lie below each other both ways.
    """

    torsion_part: PreordMorphism
    free_part: PreordMorphism
    witness: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.torsion_part.dst != self.free_part.src:
            raise ValueError("sequence legs are not composable")
        if not self.torsion_part.src.is_equivalence():
            raise ValueError("torsion part source must be an equivalence relation")
        if not self.free_part.dst.is_partial_order():
            raise ValueError("free part target must be a partial order")
        if not self.free_part.is_surjective():
            raise ValueError("free part must be surjective")


def canonical_sequence(p: FinPreorder) -> NExactSequence:
    """Symmetric-core inclusion followed by the reflection unit.  The core
    is an equivalence inside ``p`` and the unit a surjection onto a partial
    order collapsing each core class, so all are built unchecked."""
    core = _built(FinPreorder, p.carrier, sym_core(p))
    inclusion = _built(PreordMorphism, core, p, identity_map(p.carrier))
    unit = reflect(p).unit
    classes = tuple(tuple(_bits(fibre)) for fibre in unit.map.preimage_masks())
    return _built(NExactSequence, inclusion, unit, classes)


@dataclass(frozen=True)
class Decomposition:
    """A preorder presented as an equivalence relation plus a partial order
    on its class set, glued by the class map."""

    equiv: Relation
    quotient_order: FinPreorder
    section_data: SetMap

    def __post_init__(self) -> None:
        if self.section_data.dom != self.equiv.src:
            raise ValueError("class map does not live on the carrier")
        if self.section_data.cod != self.quotient_order.carrier:
            raise ValueError("class map does not target the quotient carrier")
        if not self.section_data.is_surjective():
            raise ValueError("class map must be surjective")
        # a kernel pair is an equivalence, so this also checks that ``equiv`` is
        if kernel_pair(self.section_data) != self.equiv:
            raise ValueError("class map does not induce the stated equivalence")


def decompose(p: FinPreorder) -> Decomposition:
    """Split a preorder into its symmetric core and quotient partial order;
    the unit's class map has the core as kernel pair, so built unchecked."""
    poset, unit = reflect(p)
    return _built(Decomposition, sym_core(p), poset, unit.map)


def recompose(d: Decomposition) -> FinPreorder:
    """Rebuild the preorder as the inverse image of the quotient order, a
    preorder because the quotient order is one; built unchecked."""
    if not d.quotient_order.is_partial_order():
        raise ValueError("quotient order must be antisymmetric")
    return _built(FinPreorder, d.equiv.src, inverse_image(d.section_data, d.quotient_order.rel))

