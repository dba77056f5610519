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
    _fresh_labels,
    compose_morphisms,
    identity_map,
    inverse_image,
    kernel_pair,
    meet,
    opposite,
    quotient,
    row_classes,
)

__all__ = [
    "Reflection",
    "NKernel",
    "IdealFactorization",
    "NExactSequence",
    "Decomposition",
    "sym_core",
    "reflect",
    "reflect_morphism",
    "in_ideal_N",
    "ideal_factorization",
    "n_kernel",
    "canonical_sequence",
    "decompose",
    "recompose",
    "hom_is_trivial",
]


def sym_core(p: FinPreorder) -> Relation:
    """The largest equivalence relation inside ``p``: the meet with its opposite."""
    return meet(p.rel, opposite(p.rel))


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
    member.

    The result is memoised on ``p`` itself, outside its dataclass fields, so
    it lives exactly as long as ``p`` and never affects equality or hashing.
    The unit starts at an equal twin of ``p`` sharing its relation, not at
    ``p``: a memo reaching back to ``p`` would be a reference cycle, and ``p``
    would outlive its last reference until the next garbage collection.
    """
    memo = p.__dict__.get("_reflection")
    if memo is None:
        twin = FinPreorder(p.carrier, p.rel)
        unit = quotient(twin, row_classes(p.rel.rows))
        memo = Reflection(unit.dst, unit)
        object.__setattr__(p, "_reflection", memo)
    return memo


def reflect_morphism(f: PreordMorphism) -> PreordMorphism:
    """The induced map between the partial-order reflections of the endpoints."""
    src_poset, src_unit = reflect(f.src)
    dst_poset, dst_unit = reflect(f.dst)
    values = [0] * src_poset.size
    for a in range(f.src.size):
        values[src_unit(a)] = dst_unit(f(a))
    return PreordMorphism(src_poset, dst_poset, SetMap(src_poset.carrier, dst_poset.carrier, tuple(values)))


def in_ideal_N(f: PreordMorphism) -> bool:
    """Whether ``f`` factors through a discrete object.

    Decided by the pointwise collapse criterion: every related pair of the
    source must have equal images.  The equivalence with an actual
    factorization search is validated by the oracle suite rather than
    trusted axiomatically.
    """
    pre = f.map.preimage_masks()
    values = f.map.values
    for a, row in enumerate(f.src.rel.rows):
        if row & ~pre[values[a]]:
            return False
    return True


class IdealFactorization(NamedTuple):
    discrete: FinPreorder
    collapse: PreordMorphism
    embed: PreordMorphism


def ideal_factorization(f: PreordMorphism) -> IdealFactorization | None:
    """An explicit factorization of ``f`` through its image with discrete order.

    Returns ``None`` when ``f`` does not collapse every related pair.  No
    minimality of the discrete middle object is claimed.
    """
    if not in_ideal_N(f):
        return None
    image = sorted(set(f.map.values))
    labels = _fresh_labels([f.dst.carrier.label(b) for b in image])
    mid = FinPreorder.discrete(len(image), labels)
    position = {b: k for k, b in enumerate(image)}
    collapse = PreordMorphism(
        f.src,
        mid,
        SetMap(f.src.carrier, mid.carrier, tuple(position[v] for v in f.map.values)),
    )
    embed = PreordMorphism(
        mid, f.dst, SetMap(mid.carrier, f.dst.carrier, tuple(image))
    )
    return IdealFactorization(mid, collapse, embed)


class NKernel(NamedTuple):
    K: FinPreorder
    k: PreordMorphism


def n_kernel(f: PreordMorphism) -> NKernel:
    """The kernel of ``f`` relative to the ideal: the source relation met
    with the kernel pair, included back identically on elements."""
    rel = meet(f.src.rel, kernel_pair(f.map))
    K = FinPreorder(f.src.carrier, rel)
    return NKernel(K, PreordMorphism(K, f.src, identity_map(f.src.carrier)))


@dataclass(frozen=True)
class NExactSequence:
    """The canonical short exact sequence of a preorder against the ideal.

    ``torsion_part`` includes the symmetric-core equivalence object, and
    ``free_part`` is the reflection unit onto the partial-order quotient.
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
        if not in_ideal_N(compose_morphisms(self.free_part, self.torsion_part)):
            raise ValueError("composite must factor through a discrete object")


def canonical_sequence(p: FinPreorder) -> NExactSequence:
    """Symmetric-core inclusion followed by the reflection unit."""
    core = FinPreorder(p.carrier, sym_core(p))
    inclusion = PreordMorphism(core, p, identity_map(p.carrier))
    unit = reflect(p).unit
    classes = tuple(tuple(_bits(fibre)) for fibre in unit.map.preimage_masks())
    return NExactSequence(inclusion, unit, classes)


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
    """Split a preorder into its symmetric core and quotient partial order."""
    poset, unit = reflect(p)
    return Decomposition(sym_core(p), poset, unit.map)


def recompose(d: Decomposition) -> FinPreorder:
    """Rebuild the preorder as the inverse image of the quotient order."""
    if not d.quotient_order.is_partial_order():
        raise ValueError("quotient order must be antisymmetric")
    return FinPreorder(d.equiv.src, inverse_image(d.section_data, d.quotient_order.rel))


def hom_is_trivial(t: FinPreorder, fp: FinPreorder, config=None) -> bool:
    """Exhaustively check that every monotone map from an equivalence-relation
    object to a partial order factors through a discrete object.

    Always true; this operation exists as a checkable statement of that fact.
    """
    if not t.is_equivalence():
        raise ValueError("first argument must be an equivalence relation")
    if not fp.is_partial_order():
        raise ValueError("second argument must be a partial order")
    from .oracle import enumerate_morphisms

    return all(in_ideal_N(f) for f in enumerate_morphisms(t, fp, config))
