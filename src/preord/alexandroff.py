"""Finite Alexandroff-discrete spaces and their preorder dictionary.

A space is stored by minimal open neighborhoods: ``min_nbhd[x]`` is the
intersection of all opens containing ``x``, and a set is open iff it
contains the minimal neighborhood of each of its points.  Opens are the
down-closed sets of the specialization preorder, and the two translations
invert each other on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .pretorsion import reflect
from .relations import (
    FinPreorder,
    FinSet,
    Relation,
    SetMap,
    _bits,
    _built,
    _fresh_carrier,
    _excess,
    _memoised,
    _push,
    _walk,
    opposite,
)

__all__ = [
    "AlexandroffSpace",
    "ContinuousMap",
    "ContinuousClassification",
    "T0Reflection",
    "preorder_to_space",
    "space_to_preorder",
    "min_open",
    "closure_of_point",
    "is_T0",
    "is_partition",
    "t0_reflection",
    "subspace",
    "classify_continuous",
]


@dataclass(frozen=True)
class AlexandroffSpace:
    """A finite space closed under arbitrary intersections of opens."""

    carrier: FinSet
    min_nbhd: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_nbhd", tuple(self.min_nbhd))
        n = self.carrier.size
        if len(self.min_nbhd) != n:
            raise ValueError(f"expected {n} neighborhoods, got {len(self.min_nbhd)}")
        bound, label = 1 << n, self.carrier.label
        for x, nbhd in enumerate(self.min_nbhd):
            if not 0 <= nbhd < bound:
                raise ValueError(f"neighborhood of {label(x)} is not a subset of the carrier")
            if not nbhd >> x & 1:
                raise ValueError(f"point {label(x)} is missing from its own neighborhood")
        nbhds = self.min_nbhd
        # U∘U ⊆ U, exact since the covered walk is exact on every relation
        bad = _excess(_walk(nbhds, nbhds)[0], nbhds)
        if bad is not None:
            x, z = bad
            y = next(y for y in _bits(nbhds[x]) if nbhds[y] >> z & 1)
            raise ValueError(
                f"neighborhoods are not nested: U({label(y)}) is not inside U({label(x)})"
            )

    @property
    def size(self) -> int:
        return self.carrier.size

    def is_open(self, mask: int) -> bool:
        """Whether the subset ``mask`` of the carrier, a bit mask, holds the
        minimal neighborhood of each of its points."""
        if not 0 <= mask < 1 << self.size:
            raise ValueError(f"mask {mask} is not a subset of the {self.size}-point carrier")
        return all(self.min_nbhd[x] & ~mask == 0 for x in _bits(mask))


def preorder_to_space(p: FinPreorder) -> AlexandroffSpace:
    """Topologize a preorder: opens are the down-closed sets, so the minimal
    neighborhood of a point collects everything below it, its column of
    ``≤``.  Down-sets of a preorder are nested, so the space is built
    unchecked, with ``p`` as the memo of ``space_to_preorder``."""
    s = _built(AlexandroffSpace, p.carrier, p.rel.columns())
    s.__dict__["_space_to_preorder"] = p  # the key of ``space_to_preorder``'s memo
    return s


@_memoised
def space_to_preorder(s: AlexandroffSpace) -> FinPreorder:
    """The specialization preorder: ``x`` below ``y`` iff ``y`` lies in the
    closure of ``x``, i.e. ``x`` is in every neighborhood of ``y``.  Nested
    neighborhoods give a preorder, built unchecked, as is the relation of
    the validated neighborhood rows it transposes.  Memoised on ``s``,
    and seeded by ``preorder_to_space`` with the preorder it topologized."""
    rel = opposite(_built(Relation, s.carrier, s.carrier, s.min_nbhd))
    return _built(FinPreorder, s.carrier, rel)


def min_open(s: AlexandroffSpace, x: int) -> frozenset[int]:
    """The smallest open set containing ``x``."""
    if not 0 <= x < s.size:
        raise IndexError(f"point {x} out of range 0..{s.size - 1}")
    return frozenset(_bits(s.min_nbhd[x]))


def closure_of_point(s: AlexandroffSpace, x: int) -> frozenset[int]:
    """The closure of the singleton ``{x}``: every point whose neighborhoods
    all contain ``x``."""
    if not 0 <= x < s.size:
        raise IndexError(f"point {x} out of range 0..{s.size - 1}")
    return frozenset(y for y, nbhd in enumerate(s.min_nbhd) if nbhd >> x & 1)


def is_T0(s: AlexandroffSpace) -> bool:
    """Distinct points are topologically distinguishable.

    Computed on the opens: the minimal neighborhoods are pairwise distinct.
    ``suites.check_topology_predicates`` cross-checks it against
    antisymmetry of the specialization preorder.
    """
    return len(set(s.min_nbhd)) == s.size


def is_partition(s: AlexandroffSpace) -> bool:
    """Every open is clopen.

    Computed on the opens: each minimal neighborhood has an open complement.
    ``suites.check_topology_predicates`` cross-checks it against symmetry of
    the specialization preorder.
    """
    full = (1 << s.size) - 1
    return all(s.is_open(full & ~nbhd) for nbhd in s.min_nbhd)


@dataclass(frozen=True)
class ContinuousMap:
    """A continuous map between Alexandroff spaces.

    Continuity is exactly monotonicity for the specialization preorders and
    is validated at construction.
    """

    src: AlexandroffSpace
    dst: AlexandroffSpace
    map: SetMap

    def __post_init__(self) -> None:
        if self.map.dom != self.src.carrier or self.map.cod != self.dst.carrier:
            raise ValueError("underlying map does not match the endpoints")
        # U ⊆ f*(U') on the neighborhood rows, exact as in PreordMorphism
        pulled = _walk(self.dst.min_nbhd, self.map.preimage_masks())[0]
        bad = _excess(self.src.min_nbhd, tuple(map(pulled.__getitem__, self.map.values)))
        if bad is not None:
            y, x = map(self.src.carrier.label, bad)
            raise ValueError(
                f"not continuous: {x} specializes to {y} but the images do not"
            )

    def __call__(self, x: int) -> int:
        return self.map.values[x]


class T0Reflection(NamedTuple):
    space: AlexandroffSpace
    projection: ContinuousMap


def t0_reflection(s: AlexandroffSpace) -> T0Reflection:
    """Identify points with equal minimal neighborhoods (equivalently, equal
    closures); the quotient is the finest T0 image and the projection is
    continuous.  Under the dictionary this is the partial-order reflection
    of the specialization preorder, so it is read off the memoised
    ``reflect``: the quotient is the poset topologized, and the projection
    the unit's class map, monotone and hence continuous, built unchecked."""
    poset, unit = reflect(space_to_preorder(s))
    quotient = preorder_to_space(poset)
    return T0Reflection(quotient, _built(ContinuousMap, s, quotient, unit.map))


def subspace(s: AlexandroffSpace, points: Iterable[int]) -> AlexandroffSpace:
    """The subspace on ``points`` with neighborhoods cut down by
    intersection, which keeps them nested; built unchecked, with its carrier
    of labels copied from ``s``."""
    members = sorted(set(points))
    for x in members:
        if not 0 <= x < s.size:
            raise IndexError(f"point {x} out of range 0..{s.size - 1}")
    table = [0] * s.size
    for k, x in enumerate(members):
        table[x] = 1 << k
    carrier = _fresh_carrier([s.carrier.label(x) for x in members])
    nbhds = _walk(s.min_nbhd, table)[0]
    return _built(AlexandroffSpace, carrier, tuple(nbhds[x] for x in members))


@dataclass(frozen=True)
class ContinuousClassification:
    in_M_star_top: bool
    in_E_prime_top: bool
    regular_epi_top: bool


def _fibres_T0(f: ContinuousMap) -> bool:
    for fibre in f.map.preimage_masks():
        seen = set()
        for x in _bits(fibre):
            relative = f.src.min_nbhd[x] & fibre
            if relative in seen:
                return False
            seen.add(relative)
    return True


def _fibres_trivial(f: ContinuousMap) -> bool:
    for fibre in f.map.preimage_masks():
        for x in _bits(fibre):
            if (f.src.min_nbhd[x] & fibre) != fibre:
                return False
    return True


def _specializations_lift(f: ContinuousMap) -> bool:
    """Every specialization in the target is the image of one in the source,
    tested as ``U' ⊆ f(U)`` on the neighborhood rows, pushed forward as
    ``direct_image`` pushes rows: specialization is the opposite of that
    relation, and the direct image commutes with it."""
    images = _walk(f.src.min_nbhd, [1 << v for v in f.map.values])[0]
    return _excess(f.dst.min_nbhd, _push(f.map, images)) is None


def classify_continuous(f: ContinuousMap) -> ContinuousClassification:
    """Class flags of a continuous map, computed on the space data.

    Coverings have T0 fibres; the stably-inverted maps are the surjections
    whose target carries the finest compatible topology and whose fibres are
    topologically trivial.
    """
    surjective = f.map.is_surjective()
    regular_epi_top = surjective and _specializations_lift(f)
    return ContinuousClassification(
        in_M_star_top=_fibres_T0(f),
        in_E_prime_top=regular_epi_top and _fibres_trivial(f),
        regular_epi_top=regular_epi_top,
    )
