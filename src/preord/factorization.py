"""Morphism classes induced by the partial-order reflection, and the two
factorization systems they assemble into.

The reflective system pairs maps inverted by the reflection with trivial
coverings (discrete fibrations between symmetric cores).  The monotone-light
system pairs surjective fully faithful maps with coverings, the maps whose
fibres are partial orders.  Every class test carries a counterexample when
it fails, and effective-descent surjections are both recognized and
constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .relations import (
    FinPreorder,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _built,
    _class_label,
    _excess,
    _fresh_carrier,
    _or_cols,
    _or_rows,
    _pulled_back,
    _quotient,
    compose_morphisms,
    direct_image,
    preord_pullback,
    row_classes,
)
from .pretorsion import reflect, reflect_morphism, sym_core

__all__ = [
    "MorphismClassification",
    "FactorizationResult",
    "SYSTEMS",
    "Cover",
    "OrthogonalityError",
    "is_fully_faithful",
    "is_regular_epi",
    "is_in_E",
    "is_in_M",
    "is_in_E_bar",
    "is_in_M_star",
    "is_effective_descent",
    "classify",
    "reflective_factorization",
    "monotone_light_factorization",
    "effective_descent_cover",
    "check_orthogonality",
]


class OrthogonalityError(RuntimeError):
    """No diagonal filler exists for a certified lifting square."""


def _fully_faithful_counterexample(f: PreordMorphism) -> tuple[int, int] | None:
    return _excess(_pulled_back(f), f.src.rel.rows)


def is_fully_faithful(f: PreordMorphism) -> bool:
    """Source elements are related exactly when their images are:
    ``f*(≤_Q) ⊆ ≤_P``, the reverse of monotonicity."""
    return _fully_faithful_counterexample(f) is None


def _least_outside(f: PreordMorphism, hit: int) -> tuple[int] | None:
    """The least target point outside the mask ``hit``, or ``None``."""
    missed = ((1 << f.dst.size) - 1) & ~hit
    return ((missed & -missed).bit_length() - 1,) if missed else None


def _regular_epi_counterexample(f: PreordMorphism) -> tuple[int, ...] | None:
    missed = _least_outside(f, f.map.image_mask())
    return missed or _excess(f.dst.rel.rows, direct_image(f.map, f.src.rel).rows)


def is_regular_epi(f: PreordMorphism) -> bool:
    """Surjective, with the target relation covered by the image relation."""
    return _regular_epi_counterexample(f) is None


def _in_E_counterexample(f: PreordMorphism) -> tuple[int, ...] | None:
    ce = _fully_faithful_counterexample(f)
    if ce is not None:
        return ce
    core = sym_core(f.dst).rows
    hit = 0
    for v in f.map.values:
        hit |= core[v]
    return _least_outside(f, hit)


def is_in_E(f: PreordMorphism) -> bool:
    """Inverted by the reflection: fully faithful, and every core class of
    the target holds an image point.  Exact, since a fully faithful ``f``
    reflects ``[a] ≤ [a']``, so the induced map of quotient posets is an
    isomorphism iff it is onto the classes.  A failure names the least
    target point outside the hit classes, the least member of the first."""
    return _in_E_counterexample(f) is None


def _in_M_counterexample(f: PreordMorphism) -> tuple[int, int] | None:
    sim_src = sym_core(f.src)
    sim_dst = sym_core(f.dst)
    pre = f.map.preimage_masks()
    for a in range(f.src.size):
        for b in _bits(sim_dst.rows[f(a)]):
            if (sim_src.rows[a] & pre[b]).bit_count() != 1:
                return (a, b)
    return None


def is_in_M(f: PreordMorphism) -> bool:
    """Trivial covering: a discrete fibration between the symmetric cores.

    Every core-related target of the image of ``a`` lifts to exactly one
    core-related element over it.
    """
    return _in_M_counterexample(f) is None


def _in_E_bar_counterexample(f: PreordMorphism) -> tuple[int, ...] | None:
    return _least_outside(f, f.map.image_mask()) or _fully_faithful_counterexample(f)


def is_in_E_bar(f: PreordMorphism) -> bool:
    """Surjective and fully faithful: the stably-inverted maps."""
    return _in_E_bar_counterexample(f) is None


def _fibre_poset_counterexample(f: PreordMorphism) -> tuple[int, int] | None:
    sim = sym_core(f.src)
    pre = f.map.preimage_masks()
    for a in range(f.src.size):
        others = sim.rows[a] & pre[f(a)] & ~(1 << a)
        if others:
            return (a, next(_bits(others)))
    return None


def is_in_M_star(f: PreordMorphism) -> bool:
    """Covering: every fibre is a partial order.

    Computed once, as fibre antisymmetry.  ``suites.check_m_star_agreement``
    cross-checks it against antisymmetry of the relative kernel and against
    T0 fibres of the associated continuous map.
    """
    return _fibre_poset_counterexample(f) is None


def _effective_descent_counterexample(
    f: PreordMorphism,
) -> tuple[int, int, int] | None:
    """A chain ``b1 ≤ b2 ≤ b3`` of the target over which no chain
    ``e1 ≤ e2 ≤ e3`` of the source lies, or ``None``.

    ``below[e]`` and ``above[e]`` are the images of the down- and up-set of
    ``e``, replayed backward and forward from the one walk of the source's
    rows.  For each ``b2``, a point ``e`` of its fibre whose ``above[e]``
    holds every ``b3 ≥ b2`` lifts the chains of every ``b1`` in
    ``below[e]`` at once; only the other ``b1`` are checked one by one, in
    ascending order, so the reported chain is the same.
    """
    dst_rows = f.dst.rel.rows
    pre = f.map.preimage_masks()
    images = [1 << v for v in f.map.values]
    below = _or_cols(f.src.rel, images)
    above = _or_rows(f.src.rel, images)
    dst_cols = f.dst.rel.columns()
    for b2 in range(f.dst.size):
        rights = dst_rows[b2]
        fibre = list(_bits(pre[b2]))
        lifted = 0
        for e2 in fibre:
            if rights & ~above[e2] == 0:
                lifted |= below[e2]
        for b1 in _bits(dst_cols[b2] & ~lifted):
            covered = 0
            for e2 in fibre:
                if below[e2] >> b1 & 1:
                    covered |= above[e2]
            missing = rights & ~covered
            if missing:
                return (b1, b2, next(_bits(missing)))
    return None


def is_effective_descent(f: PreordMorphism) -> bool:
    """Every two-step chain in the target lifts to a chain over it."""
    return _effective_descent_counterexample(f) is None


# in the field order of ``MorphismClassification``
_FLAG_CHECKS = {
    "fully_faithful": _fully_faithful_counterexample,
    "regular_epi": _regular_epi_counterexample,
    "in_E": _in_E_counterexample,
    "in_M": _in_M_counterexample,
    "in_E_bar": _in_E_bar_counterexample,
    "in_M_star": _fibre_poset_counterexample,
    "effective_descent": _effective_descent_counterexample,
}


@dataclass(frozen=True)
class MorphismClassification:
    """All class memberships of one monotone map, with counterexamples.

    ``counterexamples`` maps each false flag to a concrete element tuple
    witnessing the failure.  The flags decide the hash, which is therefore
    consistent with equality; the dict itself stays mutable.
    """

    fully_faithful: bool
    regular_epi: bool
    in_E: bool
    in_M: bool
    in_E_bar: bool
    in_M_star: bool
    effective_descent: bool
    counterexamples: dict[str, tuple[int, ...]] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        implications = (
            ("in_E", "fully_faithful"),
            ("in_E_bar", "in_E"),
            ("in_M", "in_M_star"),
            ("effective_descent", "regular_epi"),
        )
        for strong, weak in implications:
            if getattr(self, strong) and not getattr(self, weak):
                raise ValueError(f"classification invariant violated: {strong} without {weak}")


def classify(f: PreordMorphism) -> MorphismClassification:
    """Evaluate every morphism class on ``f`` at once.

    The four implications the constructor checks hold by construction, so
    the record is built unchecked: the ``in_E`` test starts with the fully
    faithful one, a surjection hits every core class, a trivial covering's
    fibre meets each core class in one point, and effective descent lifts
    the chains ``b = b = b`` and ``b1 ≤ b2 = b2``."""
    flags = []
    counterexamples = {}
    for name, check in _FLAG_CHECKS.items():
        ce = check(f)
        flags.append(ce is None)
        if ce is not None:
            counterexamples[name] = ce
    return _built(MorphismClassification, *flags, counterexamples)


@dataclass(frozen=True)
class FactorizationResult:
    """A two-step factorization ``m ∘ e`` of a morphism, certified by the
    constructor (the library's own are built unchecked): ``e`` lies in the
    left and ``m`` in the right class that ``SYSTEMS`` names for ``system``."""

    mid: FinPreorder
    e: PreordMorphism
    m: PreordMorphism
    system: str

    def __post_init__(self) -> None:
        if self.e.dst != self.mid or self.m.src != self.mid:
            raise ValueError("legs do not meet in the middle object")
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown factorization system {self.system!r}")
        e_class, m_class, _ = SYSTEMS[self.system]
        for leg, flag in (("e", e_class), ("m", m_class)):
            if _FLAG_CHECKS[flag](getattr(self, leg)) is not None:
                raise ValueError(
                    f"legs are not certified for the {self.system} system: "
                    f"{leg} is not {flag}"
                )

    @property
    def composite(self) -> PreordMorphism:
        return compose_morphisms(self.m, self.e)


def reflective_factorization(f: PreordMorphism) -> FactorizationResult:
    """Factor ``f`` through the pullback of its reflected map along the unit.

    The first leg is inverted by the reflection; the second is a trivial
    covering (it is a pullback of a partial-order morphism).  The first leg
    pairs two monotone maps into the pullback, its values indices of pairs
    in it; it, its map and the result are built unchecked.
    """
    _, unit_src = reflect(f.src)
    _, unit_dst = reflect(f.dst)
    induced = reflect_morphism(f)
    pb = preord_pullback(induced, unit_dst)
    index = {pair: k for k, pair in enumerate(zip(pb.p1.map.values, pb.p2.map.values))}
    e = _built(
        PreordMorphism,
        f.src,
        pb.object,
        _built(
            SetMap,
            f.src.carrier,
            pb.object.carrier,
            tuple(map(index.__getitem__, zip(unit_src.map.values, f.map.values))),
        ),
    )
    return _built(FactorizationResult, pb.object, e, pb.p2, "reflective")


def monotone_light_factorization(f: PreordMorphism) -> FactorizationResult:
    """Factor ``f`` through the quotient by kernel-pair-meet-symmetric-core.

    Row ``a`` of that meet, ``pre[f(a)] & core[a]``, is the class of ``a``,
    read off directly.  Core-related elements have equal rows, so the
    quotient leg is built unchecked.  It is surjective and fully faithful;
    the remaining leg is a covering, as no two classes in a fibre are
    core-related.  The classes lie in the kernel pair and the symmetric
    core, so ``m([a]) = f(a)`` is well defined and monotone; it, its map
    and the result are built unchecked.
    """
    values = f.map.values
    pre = f.map.preimage_masks()
    core = sym_core(f.src).rows
    classes = row_classes([pre[v] & c for v, c in zip(values, core)])
    e = _quotient(f.src, classes)
    m_map = _built(SetMap, e.dst.carrier, f.dst.carrier, tuple(values[cls[0]] for cls in classes))
    m = _built(PreordMorphism, e.dst, f.dst, m_map)
    return _built(FactorizationResult, e.dst, e, m, "monotone-light")


# Each factorization system: the classes certifying its left and right leg,
# and the function that factors a morphism through it.
SYSTEMS = {
    "reflective": ("in_E", "in_M", reflective_factorization),
    "monotone-light": ("in_E_bar", "in_M_star", monotone_light_factorization),
}


class Cover(NamedTuple):
    total: FinPreorder
    projection: PreordMorphism


def _cover_rows(poset: FinPreorder, sizes: list[int]) -> tuple[int, ...]:
    """The rows of the ``3|B|`` total space over the classes of ``poset``,
    of the given sizes: each class takes a contiguous run of ``3 * size``
    indices, one run of ``size`` per level.  An element is below itself,
    the higher levels of its class and everything over a strictly higher
    class.  Only the rows outlive the call."""
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + 3 * size)
    class_mask = [
        (1 << stop) - (1 << start) for start, stop in zip(starts, starts[1:])
    ]
    above = _or_rows(poset.rel, class_mask)
    rows = []
    for ci, size in enumerate(sizes):
        strict = above[ci] & ~class_mask[ci]
        for level in range(3):
            first = starts[ci] + level * size
            higher = strict | class_mask[ci] >> (first + size) << (first + size)
            rows.extend(higher | 1 << k for k in range(first, first + size))
    return tuple(rows)


def effective_descent_cover(b: FinPreorder) -> Cover:
    """A partially ordered effective-descent surjection onto ``b``.

    The total space has three lexicographic levels over each element,
    ordered by (strict class order, level, equality), so it has exactly
    ``3 * |b|`` elements and is antisymmetric; chains in ``b`` lift level
    by level.  Levels are serialized 1..3.  That order is a preorder sent
    monotonically onto ``b``, each point to the member it copies, so both
    are built unchecked, with their relation, map and carrier.
    """
    poset, unit = reflect(b)
    classes = [list(_bits(fibre)) for fibre in unit.map.preimage_masks()]
    names = []
    values: list[int] = []
    for cls in classes:
        label = _class_label(b.carrier, cls)
        members = [b.carrier.label(beta) for beta in cls]
        for level in range(1, 4):
            names.extend(f"({label},{level},{member})" for member in members)
            values.extend(cls)
    carrier = _fresh_carrier(names)
    rows = _cover_rows(poset, [len(cls) for cls in classes])
    total = _built(FinPreorder, carrier, _built(Relation, carrier, carrier, rows))
    projection = _built(PreordMorphism, total, b, _built(SetMap, carrier, b.carrier, tuple(values)))
    return Cover(total, projection)


def check_orthogonality(
    e: PreordMorphism,
    m: PreordMorphism,
    u: PreordMorphism,
    v: PreordMorphism,
) -> PreordMorphism:
    """The unique diagonal of a lifting square between the two light classes.

    ``e`` must be surjective fully faithful, ``m`` a covering, and
    ``(u, v)`` a commuting square ``m ∘ u = v ∘ e``.  Because ``e`` is
    surjective any diagonal is forced on every element, so at most one can
    exist; raises ``OrthogonalityError`` when none does, which would refute
    orthogonality.  The square is compared on value tuples, and the top
    triangle holds by construction once each fibre of ``e`` forces one
    value; the forced candidate goes through the public ``PreordMorphism``,
    whose rejection names the pair that breaks monotonicity.  The bottom
    triangle then needs no test: ``m(α(b)) = m(u(a)) = v(e(a)) = v(b)`` for
    any ``a`` over ``b``.
    """
    if u.src != e.src or u.dst != m.src:
        raise ValueError("square endpoints do not match")
    if v.src != e.dst or v.dst != m.dst:
        raise ValueError("square endpoints do not match")
    if not is_in_E_bar(e):
        raise ValueError("left leg is not surjective fully faithful")
    if not is_in_M_star(m):
        raise ValueError("right leg is not a covering")
    down, across, top = m.map.values, v.map.values, u.map.values
    if [down[x] for x in top] != [across[b] for b in e.map.values]:
        raise ValueError("square does not commute")
    values = []
    for b, fibre in enumerate(e.map.preimage_masks()):
        forced = {top[a] for a in _bits(fibre)}
        if len(forced) != 1:
            raise OrthogonalityError(f"no diagonal: top map splits the fibre over {b}")
        values.extend(forced)
    try:
        return PreordMorphism(
            e.dst, m.src, SetMap(e.dst.carrier, m.src.carrier, tuple(values))
        )
    except ValueError as exc:
        raise OrthogonalityError(f"no monotone diagonal: {exc}") from exc
