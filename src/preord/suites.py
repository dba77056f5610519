"""Verification suites: every theorem-shaped claim run against brute force.

Each ``check_*`` helper validates one claim on one instance and returns a
failure description or ``None``; the ``suite_*`` functions sweep the helpers
over exhaustive small instances plus seeded random ones and collect a
report.  The helpers take the produced artifacts as arguments so corrupted
implementations can be fed through the same net.

Every sweep instance is a tuple of ``FinPreorder`` and ``PreordMorphism``
values, and every checker is a module-level ``check_*``, called on the
instance as ``checker(*instance)``.  ``_document`` and ``_instance`` are the
one document form of an instance, whatever its shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import alexandroff as alx
from . import docio
from . import factorization as fct
from . import oracle
from . import pretorsion as pre
from .relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _built,
    _class_label,
    _excess,
    _fresh_carrier,
    _or_rows,
    _preorder_failure,
    _pulled_back,
    _row_owners,
    _walk,
    compose_morphisms,
    direct_image,
    inverse_image,
    is_isomorphism,
    is_pullback_square,
    kernel_pair,
    preord_pullback,
)

__all__ = [
    "Check",
    "SuiteReport",
    "SUITES",
    "suite_pretorsion",
    "suite_factorization",
    "suite_stable_units",
    "suite_alexandroff",
]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, failure: str | None, detail: str = "") -> None:
        if failure is None:
            self.checks.append(Check(name, True, detail))
        else:
            self.checks.append(Check(name, False, failure))

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            if c.ok:
                out.append(f"ok   {c.name}" + (f" [{c.detail}]" if c.detail else ""))
            else:
                out.append(f"FAIL {c.name}: {c.detail}")
        verdict = "pass" if self.ok else "FAIL"
        out.append(f"{verdict}: suite {self.suite} "
                   f"({sum(c.ok for c in self.checks)}/{len(self.checks)} checks)")
        return out


def _objects(max_n: int) -> list[FinPreorder]:
    out = []
    for n in range(max_n + 1):
        out.extend(oracle.enumerate_preorders(n))
    return out


def _morphisms(objects):
    for p in objects:
        for q in objects:
            yield from oracle.enumerate_morphisms(p, q)


def _random_preorders(rng: random.Random, count: int, max_size: int):
    for _ in range(count):
        yield oracle.random_preorder(rng, rng.randint(0, max_size))


# ---------------------------------------------------------------------------
# instance checks


class _Predicates(NamedTuple):
    reflexive: bool
    transitive: bool
    symmetric: bool
    antisymmetric: bool


def _relation_predicates(r: Relation) -> _Predicates:
    """The four standard pointwise flags of an endorelation, read off its
    rows and columns, independently of ``FinPreorder``'s equal-rows
    readings."""
    rows = r.rows
    transitive = _excess(_or_rows(r, rows), rows) is None  # R∘R ⊆ R
    cols = r.columns()  # replays the walk that the composite recorded
    return _Predicates(
        reflexive=all(row >> i & 1 for i, row in enumerate(rows)),
        transitive=transitive,
        symmetric=rows == cols,
        antisymmetric=all(
            row & col & ~(1 << i) == 0 for i, (row, col) in enumerate(zip(rows, cols))
        ),
    )


def _is_monotone(src: FinPreorder, dst: FinPreorder, f: PreordMorphism) -> bool:
    """Whether ``f`` is monotone from ``src`` to ``dst``, by the inclusion
    ``≤_src ⊆ f*(≤_dst)`` that ``PreordMorphism`` tests; library results are
    built without it, so the checks test it here."""
    return _excess(src.rel.rows, inverse_image(f.map, dst.rel).rows) is None


def check_reflection_parts(
    p: FinPreorder, poset: FinPreorder, unit: PreordMorphism
) -> str | None:
    """The quotient must be an antisymmetric surjective image whose relation
    pulls back to the original one, matching the definitional construction."""
    flags = _relation_predicates(poset.rel)
    if not (flags.reflexive and flags.transitive):
        return "quotient is not a preorder"
    if not flags.antisymmetric:
        return "quotient is not antisymmetric"
    if not _is_monotone(p, poset, unit):
        return "unit is not monotone"
    if not unit.is_surjective():
        return "unit is not surjective"
    if inverse_image(unit.map, poset.rel) != p.rel:
        return "relation square over the unit is not a pullback"
    witness = oracle.reflect_by_quotient(p)
    if witness.poset != poset or witness.unit.map != unit.map:
        return "condensation disagrees with the definitional quotient"
    if not is_isomorphism(pre.reflect(poset).unit):
        return "reflection is not idempotent"
    return None


def check_sym_core(p: FinPreorder) -> str | None:
    core = pre.sym_core(p)
    flags = _relation_predicates(core)
    if not (flags.reflexive and flags.transitive and flags.symmetric):
        return "symmetric core is not an equivalence relation"
    if core != kernel_pair(oracle.reflect_by_quotient(p).unit.map):
        return "symmetric core disagrees with the definitional classes"
    return None


def check_canonical_sequence(p: FinPreorder) -> str | None:
    seq = pre.canonical_sequence(p)
    try:
        pre.NExactSequence(seq.torsion_part, seq.free_part, seq.witness)
    except ValueError as exc:
        return str(exc)
    ok, why = oracle.universal_n_kernel(seq.free_part, seq.torsion_part.src, seq.torsion_part)
    if not ok:
        return f"kernel universal property fails: {why}"
    ok, why = oracle.universal_n_cokernel(seq.torsion_part, seq.free_part)
    if not ok:
        return f"cokernel universal property fails: {why}"
    return None


def check_trivial_homs(t: FinPreorder, fp: FinPreorder) -> str | None:
    """Every monotone map from the equivalence-relation object ``t`` to the
    partial order ``fp`` lies in the ideal, by the pointwise test and by the
    factorization search."""
    for g in oracle.enumerate_morphisms(t, fp):
        if not pre.in_ideal_N(g):
            return "a monotone map misses the ideal"
        if not oracle.brute_force_in_N(g):
            return "factorization search rejects a map the ideal test accepts"
    return None


def check_ideal_agreement(f: PreordMorphism) -> str | None:
    fast = pre.in_ideal_N(f)
    slow = oracle.brute_force_in_N(f)
    if fast != slow:
        return f"pointwise ideal test says {fast}, factorization search says {slow}"
    if fast:
        witness = pre.ideal_factorization(f)
        if witness is None:
            return "member of the ideal has no factorization witness"
        mid = witness.discrete
        if not (mid.is_discrete() and _is_monotone(f.src, mid, witness.collapse)
                and _is_monotone(mid, f.dst, witness.embed)):
            return "ideal witness is not a pair of monotone maps through a discrete object"
        if compose_morphisms(witness.embed, witness.collapse).map != f.map:
            return "ideal witness does not compose back"
    return None


def check_naturality(f: PreordMorphism) -> str | None:
    lhs = compose_morphisms(pre.reflect(f.dst).unit, f).map
    rhs = compose_morphisms(pre.reflect_morphism(f), pre.reflect(f.src).unit).map
    if lhs != rhs:
        return "unit naturality square does not commute"
    return None


def check_decomposition_roundtrip(p: FinPreorder) -> str | None:
    d = pre.decompose(p)
    try:
        pre.Decomposition(d.equiv, d.quotient_order, d.section_data)
    except ValueError as exc:
        return str(exc)
    if pre.recompose(d) != p:
        return "recompose after decompose is not the identity"
    d2 = pre.decompose(pre.recompose(d))
    if d2 != d:
        return "decompose after recompose is not the identity"
    return None


def _document(instance: tuple) -> docio.Document:
    """A document holding ``instance``, each element named by its position:
    ``P0`` for an object, ``f1`` for a morphism.  A morphism's end that
    equals an earlier element reuses that element's name; any other end is
    written as the object ``f1.src`` or ``f1.dst``."""
    doc = docio.Document()
    names: dict[FinPreorder, str] = {}
    for i, x in enumerate(instance):
        if isinstance(x, FinPreorder):
            doc.add_preorder(f"P{i}", x)
            names.setdefault(x, f"P{i}")
            continue
        ends = []
        for end, role in ((x.src, "src"), (x.dst, "dst")):
            if end not in names:
                doc.add_preorder(f"f{i}.{role}", end)
            ends.append(names.get(end, f"f{i}.{role}"))
        doc.add_morphism(f"f{i}", x, *ends)
    return doc


def _instance(document: docio.Document) -> tuple:
    """The instance ``_document`` wrote, read back by its position names."""
    out = []
    while True:
        i = len(out)
        if f"P{i}" in document.preorders:
            out.append(document.preorders[f"P{i}"])
        elif f"f{i}" in document.morphisms:
            out.append(document.morphisms[f"f{i}"])
        else:
            return tuple(out)


def check_document_roundtrip(p: FinPreorder) -> str | None:
    """``docio.dumps`` must write ``p``'s document as the per-pair writer
    does, and the text must load back to ``p`` under the strict reading,
    which asks for exactly the generators of the closure."""
    doc = _document((p,))
    text = docio.dumps(doc)
    if text != oracle.dumps_by_pairs(doc):
        return "writer disagrees with the per-pair writer"
    try:
        again = _instance(docio.loads(text, strict=True))
    except docio.DocumentError as exc:
        return f"strict reload fails: {exc}"
    if again != (p,):
        return "strict reload is not the object"
    return None


def check_kernel_universal(f: PreordMorphism) -> str | None:
    kern = pre.n_kernel(f)
    ok, why = oracle.universal_n_kernel(f, kern.K, kern.k)
    if not ok:
        return f"relative kernel universal property fails: {why}"
    return None


def _covering_kernel_is_reflected(f: PreordMorphism, m: PreordMorphism) -> bool:
    """Whether the relative kernel of the covering leg ``m`` is the
    reflection of the relative kernel of ``f``, as objects:
    ``n_kernel(m).K == reflect(n_kernel(f).K).poset``, decided on rows.

    Row ``a`` of ``f``'s kernel ``K`` is ``≤_P[a]`` met with the fibre of
    ``f(a)``.  The reflection's classes are ``K``'s equal rows in order of
    least member, its carrier their labels, and its rows ``K``'s direct
    image along the class map.  Row ``c`` of ``m``'s kernel is row ``c`` of
    its source met with the fibre of ``m(c)``.
    """
    mid = m.src
    fibres = f.map.preimage_masks()
    kernel = [row & fibres[v] for row, v in zip(f.src.rel.rows, f.map.values)]
    classes = [list(_bits(members)) for members in _row_owners(kernel).values()]
    if _fresh_carrier([_class_label(f.src.carrier, cls) for cls in classes]) != mid.carrier:
        return False
    class_of = [0] * len(kernel)
    for ci, cls in enumerate(classes):
        for a in cls:
            class_of[a] = ci
    expected = [0] * len(classes)
    for ci, image in zip(class_of, _walk(kernel, [1 << c for c in class_of])[0]):
        expected[ci] |= image
    fibres = m.map.preimage_masks()
    return [row & fibres[v] for row, v in zip(mid.rel.rows, m.map.values)] == expected


def check_factorization_parts(
    f: PreordMorphism, result: fct.FactorizationResult
) -> str | None:
    """``result`` must factor ``f``: legs from ``f.src`` through a preorder
    to ``f.dst``, each monotone, composing back to ``f``, and certified by
    ``FactorizationResult``'s public constructor; the covering leg of a
    light factorization must have the reflected relative kernel.

    Decided on the rows and value tuples in hand: the endpoints first, so
    legs that do not meet are reported, not raised on; the middle object
    by ``FinPreorder``'s own validation; each leg's monotonicity against
    its memoised pulled-back order, which the constructor's
    fully-faithfulness test then reads again; the composite on values; the
    covering kernel on rows, without building the kernels or the
    reflection."""
    mid, e, m = result.mid, result.e, result.m
    if e.dst != mid or m.src != mid:
        return "legs do not meet in the middle object"
    if e.src != f.src or m.dst != f.dst:
        return "legs do not compose back to the morphism"
    if (e.map.dom, e.map.cod, m.map.dom, m.map.cod) != (
        f.src.carrier, mid.carrier, mid.carrier, f.dst.carrier
    ):
        return "a leg's map does not match its endpoints"
    if _preorder_failure(mid.carrier, mid.rel) is not None:
        return "middle object is not a preorder"
    if _excess(f.src.rel.rows, _pulled_back(e)) is not None:
        return "first leg is not monotone"
    if _excess(mid.rel.rows, _pulled_back(m)) is not None:
        return "second leg is not monotone"
    if tuple(map(m.map.values.__getitem__, e.map.values)) != f.map.values:
        return "legs do not compose back to the morphism"
    try:
        fct.FactorizationResult(result.mid, result.e, result.m, result.system)
    except ValueError as exc:
        return str(exc)
    if result.system == "monotone-light" and not _covering_kernel_is_reflected(f, m):
        return "covering kernel is not the reflected relative kernel"
    return None


def check_factorizations(f: PreordMorphism) -> str | None:
    for system, (_, _, factor) in fct.SYSTEMS.items():
        failure = check_factorization_parts(f, factor(f))
        if failure:
            return f"{system}: {failure}"
    return None


def check_random_morphism(f: PreordMorphism) -> str | None:
    failure = check_factorizations(f)
    if failure:
        return failure
    return check_m_star_agreement(f)


def _topological_m_star(f: PreordMorphism) -> bool:
    cm = alx.ContinuousMap(
        alx.preorder_to_space(f.src), alx.preorder_to_space(f.dst), f.map
    )
    return alx.classify_continuous(cm).in_M_star_top


def check_m_star_agreement(f: PreordMorphism) -> str | None:
    """The three covering tests: fibre antisymmetry, relative-kernel
    antisymmetry, and T0 fibres of the associated continuous map; and the
    lemma that a covering of a partial order has a partial-order source."""
    fibre_test = fct.is_in_M_star(f)
    kernel_test = _relation_predicates(pre.n_kernel(f).K.rel).antisymmetric
    topo_test = _topological_m_star(f)
    if not fibre_test == kernel_test == topo_test:
        return (
            f"covering tests disagree: fibres={fibre_test} "
            f"kernel={kernel_test} topology={topo_test}"
        )
    if fibre_test and f.dst.is_partial_order() and not f.src.is_partial_order():
        return "partial-order fibres over a partial order, but the source is not one"
    return None


def check_e_detection(f: PreordMorphism) -> str | None:
    by_parts = fct.is_in_E(f)
    direct = is_isomorphism(pre.reflect_morphism(f))
    if by_parts != direct:
        return f"inverted-map tests disagree: parts={by_parts} direct={direct}"
    return None


def check_e_bar_three_way(f: PreordMorphism) -> str | None:
    first = fct.is_in_E_bar(f)
    eq = kernel_pair(f.map)
    second = eq.is_subrelation_of(f.src.rel) and fct.is_regular_epi(f)
    third = (
        pre.n_kernel(f).K.rel == eq
        and direct_image(f.map, f.src.rel) == f.dst.rel
    )
    if not first == second == third:
        return (
            f"surjective-fully-faithful tests disagree: "
            f"direct={first} kernel+epi={second} kernel+image={third}"
        )
    return None


def check_m_naturality_square(f: PreordMorphism) -> str | None:
    flag = fct.is_in_M(f)
    square = is_pullback_square(
        top=f,
        left=pre.reflect(f.src).unit,
        right=pre.reflect(f.dst).unit,
        bottom=pre.reflect_morphism(f),
    )
    if flag != square:
        return f"trivial-covering tests disagree: fibration={flag} square={square}"
    return None


def check_cover_parts(
    b: FinPreorder, total: FinPreorder, projection: PreordMorphism
) -> str | None:
    if total.size != 3 * b.size:
        return f"cover has {total.size} elements, expected {3 * b.size}"
    flags = _relation_predicates(total.rel)
    if not (flags.reflexive and flags.transitive):
        return "cover is not a preorder"
    if not flags.antisymmetric:
        return "cover is not antisymmetric"
    if not _is_monotone(total, b, projection):
        return "cover projection is not monotone"
    if not projection.is_surjective():
        return "cover projection is not surjective"
    ce = fct._effective_descent_counterexample(projection)
    if ce is not None:
        return f"chain {ce} does not lift through the cover"
    return None


def check_cover(b: FinPreorder) -> str | None:
    total, projection = fct.effective_descent_cover(b)
    return check_cover_parts(b, total, projection)


def check_effective_descent_chains(f: PreordMorphism) -> str | None:
    """The effective-descent test names the chain that the brute force over
    every triple of source points finds first."""
    fast = fct._effective_descent_counterexample(f)
    slow = oracle.effective_descent_by_chains(f)
    if fast != slow:
        return f"effective descent reports {fast}, the chains {slow}"
    return None


def check_orthogonality_square(
    e: PreordMorphism,
    m: PreordMorphism,
    u: PreordMorphism,
    v: PreordMorphism,
    expected: PreordMorphism | None = None,
    brute: bool = False,
) -> str | None:
    try:
        alpha = fct.check_orthogonality(e, m, u, v)
    except fct.OrthogonalityError as exc:
        return f"no diagonal: {exc}"
    if expected is not None and alpha.map != expected.map:
        return "diagonal differs from the expected filler"
    if brute:
        ok, why = oracle.universal_orthogonality(e, m, u, v)
        if not ok:
            return f"enumeration disagrees: {why}"
    return None


def check_canonical_square(f: PreordMorphism) -> str | None:
    """The light factorization's own square has its diagonal, checked
    against enumeration on at most two points."""
    light = fct.monotone_light_factorization(f)
    return check_orthogonality_square(
        light.e, light.m, light.e, light.m, brute=max(f.src.size, f.dst.size) <= 2
    )


def check_factorization_uniqueness(f: PreordMorphism) -> str | None:
    """Any second light factorization is connected to the canonical one by a
    unique comparison isomorphism, found by diagonal fill.

    A transported copy of the middle object along a permutation provides the
    second factorization.  The copy relabels, along the reversal bijection,
    a factorization that ``check_factorizations`` certifies, so its carrier,
    object, maps and isomorphisms are built unchecked; both diagonals go
    through ``check_orthogonality``, which validates its legs and builds the
    diagonal through the public ``PreordMorphism``.
    """
    light = fct.monotone_light_factorization(f)
    n = light.mid.size
    perm = tuple(reversed(range(n)))
    carrier = _built(FinSet, n, None)
    transport = _built(SetMap, light.mid.carrier, carrier, perm)
    mid2 = _built(FinPreorder, carrier, direct_image(transport, light.mid.rel))
    iso = _built(PreordMorphism, light.mid, mid2, transport)
    iso_inv = _built(
        PreordMorphism, mid2, light.mid, _built(SetMap, carrier, light.mid.carrier, perm)
    )
    e2 = compose_morphisms(iso, light.e)
    m2 = compose_morphisms(light.m, iso_inv)
    try:
        alpha = fct.check_orthogonality(light.e, m2, e2, light.m)
        beta = fct.check_orthogonality(e2, light.m, light.e, m2)
    except fct.OrthogonalityError as exc:
        return f"no comparison between factorizations: {exc}"
    if alpha.map.values != perm or beta.map.values != perm:
        return "comparison is not the transporting isomorphism"
    if tuple(map(beta.map.values.__getitem__, alpha.map.values)) != tuple(range(n)):
        return "comparisons do not invert each other"
    return None


def check_stability(e: PreordMorphism, g: PreordMorphism) -> str | None:
    """The surjective fully faithful ``e`` pulls back along ``g`` to a
    surjective fully faithful map."""
    if not fct.is_in_E_bar(e):
        return "left-class map is not surjective fully faithful"
    if not fct.is_in_E_bar(preord_pullback(e, g).p2):
        return "pullback of a surjective fully faithful map left the class"
    return None


def check_poset_pullback(h: PreordMorphism, g: PreordMorphism) -> str | None:
    if not fct.is_in_M(preord_pullback(h, g).p2):
        return "pullback of a poset morphism is not a trivial covering"
    return None


def check_stable_units(x: FinPreorder, g: PreordMorphism) -> str | None:
    """Reflecting the pullback of the unit of ``x`` along ``g``, a map into
    the reflection of ``x``, gives a pullback square again."""
    unit = pre.reflect(x).unit
    pb = preord_pullback(unit, g)
    if not is_pullback_square(
        top=pre.reflect_morphism(pb.p2),
        left=pre.reflect_morphism(pb.p1),
        right=pre.reflect_morphism(g),
        bottom=pre.reflect_morphism(unit),
    ):
        return "reflected unit pullback is not a pullback"
    return None


def check_pullback_mono(f: PreordMorphism) -> str | None:
    """For a map of equivalence-relation objects, the source relation is the
    pulled-back target relation exactly when the induced map of class sets
    is injective."""
    pulled = _pulled_back(f) == f.src.rel.rows
    injective = pre.reflect_morphism(f).is_injective()
    if pulled != injective:
        return f"pullback criterion {pulled} disagrees with injectivity {injective}"
    return None


def check_space_roundtrip(p: FinPreorder) -> str | None:
    space = alx.preorder_to_space(p)
    if alx.space_to_preorder(space) != p:
        return "preorder -> space -> preorder is not the identity"
    if alx.preorder_to_space(alx.space_to_preorder(space)) != space:
        return "space -> preorder -> space is not the identity"
    return None


def check_topology_predicates(p: FinPreorder) -> str | None:
    space = alx.preorder_to_space(p)
    if alx.is_T0(space) != p.is_partial_order():
        return "T0 does not match antisymmetry"
    if alx.is_partition(space) != p.is_equivalence():
        return "partition topology does not match symmetry"
    return None


def check_min_nbhd_intersection(p: FinPreorder) -> str | None:
    space = alx.preorder_to_space(p)
    opens = oracle.enumerate_open_sets(space)
    for x in range(space.size):
        meet_mask = (1 << space.size) - 1
        for mask in opens:
            if mask >> x & 1:
                meet_mask &= mask
        if meet_mask != space.min_nbhd[x]:
            return f"minimal neighborhood of {x} is not the intersection of opens"
    return None


def check_hom_continuity_sets(p: FinPreorder, q: FinPreorder) -> str | None:
    monotone = {m.map.values for m in oracle.enumerate_morphisms(p, q)}
    sp, sq = alx.preorder_to_space(p), alx.preorder_to_space(q)
    opens = oracle.enumerate_open_sets(sq)
    continuous = set()
    for candidate in oracle.enumerate_set_maps(p.carrier, q.carrier):
        good = True
        for mask in opens:
            pre_mask = 0
            for a, v in enumerate(candidate.values):
                if mask >> v & 1:
                    pre_mask |= 1 << a
            if not sp.is_open(pre_mask):
                good = False
                break
        if good:
            continuous.add(candidate.values)
    if monotone != continuous:
        return (
            f"{len(monotone)} monotone maps but {len(continuous)} continuous maps"
        )
    return None


def check_t0_reflection_agreement(p: FinPreorder) -> str | None:
    space = alx.preorder_to_space(p)
    reflected = alx.t0_reflection(space)
    if not alx.is_T0(reflected.space):
        return "T0 reflection is not T0"
    poset, unit = pre.reflect(p)
    if reflected.space != alx.preorder_to_space(poset):
        return "T0 reflection disagrees with the order reflection"
    if reflected.projection.map != unit.map:
        return "T0 projection disagrees with the reflection unit"
    return None


def check_classify_continuous_agreement(f: PreordMorphism) -> str | None:
    """The order and topological classifications agree; the order one, built
    unchecked, must also pass its public constructor's implications."""
    order_flags = fct.classify(f)
    try:
        replace(order_flags)
    except ValueError as exc:
        return str(exc)
    cm = alx.ContinuousMap(
        alx.preorder_to_space(f.src), alx.preorder_to_space(f.dst), f.map
    )
    topo_flags = alx.classify_continuous(cm)
    if topo_flags.in_M_star_top != order_flags.in_M_star:
        return "covering flags disagree across the isomorphism"
    if topo_flags.in_E_prime_top != order_flags.in_E_bar:
        return "stably-inverted flags disagree across the isomorphism"
    if topo_flags.regular_epi_top != order_flags.regular_epi:
        return "regular-epi flags disagree across the isomorphism"
    return None


# ---------------------------------------------------------------------------
# suites


_NO_MORE = object()
# Sample counts and carrier bounds of the seeded random sweeps.  They are
# read when a suite runs, so a run is named by its suite, max_n and seed.
# pretorsion: sampled maps for the kernel property; objects, up to 40
# points, whose documents are checked
_KERNEL_SAMPLES = 120
_DOCUMENTED_RANDOM = 200
# factorization: random maps (count, size), covers and orthogonality
# squares, and left-class stability pairs sampled from the exhaustive ones
# (a third as many are drawn at random)
_RANDOM_MORPHISMS, _RANDOM_MORPHISM_SIZE = 1000, 50
_COVER_RANDOM, _COVER_SIZE = 500, 40
_ORTHO_RANDOM, _ORTHO_SIZE = 200, 20
_STABILITY_SAMPLES = 300
# stable-units and alexandroff: random instances (count, size)
_STABLE_RANDOM, _STABLE_SIZE = 1000, 20
_SPACE_RANDOM, _SPACE_SIZE = 500, 50


def _sweep(report: SuiteReport, name: str, instances, checker) -> None:
    """Run ``checker(*instance)`` on every instance, a tuple of values; the
    first failure fails the check, and so does an exception from the
    checker or from the instance stream, and a sweep that saw no instance,
    which would otherwise pass vacuously."""
    count = 0
    stream = iter(instances)
    while True:
        try:
            instance = next(stream, _NO_MORE)
            if instance is _NO_MORE:
                break
            failure = checker(*instance)
        except Exception as exc:  # a raised check or instance is a failed check
            failure = f"raised {exc!r}"
        count += 1
        if failure is not None:
            report.add(name, f"instance {count}: {failure}")
            return
    report.add(name, None if count else "no instances were checked", f"{count} instances")


def suite_pretorsion(max_n: int = 3, seed: int = 0) -> SuiteReport:
    """Splitting axioms: trivial homs, the canonical sequence, the reflection,
    and documents written as the generators the splitting gives."""
    report = SuiteReport("pretorsion")
    rng = random.Random(seed)
    objects = _objects(max_n)
    equivalences = [p for p in objects if p.is_equivalence()]
    posets = [p for p in objects if p.is_partial_order()]

    hom_pairs = [(t, f) for t in equivalences for f in posets]
    _sweep(report, "equivalence-to-poset homs are trivial", hom_pairs, check_trivial_homs)
    _sweep(report, "canonical sequence universal properties", zip(objects),
           check_canonical_sequence)
    _sweep(report, "symmetric core is an equivalence", zip(objects), check_sym_core)
    _sweep(report, "reflection quotient properties",
           ((p, *pre.reflect(p)) for p in objects), check_reflection_parts)
    morphisms = list(_morphisms(objects))
    _sweep(report, "unit naturality", zip(morphisms), check_naturality)
    _sweep(report, "ideal membership agreement", zip(morphisms), check_ideal_agreement)
    _sweep(report, "decomposition round trip", zip(objects), check_decomposition_roundtrip)
    small = [f for f in morphisms if max(f.src.size, f.dst.size) <= 2]
    sampled = rng.sample(morphisms, min(_KERNEL_SAMPLES, len(morphisms)))
    _sweep(report, "relative kernel universal property", zip(small + sampled),
           check_kernel_universal)
    documented = objects + list(_random_preorders(rng, _DOCUMENTED_RANDOM, 40))
    _sweep(report, "documents round trip through generators", zip(documented),
           check_document_roundtrip)
    return report


def suite_factorization(max_n: int = 3, seed: int = 0) -> SuiteReport:
    """Both factorization systems, the class detectors, covers, orthogonality."""
    report = SuiteReport("factorization")
    rng = random.Random(seed)
    objects = _objects(max_n)
    morphisms = list(_morphisms(objects))

    _sweep(report, "factorizations certify and compose", zip(morphisms), check_factorizations)
    _sweep(report, "covering tests agree", zip(morphisms), check_m_star_agreement)
    _sweep(report, "inverted-map tests agree", zip(morphisms), check_e_detection)
    _sweep(report, "surjective-fully-faithful tests agree", zip(morphisms), check_e_bar_three_way)
    _sweep(report, "trivial-covering naturality square", zip(morphisms),
           check_m_naturality_square)

    eq_morphisms = [
        f for f in morphisms if f.src.is_equivalence() and f.dst.is_equivalence()
    ]
    _sweep(report, "pullback-mono criterion", zip(eq_morphisms), check_pullback_mono)

    by_target: dict[FinPreorder, list[PreordMorphism]] = {}
    for m in morphisms:
        by_target.setdefault(m.dst, []).append(m)
    surjective_ff = [f for f in morphisms if fct.is_in_E_bar(f)]
    stability_pairs = [(e, g) for e in surjective_ff for g in by_target[e.dst]]
    rng_pairs = rng.sample(stability_pairs, min(_STABILITY_SAMPLES, len(stability_pairs)))
    small_pairs = [
        (e, g) for (e, g) in stability_pairs if max(e.src.size, g.src.size) <= 2
    ]
    _sweep(report, "left class is pullback stable", small_pairs + rng_pairs, check_stability)

    def random_stability_pairs():
        produced = 0
        while produced < _STABILITY_SAMPLES // 3:
            base = oracle.random_preorder(rng, rng.randint(0, 15))
            e = oracle.random_core_refinement(rng, base)
            z = oracle.random_preorder(rng, rng.randint(0, 15))
            g_map = oracle.random_monotone_map(rng, z, e.dst)
            if g_map is None:
                continue
            produced += 1
            yield (e, PreordMorphism(z, e.dst, g_map))

    _sweep(report, "left class is pullback stable (random)",
           random_stability_pairs(), check_stability)

    poset_pairs = []
    for h in morphisms:
        if not (h.src.is_partial_order() and h.dst.is_partial_order()):
            continue
        if max(h.src.size, h.dst.size) > 2:
            continue
        poset_pairs.extend((h, g) for g in by_target[h.dst] if g.src.size <= 2)
    _sweep(report, "poset-map pullbacks are trivial coverings", poset_pairs, check_poset_pullback)

    _sweep(report, "orthogonality on canonical squares", zip(morphisms), check_canonical_square)
    _sweep(report, "light factorizations are unique up to comparison",
           zip(morphisms), check_factorization_uniqueness)

    def random_squares():
        for _ in range(_ORTHO_RANDOM):
            f = oracle.random_morphism(rng, _ORTHO_SIZE)
            g = oracle.random_morphism(rng, _ORTHO_SIZE)
            ef = fct.monotone_light_factorization(f)
            mg = fct.monotone_light_factorization(g)
            w_map = oracle.random_monotone_map(rng, ef.mid, mg.mid)
            if w_map is None:
                continue
            w = PreordMorphism(ef.mid, mg.mid, w_map)
            yield (ef.e, mg.m, compose_morphisms(w, ef.e), compose_morphisms(mg.m, w), w)

    _sweep(report, "orthogonality on random squares", random_squares(), check_orthogonality_square)

    _sweep(report, "effective-descent covers (exhaustive)", zip(objects), check_cover)

    def chain_instances():
        yield from ((f,) for f in morphisms if max(f.src.size, f.dst.size) <= 2)
        for b in objects:
            if b.size <= 2:
                yield (fct.effective_descent_cover(b).projection,)

    _sweep(report, "effective descent agrees with the chain brute force",
           chain_instances(), check_effective_descent_chains)

    _sweep(report, "effective-descent covers (random)",
           zip(_random_preorders(rng, _COVER_RANDOM, _COVER_SIZE)), check_cover)

    random_morphisms = (
        oracle.random_morphism(rng, _RANDOM_MORPHISM_SIZE) for _ in range(_RANDOM_MORPHISMS)
    )
    _sweep(report, "random factorizations certify and compose",
           zip(random_morphisms), check_random_morphism)
    return report


def suite_stable_units(max_n: int = 3, seed: int = 0) -> SuiteReport:
    """The reflection preserves pullbacks along its unit components."""
    report = SuiteReport("stable-units")
    rng = random.Random(seed)
    objects = _objects(max_n)

    def exhaustive():
        for x in objects:
            poset = pre.reflect(x).poset
            for z in objects:
                for g in oracle.enumerate_morphisms(z, poset):
                    yield (x, g)

    _sweep(report, "stable units (exhaustive)", exhaustive(), check_stable_units)

    def randoms():
        produced = 0
        while produced < _STABLE_RANDOM:
            x = oracle.random_preorder(rng, rng.randint(0, _STABLE_SIZE))
            poset = pre.reflect(x).poset
            z = oracle.random_preorder(rng, rng.randint(0, _STABLE_SIZE))
            g_map = oracle.random_monotone_map(rng, z, poset)
            if g_map is None:
                continue
            produced += 1
            yield (x, PreordMorphism(z, poset, g_map))

    _sweep(report, "stable units (random)", randoms(), check_stable_units)
    return report


def suite_alexandroff(max_n: int = 3, seed: int = 0) -> SuiteReport:
    """The space dictionary: round trips, opens, and flag agreement."""
    report = SuiteReport("alexandroff")
    rng = random.Random(seed)
    objects = _objects(max_n)
    morphisms = list(_morphisms(objects))

    _sweep(report, "round trips (exhaustive)", zip(objects), check_space_roundtrip)

    _sweep(report, "round trips (random)",
           zip(_random_preorders(rng, _SPACE_RANDOM, _SPACE_SIZE)), check_space_roundtrip)
    _sweep(report, "monotone maps are exactly continuous maps",
           ((p, q) for p in objects for q in objects), check_hom_continuity_sets)
    _sweep(report, "minimal neighborhoods are open intersections",
           zip(objects), check_min_nbhd_intersection)
    _sweep(report, "T0/partition dual tests (exhaustive)", zip(objects), check_topology_predicates)

    _sweep(report, "T0/partition dual tests (random)",
           zip(_random_preorders(rng, _SPACE_RANDOM, _SPACE_SIZE)), check_topology_predicates)
    _sweep(report, "T0 reflection matches order reflection",
           zip(objects), check_t0_reflection_agreement)
    _sweep(report, "continuous classification matches order classification",
           zip(morphisms), check_classify_continuous_agreement)
    return report


SUITES = {
    "pretorsion": suite_pretorsion,
    "factorization": suite_factorization,
    "stable-units": suite_stable_units,
    "alexandroff": suite_alexandroff,
}
