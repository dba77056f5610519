"""Brute-force counterparts and instance generators.

Everything here is deliberately naive: exhaustive enumeration, factorization
search, universal properties quantified over all small probe objects.  The
main modules are validated against these, never the other way round.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _built,
    compose_morphisms,
    meet,
    opposite,
    quotient,
    reflexive_transitive_closure,
    row_classes,
)

__all__ = [
    "EnumerationCapError",
    "HARD_ENUMERATION_CAP",
    "PROBE_CAP",
    "enumerate_preorders",
    "enumerate_preorders_by_closure",
    "enumerate_morphisms",
    "enumerate_set_maps",
    "brute_force_in_N",
    "universal_n_kernel",
    "universal_n_cokernel",
    "universal_pullback",
    "universal_orthogonality",
    "compose_relations_slow",
    "or_rows_by_bits",
    "transpose_by_bits",
    "or_cols_by_bits",
    "effective_descent_by_chains",
    "trivial_covering_by_pairs",
    "fibre_poset_by_pairs",
    "generators_by_pairs",
    "dumps_by_pairs",
    "closure_slow",
    "transitive_by_pairs",
    "monotone_by_pairs",
    "reflect_by_quotient",
    "t0_reflection_by_pairs",
    "enumerate_open_sets",
    "random_preorder",
    "random_monotone_map",
    "random_morphism",
    "random_core_refinement",
]

# Enumerators refuse larger carriers: the relation count grows as 2**(n*n).
HARD_ENUMERATION_CAP = 4
# Universal properties are quantified over every preorder up to this size.
PROBE_CAP = 3
# Open-set enumeration walks all 2**n subsets of the carrier.
OPEN_SET_CAP = 12
# Class-respecting tries of ``random_monotone_map`` before its greedy pass.
MONOTONE_MAP_ATTEMPTS = 50


class EnumerationCapError(ValueError):
    """Raised when an exhaustive sweep is asked to exceed its carrier cap."""


def _check_cap(n: int) -> None:
    if n > HARD_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"carrier {n} exceeds the enumeration cap {HARD_ENUMERATION_CAP}"
        )


def transitive_by_pairs(rows) -> bool:
    """Transitivity by visiting every related pair ``(i, j)`` and checking
    ``rows[j] ⊆ rows[i]``: the slow counterpart of the inclusion
    ``R∘R ⊆ R`` that ``FinPreorder`` and ``AlexandroffSpace`` test."""
    return all(rows[j] & ~row == 0 for row in rows for j in _bits(row))


def monotone_by_pairs(src_rows, dst_rows, values) -> bool:
    """Monotonicity by visiting every related pair of the source: the slow
    counterpart of the inclusion ``≤_P ⊆ f*(≤_Q)`` that ``PreordMorphism``
    and ``ContinuousMap`` test."""
    return all(
        dst_rows[values[a]] >> values[b] & 1
        for a, row in enumerate(src_rows)
        for b in _bits(row)
    )


def or_rows_by_bits(rows, table) -> tuple[int, ...]:
    """The OR of ``table[j]`` over the set bits ``j`` of each row, one step
    per set bit: the slow counterpart of the recorded covered walk that
    ``relations._or_rows`` replays."""
    out = []
    for row in rows:
        acc = 0
        for j in _bits(row):
            acc |= table[j]
        out.append(acc)
    return tuple(out)


def transpose_by_bits(rows, width: int) -> tuple[int, ...]:
    """Bit columns, one update per set bit: the slow counterpart of
    ``Relation.columns``, the backward replay of ``relations._or_cols``
    with the weights ``1 << i``."""
    return or_cols_by_bits(rows, [1 << i for i in range(len(rows))], width)


def or_cols_by_bits(rows, weights, width: int) -> tuple[int, ...]:
    """Entry ``k`` is the OR of ``weights[i]`` over the rows ``i`` holding
    bit ``k``, one update per set bit: the slow counterpart of the backward
    replay in ``relations._or_cols``."""
    cols = [0] * width
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= weights[i]
    return tuple(cols)


def generators_by_pairs(p: FinPreorder) -> list[tuple[int, int]]:
    """The canonical generators of ``p``, pair by pair: the slow counterpart
    of ``pretorsion.generators``.  ``(a, b)`` is a cycle edge when ``b`` is
    the member after ``a`` in its class of two or more members, the least
    after the greatest; it is a Hasse edge when ``a`` and ``b`` are the least
    members of their classes, ``a < b``, and no element lies strictly
    between them."""
    n, leq = p.size, p.leq

    def below(a, b):
        return leq(a, b) and not leq(b, a)

    classes = [[c for c in range(n) if leq(a, c) and leq(c, a)] for a in range(n)]
    edges = []
    for a in range(n):
        cls = classes[a]
        for b in range(n):
            if len(cls) > 1 and b == cls[(cls.index(a) + 1) % len(cls)]:
                edges.append((a, b))
            elif (
                a == cls[0]
                and b == classes[b][0]
                and below(a, b)
                and not any(below(a, c) and below(c, b) for c in range(n))
            ):
                edges.append((a, b))
    return edges


def dumps_by_pairs(doc) -> str:
    """Document text written pair by pair, each label looked up through its
    carrier: the slow counterpart of the row-wise ``docio.dumps``."""
    out = ["preord 2", ""]
    for name in sorted(doc.preorders):
        p = doc.preorders[name]
        out.append(f"object {name}")
        out.append(("  points " + " ".join(p.carrier.label(i) for i in range(p.size))).rstrip())
        for i, j in generators_by_pairs(p):
            out.append(f"  edge {p.carrier.label(i)} {p.carrier.label(j)}")
        out.append("")
    for name in sorted(doc.spaces):
        s = doc.spaces[name]
        out.append(f"space {name}")
        out.append(("  points " + " ".join(s.carrier.label(i) for i in range(s.size))).rstrip())
        for x in range(s.size):
            members = " ".join(s.carrier.label(y) for y in _bits(s.min_nbhd[x]))
            out.append(f"  nbhd {s.carrier.label(x)} {members}")
        out.append("")
    for name in sorted(doc.morphisms):
        f = doc.morphisms[name]
        src_name, dst_name = doc.morphism_ends[name]
        out.append(f"morphism {name} {src_name} {dst_name}")
        for a in range(f.src.size):
            out.append(f"  send {f.src.carrier.label(a)} {f.dst.carrier.label(f(a))}")
        out.append("")
    return "\n".join(out)


def enumerate_preorders(n: int) -> Iterator[FinPreorder]:
    """All reflexive transitive relations on ``n`` labeled points.

    Filters every candidate off-diagonal bit pattern by transitivity, pair
    by pair; the survivors are preorders, built unchecked.
    """
    _check_cap(n)
    carrier = FinSet(n)
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    for combo in range(1 << len(positions)):
        rows = [1 << i for i in range(n)]
        for p, (i, j) in enumerate(positions):
            if combo >> p & 1:
                rows[i] |= 1 << j
        if not transitive_by_pairs(rows):
            continue
        yield _built(FinPreorder, carrier, Relation(carrier, carrier, tuple(rows)))


def enumerate_preorders_by_closure(n: int) -> list[FinPreorder]:
    """Independent generation method: close every edge set, deduplicate."""
    _check_cap(n)
    carrier = FinSet(n)
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen: set[tuple[int, ...]] = set()
    out = []
    for combo in range(1 << len(positions)):
        pairs = [positions[p] for p in range(len(positions)) if combo >> p & 1]
        closed = reflexive_transitive_closure(
            Relation.from_pairs(carrier, carrier, pairs)
        )
        if closed.rel.rows in seen:
            continue
        seen.add(closed.rel.rows)
        out.append(closed)
    out.sort(key=lambda p: p.rel.rows)
    return out


def enumerate_morphisms(p: FinPreorder, q: FinPreorder) -> Iterator[PreordMorphism]:
    """All monotone maps from ``p`` to ``q``, by pruned backtracking.

    Each assignment is checked against every related pair with the points
    already assigned, so every yielded map is monotone, built unchecked.
    """
    _check_cap(max(p.size, q.size))
    n, m = p.size, q.size
    if n == 0:
        yield _built(PreordMorphism, p, q, SetMap(p.carrier, q.carrier, ()))
        return
    if m == 0:
        return
    prows = p.rel.rows
    qrows = q.rel.rows
    values = [0] * n

    def extend(a: int) -> Iterator[tuple[int, ...]]:
        if a == n:
            yield tuple(values)
            return
        for v in range(m):
            ok = True
            for b in range(a):
                fb = values[b]
                if prows[b] >> a & 1 and not qrows[fb] >> v & 1:
                    ok = False
                    break
                if prows[a] >> b & 1 and not qrows[v] >> fb & 1:
                    ok = False
                    break
            if ok:
                values[a] = v
                yield from extend(a + 1)

    for assignment in extend(0):
        yield _built(PreordMorphism, p, q, SetMap(p.carrier, q.carrier, assignment))


def enumerate_set_maps(dom: FinSet, cod: FinSet) -> Iterator[SetMap]:
    """All total maps between two carriers."""
    if dom.size == 0:
        yield SetMap(dom, cod, ())
        return
    for values in itertools.product(range(cod.size), repeat=dom.size):
        yield SetMap(dom, cod, values)


def brute_force_in_N(f: PreordMorphism) -> bool:
    """Search all factorizations of ``f`` through discrete objects.

    Candidate middles range over sizes up to the source carrier; a quotient
    map must be monotone into the discrete middle and compatible with ``f``,
    after which the second leg exists automatically.
    """
    n = f.src.size
    if n == 0:
        return True
    _check_cap(n)
    rows = f.src.rel.rows
    fvalues = f.map.values
    for k in range(1, n + 1):
        for g in itertools.product(range(k), repeat=n):
            # monotone into the discrete middle: related pairs must collapse
            if any(g[a] != g[a2] for a in range(n) for a2 in _bits(rows[a])):
                continue
            # the second leg exists iff f is constant on g-fibres
            fibre_image: dict[int, int] = {}
            ok = True
            for a in range(n):
                if fibre_image.setdefault(g[a], fvalues[a]) != fvalues[a]:
                    ok = False
                    break
            if ok:
                return True
    return False


# The ``universal_*`` checks quantify a universal property over every probe
# object up to ``PROBE_CAP`` points.  Each returns a verdict plus a
# counterexample description when it fails.


def _probes() -> Iterator[FinPreorder]:
    for size in range(PROBE_CAP + 1):
        yield from enumerate_preorders(size)


def universal_n_kernel(
    f: PreordMorphism, K: FinPreorder, k: PreordMorphism
) -> tuple[bool, str | None]:
    """Whether ``k: K -> f.src`` is an n-kernel of ``f``."""
    if not brute_force_in_N(compose_morphisms(f, k)):
        return False, "composite f∘k does not factor through a discrete object"
    for probe in _probes():
        for lam in enumerate_morphisms(probe, f.src):
            if not brute_force_in_N(compose_morphisms(f, lam)):
                continue
            count = sum(
                1
                for lam2 in enumerate_morphisms(probe, K)
                if compose_morphisms(k, lam2).map == lam.map
            )
            if count != 1:
                return False, (
                    f"probe of size {probe.size} with map {lam.map.values} "
                    f"factors {count} times through the kernel"
                )
    return True, None


def universal_n_cokernel(
    k: PreordMorphism, p: PreordMorphism
) -> tuple[bool, str | None]:
    """Whether ``p`` is an n-cokernel of ``k``."""
    if not brute_force_in_N(compose_morphisms(p, k)):
        return False, "composite p∘k does not factor through a discrete object"
    for probe in _probes():
        for g in enumerate_morphisms(k.dst, probe):
            if not brute_force_in_N(compose_morphisms(g, k)):
                continue
            count = sum(
                1
                for alpha in enumerate_morphisms(p.dst, probe)
                if compose_morphisms(alpha, p).map == g.map
            )
            if count != 1:
                return False, (
                    f"probe of size {probe.size} with map {g.map.values} "
                    f"factors {count} times through the quotient"
                )
    return True, None


def universal_pullback(
    f: PreordMorphism,
    g: PreordMorphism,
    obj: FinPreorder,
    p1: PreordMorphism,
    p2: PreordMorphism,
) -> tuple[bool, str | None]:
    """Whether ``obj`` with projections ``p1``, ``p2`` is a pullback of ``f``
    and ``g``."""
    if compose_morphisms(f, p1).map != compose_morphisms(g, p2).map:
        return False, "projection square does not commute"
    for probe in _probes():
        for u in enumerate_morphisms(probe, f.src):
            for v in enumerate_morphisms(probe, g.src):
                if compose_morphisms(f, u).map != compose_morphisms(g, v).map:
                    continue
                count = sum(
                    1
                    for w in enumerate_morphisms(probe, obj)
                    if compose_morphisms(p1, w).map == u.map
                    and compose_morphisms(p2, w).map == v.map
                )
                if count != 1:
                    return False, (
                        f"cone from probe of size {probe.size} "
                        f"({u.map.values}, {v.map.values}) factors {count} times"
                    )
    return True, None


def universal_orthogonality(
    e: PreordMorphism, m: PreordMorphism, u: PreordMorphism, v: PreordMorphism
) -> tuple[bool, str | None]:
    """Whether the square ``m∘u = v∘e`` has exactly one diagonal filler; no
    probes are needed."""
    count = sum(
        1
        for alpha in enumerate_morphisms(e.dst, m.src)
        if compose_morphisms(alpha, e).map == u.map
        and compose_morphisms(m, alpha).map == v.map
    )
    if count != 1:
        return False, f"{count} diagonal fillers found"
    return True, None


def effective_descent_by_chains(f: PreordMorphism) -> tuple[int, int, int] | None:
    """The first chain ``b1 ≤ b2 ≤ b3`` of the target, by ``b2``, then
    ``b1``, then ``b3``, such that no chain ``e1 ≤ e2 ≤ e3`` of the source
    maps onto it, or ``None``: Janelidze and Sobral's chain criterion for
    effective descent, tried on every triple of source points.  The slow
    counterpart of ``factorization.is_effective_descent``."""
    p, q = f.src, f.dst
    for b2 in range(q.size):
        for b1 in range(q.size):
            for b3 in range(q.size):
                if not (q.leq(b1, b2) and q.leq(b2, b3)):
                    continue
                if not any(
                    (f(e1), f(e2), f(e3)) == (b1, b2, b3) and p.leq(e1, e2) and p.leq(e2, e3)
                    for e1 in range(p.size)
                    for e2 in range(p.size)
                    for e3 in range(p.size)
                ):
                    return (b1, b2, b3)
    return None


def trivial_covering_by_pairs(f: PreordMorphism) -> tuple[int, int] | None:
    """The first ``(a, b)``, by ``a`` then ``b``, with ``b ~ f(a)`` such that
    not exactly one ``a' ~ a`` has ``f(a') = b``, or ``None``: the points
    counted pair by pair through ``leq`` both ways.  The slow counterpart
    of ``factorization.is_in_M``."""
    p, q = f.src, f.dst
    for a in range(p.size):
        for b in range(q.size):
            if q.leq(b, f(a)) and q.leq(f(a), b):
                lifts = [x for x in range(p.size) if f(x) == b and p.leq(a, x) and p.leq(x, a)]
                if len(lifts) != 1:
                    return (a, b)
    return None


def fibre_poset_by_pairs(f: PreordMorphism) -> tuple[int, int] | None:
    """The first ``(a, a')``, by ``a`` then ``a'``, with ``a ≠ a'``,
    ``f(a) = f(a')`` and ``leq`` holding both ways, or ``None``: every pair
    of source points tried.  The slow counterpart of
    ``factorization.is_in_M_star``."""
    p = f.src
    for a in range(p.size):
        for a2 in range(p.size):
            if a != a2 and f(a) == f(a2) and p.leq(a, a2) and p.leq(a2, a):
                return (a, a2)
    return None


def compose_relations_slow(r: Relation, s: Relation) -> Relation:
    """Triple-loop relational composition, for cross-checking the bit version."""
    if r.dst != s.src:
        raise ValueError("carrier mismatch: middle carriers differ")
    pairs = []
    for x in range(r.src.size):
        for z in range(s.dst.size):
            if any(r.has(x, y) and s.has(y, z) for y in range(r.dst.size)):
                pairs.append((x, z))
    return Relation.from_pairs(r.src, s.dst, pairs)


def closure_slow(r: Relation) -> FinPreorder:
    """Per-node breadth-first reachability closure, independent of the
    in-place bit closure."""
    if r.src != r.dst:
        raise ValueError("carrier mismatch: expected an endorelation")
    n = r.src.size
    adjacency = [list(_bits(row)) for row in r.rows]
    rows = []
    for start in range(n):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        rows.append(sum(1 << v for v in seen))
    return FinPreorder(r.src, Relation(r.src, r.src, tuple(rows)))


def reflect_by_quotient(p: FinPreorder):
    """Definitional partial-order reflection: the class of ``a`` collects
    every ``b`` with ``leq(a, b) and leq(b, a)``, found pair by pair; then
    quotient and push the relation forward.  Cross-checks ``reflect``, which
    reads its classes off equal rows."""
    from .pretorsion import Reflection

    classes = []
    placed = [False] * p.size
    for a in range(p.size):
        if not placed[a]:
            members = [b for b in range(a, p.size) if p.leq(a, b) and p.leq(b, a)]
            for b in members:
                placed[b] = True
            classes.append(members)
    unit = quotient(p, classes)
    return Reflection(unit.dst, unit)


def t0_reflection_by_pairs(space):
    """Definitional T0 reflection: ``x ~ y`` iff each lies in the other's
    minimal neighborhood, found pair by pair, with classes labelled
    ``{a,b}`` by their members unless two labels collide; the neighborhood
    of a class holds every class with a member in the neighborhood of one
    of its members, again found pair by pair.  Built through the public
    constructors.  Cross-checks ``alexandroff.t0_reflection``, which reads
    the order reflection of the specialization preorder."""
    from .alexandroff import AlexandroffSpace, ContinuousMap, T0Reflection

    n, nbhd = space.size, space.min_nbhd
    classes = []
    values = [0] * n
    placed = [False] * n
    for x in range(n):
        if not placed[x]:
            members = [y for y in range(x, n) if nbhd[x] >> y & 1 and nbhd[y] >> x & 1]
            for y in members:
                placed[y] = True
                values[y] = len(classes)
            classes.append(members)
    labels = ["{" + ",".join(map(space.carrier.label, cls)) + "}" for cls in classes]
    carrier = FinSet(len(classes), labels if len(set(labels)) == len(labels) else None)
    nbhds = [
        sum(
            1 << d
            for d, other in enumerate(classes)
            if any(nbhd[x] >> y & 1 for x in cls for y in other)
        )
        for cls in classes
    ]
    quotient = AlexandroffSpace(carrier, nbhds)
    projection = ContinuousMap(space, quotient, SetMap(space.carrier, carrier, values))
    return T0Reflection(quotient, projection)


def enumerate_open_sets(space) -> list[int]:
    """All open sets of an Alexandroff space as bit masks.

    Exponential in the carrier; refuses carriers above ``OPEN_SET_CAP``.
    """
    n = space.carrier.size
    if n > OPEN_SET_CAP:
        raise ValueError(
            f"open-set enumeration is exponential; carrier {n} exceeds cap {OPEN_SET_CAP}"
        )
    opens = []
    for mask in range(1 << n):
        if all(space.min_nbhd[x] & ~mask == 0 for x in _bits(mask)):
            opens.append(mask)
    return opens


def random_preorder(
    rng: random.Random,
    size: int,
    labels: tuple[str, ...] | None = None,
    edge_factor: float = 1.2,
) -> FinPreorder:
    """The closure of a sparse random edge set on ``size`` points."""
    carrier = FinSet(size, labels)
    if size == 0:
        return FinPreorder(carrier, Relation(carrier, carrier, ()))
    count = int(edge_factor * size)
    pairs = [
        (rng.randrange(size), rng.randrange(size)) for _ in range(count)
    ]
    return reflexive_transitive_closure(Relation.from_pairs(carrier, carrier, pairs))


def random_monotone_map(
    rng: random.Random, p: FinPreorder, q: FinPreorder
) -> SetMap | None:
    """A random monotone map, or ``None`` when the target is empty.

    First tries class-respecting random assignments filtered for
    monotonicity, then makes one greedy constrained assignment along a
    linear extension (up-sets largest first) inside the down-set of a point
    ``t`` with the largest down-set.  The greedy pass cannot fail: when
    ``a`` is placed, the placed points above it are its class-mates, and
    the image of one is allowed; without one, only points below ``a``
    constrain it, their images lie below ``t``, and ``t`` is allowed.
    """
    n, m = p.size, q.size
    if n == 0:
        return SetMap(p.carrier, q.carrier, ())
    if m == 0:
        return None
    p_classes = row_classes(meet(p.rel, opposite(p.rel)).rows)
    q_classes = row_classes(meet(q.rel, opposite(q.rel)).rows)
    prows = p.rel.rows
    qrows = q.rel.rows

    for _ in range(MONOTONE_MAP_ATTEMPTS):
        values = [0] * n
        for cls in p_classes:
            target_cls = q_classes[rng.randrange(len(q_classes))]
            for a in cls:
                values[a] = target_cls[rng.randrange(len(target_cls))]
        if monotone_by_pairs(prows, qrows, values):
            return SetMap(p.carrier, q.carrier, tuple(values))

    order = sorted(range(n), key=lambda a: (-prows[a].bit_count(), a))
    qcols = opposite(q.rel).rows
    below_top = max(qcols, key=int.bit_count)
    values = [-1] * n
    for a in order:
        allowed = below_top
        for b in order:
            if values[b] < 0 or b == a:
                continue
            if prows[b] >> a & 1:
                allowed &= qrows[values[b]]
            if prows[a] >> b & 1:
                allowed &= qcols[values[b]]
        choices = list(_bits(allowed))
        values[a] = choices[rng.randrange(len(choices))]
    return SetMap(p.carrier, q.carrier, tuple(values))


def random_morphism(rng: random.Random, max_size: int) -> PreordMorphism:
    """A random monotone map between two random preorders of size up to the bound."""
    src = random_preorder(rng, rng.randint(0, max_size))
    dst = random_preorder(rng, rng.randint(1 if src.size else 0, max_size))
    mapping = random_monotone_map(rng, src, dst)
    assert mapping is not None
    return PreordMorphism(src, dst, mapping)


def random_core_refinement(rng: random.Random, p: FinPreorder) -> PreordMorphism:
    """A random quotient of ``p`` whose kernel pair refines the symmetric core.

    Splits every mutual-reachability class into random sub-blocks; the
    resulting quotient map is surjective, collapses only mutually related
    elements, and so is fully faithful onto its image order.
    """
    blocks: list[list[int]] = []
    for members in row_classes(meet(p.rel, opposite(p.rel)).rows):
        rng.shuffle(members)
        cut = 0
        while cut < len(members):
            width = rng.randint(1, len(members) - cut)
            blocks.append(sorted(members[cut : cut + width]))
            cut += width
    blocks.sort(key=lambda b: b[0])
    return quotient(p, blocks)
