"""Finite carriers, bitset-backed binary relations, preorders, monotone maps.

A relation between finite index sets is stored as dense bit rows: bit ``j``
of ``rows[i]`` is set iff source element ``i`` is related to destination
element ``j``.  Meets are word-parallel ``&``, composition is a boolean
matrix product over bit rows.  Every value is immutable and hashable and
every operation is a pure function, so values can be shared freely across
threads.

Elements are canonical indices ``0..size-1``; labels are presentation-only
metadata carried along for display and serialization.

Public constructors are the one trust boundary: ``FinSet``, ``Relation``,
``SetMap``, ``FinPreorder``, ``PreordMorphism``, the spaces and continuous
maps of ``alexandroff``, and result records such as factorizations and exact
sequences check their input.  Every value the library computes from
validated values (relations, maps, carriers, objects, morphisms and records)
is made with ``_built``, unchecked, and its docstring says why it holds; the
suites re-check them, each record through its public constructor.

Values derived from one value are computed once and memoised on it by
``_memoised``; only a relation's walk is recorded by ``_or_rows`` itself.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "FinSet",
    "Relation",
    "SetMap",
    "FinPreorder",
    "PreordMorphism",
    "Pullback",
    "compose_relations",
    "opposite",
    "meet",
    "direct_image",
    "inverse_image",
    "kernel_pair",
    "graph_relation",
    "reflexive_transitive_closure",
    "identity_map",
    "compose_maps",
    "identity_morphism",
    "compose_morphisms",
    "is_isomorphism",
    "preord_pullback",
    "is_pullback_square",
    "row_classes",
    "quotient",
]


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walk(
    rows: Sequence[int], table: Sequence[int], steps: list[int] | None = None
) -> tuple[tuple[int, ...], list[int]]:
    """Row ``i`` of the first result is the OR of ``table[j]`` over the set
    bits ``j`` of ``rows[i]``; given a list ``steps``, the walk that
    computed it is recorded there and in the second result, ``ids``, for
    replay against any table of the same length.  This is the one walk
    behind ``_or_rows`` and ``_or_cols``; rows that no relation owns use it
    directly and record nothing.

    The rows are visited in ascending order of value, so every strict
    subset of ``r``, a smaller number, comes before it, and a row equal to
    the one visited before it is not walked again.  The walk over ``r``
    takes the lowest unreached bit ``k``, ORs in ``table[k]`` and counts
    ``k`` as reached; when ``rows[k]`` is a strict subset of ``r`` (the
    guard), it ORs in the result of ``rows[k]`` instead, and ``table[k]``
    too only when ``k`` lies outside ``rows[k]``, and counts all of
    ``rows[k]`` as reached.

    The record numbers the table entries ``1 .. len(table)`` and the
    distinct rows after them, in the order visited: ``ids[i]`` is the
    number of ``rows[i]``, and ``steps`` lists the number of everything
    ORed in, with ``0`` after each distinct row.

    Exact on every relation, by induction on the popcount of ``r``: every
    bit of ``r`` is reached either as some ``k``, whose ``table[k]`` is
    ORed in, or inside a guarded ``rows[k] ⊊ r``, a distinct row of smaller
    popcount whose result is by induction the OR over all of its bits; and
    nothing outside ``r`` is ORed in, since every ``rows[k]`` used is a
    subset of ``r``.  Nothing else is assumed of ``rows``: on a
    non-transitive relation the guard fails more often and the walk takes
    more steps, and an index ``k`` past the last row (a heterogeneous
    relation) is simply reached alone.

    On a preorder ``rows[k]`` is the up-set of ``k``, always a subset of
    ``r`` and strict unless ``k`` is in the class of ``r``.  When every
    element is numbered after the elements below it, the lowest unreached
    ``k`` is minimal among the unreached, so outside the class of ``r`` the
    walk steps exactly along the covering steps of ``r``, a few
    word-parallel operations each.  Other numberings take more steps, up
    to one per related pair for a chain numbered from the top.
    """
    n = len(rows)
    out = [0] * n
    ids = [0] * n
    here = len(table)
    prev = acc = None
    for i in sorted(range(n), key=rows.__getitem__):
        r = rows[i]
        if r != prev:
            prev = r
            acc = 0
            rem = r
            while rem:
                low = rem & -rem
                k = low.bit_length() - 1
                rem ^= low
                if k < n:
                    sub = rows[k]
                    if sub != r and sub | r == r:
                        acc |= out[k]
                        if steps is not None:
                            steps.append(ids[k])
                        rem &= ~sub
                        if sub & low:
                            continue
                acc |= table[k]
                if steps is not None:
                    steps.append(k + 1)
            if steps is not None:
                steps.append(0)
            here += 1
        ids[i] = here
        out[i] = acc
    return tuple(out), ids


def _or_rows(rel: Relation, table: Sequence[int]) -> tuple[int, ...]:
    """Row ``i`` of the result is the OR of ``table[j]`` over the set bits
    ``j`` of ``rel.rows[i]``, for a table of one entry per column: the
    bit-row kernel behind composition, direct and inverse image, pullbacks
    and the order checks.

    The first call walks the rows and memoises the record on ``rel``,
    outside its dataclass fields, as ``_memoised`` does: the list
    ``ids`` that ``_walk`` built and its ``steps`` packed four bytes each.
    Later calls replay it against their own table with no bit arithmetic
    on the rows: ``vals`` is ``0`` and then the table, so a number indexes
    it, and each ``0`` in ``steps`` appends the OR of the entries read
    since the previous one."""
    memos = rel.__dict__
    walk = memos.get("_walk")
    if walk is None:
        steps = []
        out, ids = _walk(rel.rows, table, steps)
        memos["_walk"] = ids, array("I", steps)
        return out
    ids, steps = walk
    vals = [0, *table]
    acc = 0
    for j in steps:
        if j:
            acc |= vals[j]
        else:
            vals.append(acc)
            acc = 0
    return tuple(map(vals.__getitem__, ids))


def _or_cols(rel: Relation, weights: Iterable[int]) -> tuple[int, ...]:
    """Entry ``k`` of the result is the OR of ``weights[i]`` over the ``i``
    with ``k`` in ``rel.rows[i]``, one entry per column; with the weights
    ``1 << i`` these are the columns of ``rel``.

    The walk of ``rel`` replayed backward, recorded first over a table of
    zeros if no call has recorded it yet.  Each distinct row starts with
    the OR of the weights of the indices carrying it, and in descending
    order each row ORs its mask into every entry it recorded, a column or
    an earlier row, a strict subset visited after it.  Exact by the
    forward replay: the mask of ``r`` reaches column ``k`` exactly when
    the forward walk of ``r`` reads ``table[k]``, directly or through its
    subsets, which is when ``k`` is in ``r``."""
    width = rel.dst.size
    memos = rel.__dict__
    if "_walk" not in memos:
        _or_rows(rel, [0] * width)
    ids, steps = memos["_walk"]
    # the last row visited, the largest, holds the last index of ``vals``
    vals = [0] * ((max(ids) if ids else width) + 1)
    for j, weight in zip(ids, weights):
        vals[j] |= weight
    d = len(vals)
    for j in reversed(steps):
        if j:
            vals[j] |= mask
        else:
            d -= 1
            mask = vals[d]
    return tuple(vals[1 : width + 1])


def _is_label(lab: object) -> bool:
    """A printable token that documents can carry: nonempty, no whitespace,
    and no ``#``, which starts a comment in the document format."""
    return isinstance(lab, str) and lab.split() == [lab] and "#" not in lab


def _fresh_carrier(candidates: list[str]) -> FinSet:
    """A carrier labelled by the candidates when they are distinct, and by
    the default labels ``0 1 ...`` otherwise: built labels can collide, as
    ``{a,b}`` for the class of ``a`` and ``b`` and for the class of a point
    labelled ``a,b``.  Built unchecked: every candidate is a valid label
    copied from a carrier, or valid labels joined with ``{},()``, so
    distinctness and ``FinSet``'s normalisation of ``0 1 ...`` (and of no
    labels) to ``None`` are all that can fail."""
    labels = tuple(candidates)
    if len(set(labels)) != len(labels) or all(
        lab == str(i) for i, lab in enumerate(labels)
    ):
        labels = None
    return _built(FinSet, len(candidates), labels)


def _built(cls, *values):
    """An instance of the frozen dataclass ``cls`` with the given field
    values, made without running its ``__post_init__`` checks.  Only for
    library results whose construction proves what the checks would test,
    each named with its reason in the docstring of the function making it."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _memoised(compute):
    """``compute`` answering each owner once: the first call keeps its
    result, never ``None``, on the owner as ``_<name>``, outside the
    dataclass fields and never under a method's own name, which it would
    shadow.  Equality, hashing and ``repr`` are unchanged; no memo refers
    back to its owner, so an owner dies with its last reference; and no
    ``__wrapped__`` reaches past the memo."""
    key = "_" + compute.__name__

    def memo(owner):
        memos = owner.__dict__
        value = memos.get(key)
        if value is None:
            value = memos[key] = compute(owner)
        return value

    memo.__module__, memo.__name__ = compute.__module__, compute.__name__
    memo.__qualname__, memo.__doc__ = compute.__qualname__, compute.__doc__
    return memo


def _class_label(carrier: FinSet, members: Iterable[int]) -> str:
    """The label ``{a,b}`` of a class of elements of ``carrier``."""
    labels = carrier.labels
    if labels is None:
        return "{" + ",".join(map(str, members)) + "}"
    return "{" + ",".join(map(labels.__getitem__, members)) + "}"


@dataclass(frozen=True)
class FinSet:
    """A finite carrier: a size plus optional distinct printable labels.

    Labels that spell the default ``0 1 ...`` (and the empty tuple) are
    stored as ``None``, so a carrier equals itself read back from a document.
    """

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("carrier size must be nonnegative")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ValueError(
                    f"expected {self.size} labels, got {len(self.labels)}"
                )
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be pairwise distinct")
            for lab in self.labels:
                if not _is_label(lab):
                    raise ValueError(f"label {lab!r} is not a printable token")
            if all(lab == str(i) for i, lab in enumerate(self.labels)):
                object.__setattr__(self, "labels", None)

    def label(self, i: int) -> str:
        if not 0 <= i < self.size:
            raise IndexError(f"element {i} out of range 0..{self.size - 1}")
        return self.labels[i] if self.labels is not None else str(i)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))


@dataclass(frozen=True)
class Relation:
    """A binary relation ``src -> dst`` as a tuple of bit rows."""

    src: FinSet
    dst: FinSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.src.size:
            raise ValueError(
                f"expected {self.src.size} rows, got {len(self.rows)}"
            )
        bound = 1 << self.dst.size
        for i, row in enumerate(self.rows):
            if not 0 <= row < bound:
                raise ValueError(f"row {i} does not fit a {self.dst.size}-column relation")

    @classmethod
    def from_pairs(
        cls, src: FinSet, dst: FinSet, pairs: Iterable[tuple[int, int]]
    ) -> "Relation":
        rows = [0] * src.size
        for i, j in pairs:
            if not (0 <= i < src.size and 0 <= j < dst.size):
                raise ValueError(f"pair ({i}, {j}) out of range")
            rows[i] |= 1 << j
        return cls(src, dst, tuple(rows))

    @classmethod
    def diagonal(cls, carrier: FinSet) -> "Relation":
        return cls(carrier, carrier, tuple(1 << i for i in range(carrier.size)))

    @classmethod
    def empty(cls, src: FinSet, dst: FinSet) -> "Relation":
        return cls(src, dst, (0,) * src.size)

    @classmethod
    def full(cls, src: FinSet, dst: FinSet) -> "Relation":
        row = (1 << dst.size) - 1
        return cls(src, dst, (row,) * src.size)

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i in range(self.src.size) for j in _bits(self.rows[i])
        )

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @_memoised
    def columns(self) -> tuple[int, ...]:
        """Bit columns: bit ``i`` of ``columns()[j]`` iff ``(i, j)`` related,
        the backward replay of the relation's walk weighing row ``i`` by
        ``1 << i``; memoised."""
        return _or_cols(self, map((1).__lshift__, range(self.src.size)))

    def is_endorelation(self) -> bool:
        return self.src == self.dst

    def is_subrelation_of(self, other: "Relation") -> bool:
        _require_same_carriers(self, other)
        return _excess(self.rows, other.rows) is None


def _require_same_carriers(r: Relation, s: Relation) -> None:
    if r.src != s.src or r.dst != s.dst:
        raise ValueError("carrier mismatch: relations live on different carriers")


def _require_endorelation(r: Relation) -> None:
    if not r.is_endorelation():
        raise ValueError("carrier mismatch: expected an endorelation")


def compose_relations(r: Relation, s: Relation) -> Relation:
    """Relational composite: ``(x, z)`` iff some ``y`` has ``x r y`` and
    ``y s z``; one OR of rows of ``s`` per row of ``r``, built unchecked."""
    if r.dst != s.src:
        raise ValueError("carrier mismatch: middle carriers differ")
    return _built(Relation, r.src, s.dst, _or_rows(r, s.rows))


def opposite(r: Relation) -> Relation:
    """The transposed relation ``dst -> src``: its rows are the columns of
    ``r``, one per element of ``dst``, so it is built unchecked."""
    return _built(Relation, r.dst, r.src, r.columns())


def meet(r: Relation, s: Relation) -> Relation:
    """Pairwise conjunction of two relations on the same carriers; a meet of
    fitting rows fits, so it is built unchecked."""
    _require_same_carriers(r, s)
    return _built(Relation, r.src, r.dst, tuple(a & b for a, b in zip(r.rows, s.rows)))


@dataclass(frozen=True)
class SetMap:
    """A total map between finite carriers, stored as a value tuple."""

    dom: FinSet
    cod: FinSet
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.dom.size:
            raise ValueError(
                f"expected {self.dom.size} values, got {len(self.values)}"
            )
        for a, v in enumerate(self.values):
            if not 0 <= v < self.cod.size:
                raise ValueError(f"image of element {a} out of range: {v}")

    def __call__(self, a: int) -> int:
        return self.values[a]

    def image_mask(self) -> int:
        acc = 0
        for v in self.values:
            acc |= 1 << v
        return acc

    @_memoised
    def preimage_masks(self) -> tuple[int, ...]:
        """For each codomain element, the bit mask of its fibre; memoised."""
        return _fibres(self)

    def is_surjective(self) -> bool:
        return self.image_mask() == (1 << self.cod.size) - 1

    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)


def _fibres(f: SetMap) -> tuple[int, ...]:
    """The fibre masks of ``f``: the kernel behind ``SetMap.preimage_masks``."""
    masks = [0] * f.cod.size
    for a, v in enumerate(f.values):
        masks[v] |= 1 << a
    return tuple(masks)


def identity_map(carrier: FinSet) -> SetMap:
    """The identity of ``carrier``, in range by construction; built unchecked."""
    return _built(SetMap, carrier, carrier, tuple(range(carrier.size)))


def compose_maps(g: SetMap, f: SetMap) -> SetMap:
    """The composite ``g after f``: its values are values of ``g``, so it is
    built unchecked."""
    if f.cod != g.dom:
        raise ValueError("carrier mismatch: maps are not composable")
    return _built(SetMap, f.dom, g.cod, tuple(map(g.values.__getitem__, f.values)))


def graph_relation(f: SetMap) -> Relation:
    """The map ``f`` as a relation ``dom -> cod``: pairs ``(a, f(a))``, one
    in-range bit per row, so it is built unchecked."""
    return _built(Relation, f.dom, f.cod, tuple(1 << v for v in f.values))


def direct_image(f: SetMap, r: Relation) -> Relation:
    """Push an endorelation forward: ``(f(a), f(a'))`` for each ``(a, a')``.
    Every row is an OR of image points, so it is built unchecked."""
    _require_endorelation(r)
    if r.src != f.dom:
        raise ValueError("carrier mismatch: relation does not live on the map's domain")
    return _built(Relation, f.cod, f.cod, _push(f, _or_rows(r, [1 << v for v in f.values])))


def _push(f: SetMap, images: Sequence[int]) -> tuple[int, ...]:
    """The rows of a direct image along ``f``, given ``images[a]``, the
    image of row ``a``: row ``b`` is the OR of ``images[a]`` over the fibre
    of ``b``."""
    rows = [0] * f.cod.size
    for v, image in zip(f.values, images):
        rows[v] |= image
    return tuple(rows)


def inverse_image(f: SetMap, s: Relation) -> Relation:
    """Pull an endorelation back: ``(a, a')`` iff ``(f(a), f(a'))`` related.
    Every row is an OR of fibres of ``f``, so it is built unchecked."""
    _require_endorelation(s)
    if s.src != f.cod:
        raise ValueError("carrier mismatch: relation does not live on the map's codomain")
    return _built(Relation, f.dom, f.dom, _pull(f, s))


def _pull(f: SetMap, s: Relation) -> tuple[int, ...]:
    """The rows of an endorelation on ``f.cod`` pulled back along ``f``, by
    ORing the fibres over each distinct row: ``inverse_image``'s kernel."""
    pulled = _or_rows(s, f.preimage_masks())
    return tuple(map(pulled.__getitem__, f.values))


def kernel_pair(f: SetMap) -> Relation:
    """The equivalence relation ``(a, a')`` iff ``f(a) = f(a')``: row ``a``
    is the fibre through ``a``, so it is built unchecked."""
    pre = f.preimage_masks()
    return _built(Relation, f.dom, f.dom, tuple(map(pre.__getitem__, f.values)))


def _excess(rows: Sequence[int], bound: Sequence[int]) -> tuple[int, int] | None:
    """The first ``(i, j)`` with bit ``j`` in ``rows[i]`` but not in
    ``bound[i]``, or ``None`` when every row lies inside its bound: the one
    inclusion test behind every order check."""
    for i, row in enumerate(rows):
        extra = row & ~bound[i]
        if extra:
            return (i, (extra & -extra).bit_length() - 1)
    return None


@dataclass(frozen=True)
class FinPreorder:
    """A finite preorder: a carrier plus a reflexive transitive endorelation."""

    carrier: FinSet
    rel: Relation

    def __post_init__(self) -> None:
        failure = _preorder_failure(self.carrier, self.rel)
        if failure is not None:
            raise ValueError(failure)

    @classmethod
    def discrete(cls, n: int, labels: tuple[str, ...] | None = None) -> "FinPreorder":
        carrier = FinSet(n, labels)
        return cls(carrier, Relation.diagonal(carrier))

    @classmethod
    def codiscrete(cls, n: int, labels: tuple[str, ...] | None = None) -> "FinPreorder":
        carrier = FinSet(n, labels)
        return cls(carrier, Relation.full(carrier, carrier))

    @classmethod
    def chain(cls, n: int, labels: tuple[str, ...] | None = None) -> "FinPreorder":
        carrier = FinSet(n, labels)
        rows = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        return cls(carrier, Relation(carrier, carrier, rows))

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: tuple[str, ...] | None = None,
    ) -> "FinPreorder":
        carrier = FinSet(n, labels)
        return reflexive_transitive_closure(Relation.from_pairs(carrier, carrier, edges))

    @property
    def size(self) -> int:
        return self.carrier.size

    def leq(self, a: int, b: int) -> bool:
        return self.rel.has(a, b)

    def is_partial_order(self) -> bool:
        """Antisymmetry: every core class is a single element."""
        return len(_core_classes(self.rel)) == self.size

    def is_equivalence(self) -> bool:
        """Symmetry: every up-set, which holds the core class of its
        elements, holds no more elements than that class."""
        rows = self.rel.rows
        return all(rows[cls[0]].bit_count() == len(cls) for cls in _core_classes(self.rel))

    def is_discrete(self) -> bool:
        return self.rel == Relation.diagonal(self.carrier)


def _preorder_failure(carrier: FinSet, rel: Relation) -> str | None:
    """Why ``FinPreorder(carrier, rel)`` would be rejected, or ``None``: the
    relation must live on the carrier, be reflexive, and satisfy
    ``R∘R ⊆ R``, exact since ``_or_rows`` is exact on every relation."""
    if rel.src != carrier or rel.dst != carrier:
        return "relation does not live on the carrier"
    rows = rel.rows
    for i in range(carrier.size):
        if not rows[i] >> i & 1:
            return f"not reflexive: ({carrier.label(i)}, {carrier.label(i)}) missing"
    bad = _excess(_or_rows(rel, rows), rows)
    if bad is not None:
        i, k = bad
        j = next(j for j in _bits(rows[i]) if rows[j] >> k & 1)
        a, b, c = map(carrier.label, (i, j, k))
        return f"not transitive: ({a}, {b}) and ({b}, {c}) but not ({a}, {c})"
    return None


def _scc_classes(rows: Sequence[int]) -> list[int]:
    """The strongly connected components of the digraph ``rows``, as bit
    masks, in reverse topological order: a component comes after every
    other component it reaches.

    Tarjan's algorithm, iterative, with word-parallel edge scans.  A node's
    next tree edge is the lowest unvisited bit of its row.  ``below[p]``
    masks the nodes at stack positions under ``p``, and low-links are stack
    positions; on the stack, positions order nodes as Tarjan's indices do.
    The nodes under a node ``v`` stay on the stack for as long as ``v`` does,
    so its back edges can all be read when it finishes: the lowest of
    ``rows[v] & below[low[v]]``, found by bisecting the nested masks.  Each
    node costs O(log n) word operations, whatever its number of edges.
    """
    n = len(rows)
    pos = [0] * n
    low = [0] * n
    below = [0]
    visited = 0
    out = []
    for root in range(n):
        if visited >> root & 1:
            continue
        pos[root] = low[root] = 0
        path = [root]
        below.append(1 << root)
        visited |= 1 << root
        while path:
            v = path[-1]
            fresh = rows[v] & ~visited
            if fresh:
                bit = fresh & -fresh
                w = bit.bit_length() - 1
                pos[w] = low[w] = len(below) - 1
                below.append(below[-1] | bit)
                visited |= bit
                path.append(w)
                continue
            path.pop()
            lv = low[v]
            back = rows[v] & below[lv]
            if back:
                lo, hi = 0, lv
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if below[mid] & back:
                        hi = mid
                    else:
                        lo = mid
                lv = lo
            if lv == pos[v]:
                out.append(below[-1] & ~below[lv])
                del below[lv + 1 :]
            elif lv < low[path[-1]]:
                low[path[-1]] = lv
    return out


def reflexive_transitive_closure(r: Relation) -> FinPreorder:
    """The smallest preorder containing ``r``: reachability plus the diagonal.

    Condensation closure (Purdom 1970; Nuutila 1995): the components of
    ``_scc_classes`` come sinks first, so when a component is reached every
    component it points into is already closed.  Its row is its own mask
    plus the covered walk of ``_walk`` over its successors: the lowest
    unreached successor ``k`` ORs in its closed row, which is a subset of
    the answer, and counts all of it, and ``k`` itself, as reached.  A row
    holds its own element and the closed rows of its successors, so the
    result is a preorder, built unchecked, relation included.
    """
    _require_endorelation(r)
    rows = r.rows
    closed = [0] * len(rows)
    for comp in _scc_classes(rows):
        members = list(_bits(comp))
        acc = comp
        rem = 0
        for v in members:
            rem |= rows[v]
        rem &= ~comp
        while rem:
            low = rem & -rem
            k = low.bit_length() - 1
            acc |= closed[k]
            rem &= ~(closed[k] | low)
        for v in members:
            closed[v] = acc
    return _built(FinPreorder, r.src, _built(Relation, r.src, r.src, tuple(closed)))


@dataclass(frozen=True)
class PreordMorphism:
    """A monotone map between finite preorders."""

    src: FinPreorder
    dst: FinPreorder
    map: SetMap

    def __post_init__(self) -> None:
        if self.map.dom != self.src.carrier or self.map.cod != self.dst.carrier:
            raise ValueError("underlying map does not match the endpoints")
        # ≤_P ⊆ f*(≤_Q), exact since _or_rows is exact on every relation
        bad = _excess(self.src.rel.rows, _pulled_back(self))
        if bad is not None:
            a, a2 = bad
            values = self.map.values
            label, image = self.src.carrier.label, self.dst.carrier.label
            raise ValueError(
                f"not monotone: ({label(a)}, {label(a2)}) related but "
                f"({image(values[a])}, {image(values[a2])}) is not"
            )

    def __call__(self, a: int) -> int:
        return self.map.values[a]

    def is_surjective(self) -> bool:
        return self.map.is_surjective()

    def is_injective(self) -> bool:
        return self.map.is_injective()


@_memoised
def _pulled_back(f: PreordMorphism) -> tuple[int, ...]:
    """The rows of ``f*(≤_Q)``, which validation, fully-faithfulness and
    ``is_isomorphism`` test ``≤_P`` against; memoised."""
    return _pull(f.map, f.dst.rel)


def identity_morphism(p: FinPreorder) -> PreordMorphism:
    """The identity of ``p``, monotone by reflexivity; built unchecked."""
    return _built(PreordMorphism, p, p, identity_map(p.carrier))


def compose_morphisms(g: PreordMorphism, f: PreordMorphism) -> PreordMorphism:
    """The composite ``g after f``: a composite of monotone maps is
    monotone, so it is built unchecked."""
    if f.dst != g.src:
        raise ValueError("morphisms are not composable")
    return _built(PreordMorphism, f.src, g.dst, compose_maps(g.map, f.map))


def is_isomorphism(f: PreordMorphism) -> bool:
    """Bijective and order-reflecting, so the inverse map is monotone too."""
    if f.src.size != f.dst.size or not f.map.is_injective():
        return False
    return _pulled_back(f) == f.src.rel.rows


class Pullback(NamedTuple):
    object: FinPreorder
    p1: PreordMorphism
    p2: PreordMorphism


def preord_pullback(f: PreordMorphism, g: PreordMorphism) -> Pullback:
    """The pullback of ``f`` and ``g`` over their common codomain.

    Carrier: pairs ``(x, z)`` with ``f(x) = g(z)`` in lexicographic index
    order.  The order is componentwise, which makes both projections
    monotone and jointly order-reflecting.  The componentwise order of two
    preorders is a preorder on the pairs, and the projections send each pair
    to one of its components, so all three are built unchecked, with their
    relation, maps and carrier.
    """
    if f.dst != g.dst:
        raise ValueError("codomain mismatch: morphisms have different targets")
    x_obj, z_obj = f.src, g.src
    fibres = g.map.preimage_masks()
    pairs = [(x, z) for x, v in enumerate(f.map.values) for z in _bits(fibres[v])]
    xmask = [0] * x_obj.size
    zmask = [0] * z_obj.size
    for k, (x, z) in enumerate(pairs):
        xmask[x] |= 1 << k
        zmask[z] |= 1 << k
    rx = _or_rows(x_obj.rel, xmask)
    sz = _or_rows(z_obj.rel, zmask)
    xl = x_obj.carrier.labels or tuple(map(str, range(x_obj.size)))
    zl = z_obj.carrier.labels or tuple(map(str, range(z_obj.size)))
    carrier = _fresh_carrier([f"({xl[x]},{zl[z]})" for x, z in pairs])
    rows = tuple(rx[x] & sz[z] for x, z in pairs)
    obj = _built(FinPreorder, carrier, _built(Relation, carrier, carrier, rows))
    xs = _built(SetMap, carrier, x_obj.carrier, tuple(x for x, _ in pairs))
    zs = _built(SetMap, carrier, z_obj.carrier, tuple(z for _, z in pairs))
    p1 = _built(PreordMorphism, obj, x_obj, xs)
    p2 = _built(PreordMorphism, obj, z_obj, zs)
    return Pullback(obj, p1, p2)


def is_pullback_square(
    top: PreordMorphism,
    left: PreordMorphism,
    right: PreordMorphism,
    bottom: PreordMorphism,
) -> bool:
    """Whether a commuting square of monotone maps is a pullback.

    The square reads ``top: P -> Q``, ``left: P -> R``, ``right: Q -> S``,
    ``bottom: R -> S``.  True iff the comparison ``p ↦ (left p, top p)``
    into the pullback of ``bottom`` and ``right`` is an isomorphism of
    preorders, decided on the rows in hand.  It is a bijection onto the
    pairs over a common point iff its pairs are distinct and there are
    ``Σ_s |bottom⁻¹ s|·|right⁻¹ s|`` of them; it reflects the order iff
    ``≤_P = left*(≤_R) ∩ top*(≤_Q)``, the componentwise order pulled back.
    """
    if top.src != left.src or top.dst != right.src:
        raise ValueError("square endpoints do not match")
    if left.dst != bottom.src or right.dst != bottom.dst:
        raise ValueError("square endpoints do not match")
    down, across = right.map.values, bottom.map.values
    if [down[q] for q in top.map.values] != [across[r] for r in left.map.values]:
        raise ValueError("square does not commute")
    size = top.src.size
    pairs = set(zip(left.map.values, top.map.values))
    over = zip(bottom.map.preimage_masks(), right.map.preimage_masks())
    if len(pairs) != size or sum(r.bit_count() * q.bit_count() for r, q in over) != size:
        return False
    pulled = zip(_pulled_back(left), _pulled_back(top))
    return tuple(r & q for r, q in pulled) == top.src.rel.rows


def row_classes(rows: Sequence[int]) -> list[list[int]]:
    """Indices grouped by equal row, each row hashed once: classes ascending,
    in order of least member.  On an equivalence these are its classes."""
    groups: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row, []).append(i)
    return list(groups.values())


@_memoised
def _core_classes(rel: Relation) -> tuple[tuple[int, ...], ...]:
    """``row_classes`` of ``rel`` as tuples, memoised: the one grouping of a
    preorder's rows, into its core classes, as ``a ≤ b ≤ a`` exactly when
    ``a`` and ``b`` have equal up-sets (by transitivity and reflexivity)."""
    return tuple(map(tuple, row_classes(rel.rows)))


@_memoised
def _core(rel: Relation) -> Relation:
    """On a preorder, its symmetric core: each row the mask of its class in
    ``_core_classes``, with no row hashed again; built unchecked, memoised."""
    rows = [0] * rel.src.size
    for cls in _core_classes(rel):
        mask = sum(map((1).__lshift__, cls))
        for a in cls:
            rows[a] = mask
    return _built(Relation, rel.src, rel.src, tuple(rows))


def _require_partition(n: int, classes: Sequence[Sequence[int]]) -> None:
    """Raise ``ValueError`` unless ``classes`` are nonempty lists that
    together hold every element of ``0..n-1`` exactly once."""
    seen = bytearray(n)
    for cls in classes:
        if not cls:
            raise ValueError("not a partition: a class is empty")
        for a in cls:
            if not 0 <= a < n:
                raise ValueError(f"not a partition: element {a} out of range 0..{n - 1}")
            if seen[a]:
                raise ValueError(f"not a partition: element {a} is in two classes")
            seen[a] = 1
    missing = seen.find(0)
    if missing >= 0:
        raise ValueError(f"not a partition: element {missing} is in no class")


def _class_map(carrier: FinSet, classes: Sequence[Sequence[int]]) -> SetMap:
    """The map sending each element to the index of its class, onto a
    carrier labelled ``{a,b}`` by the members of each class, or by the
    default labels when two classes spell the same label (points ``a``,
    ``b`` and ``a,b``, with ``a`` and ``b`` in one class).  Unchecked:
    ``classes`` is a partition of ``carrier``."""
    values = [0] * carrier.size
    for ci, cls in enumerate(classes):
        for a in cls:
            values[a] = ci
    cod = _fresh_carrier([_class_label(carrier, cls) for cls in classes])
    return _built(SetMap, carrier, cod, tuple(values))


def _quotient(p: FinPreorder, classes: Sequence[Sequence[int]]) -> PreordMorphism:
    """``quotient`` by a partition of ``p`` into classes of equal rows,
    unchecked: the class map, its carrier and the pushed-forward relation
    in one pass.  For the library's own quotients, whose classes are such a
    partition by construction."""
    q = _class_map(p.carrier, classes)
    return _built(PreordMorphism, p, _built(FinPreorder, q.cod, direct_image(q, p.rel)), q)


def quotient(p: FinPreorder, classes: Sequence[Sequence[int]]) -> PreordMorphism:
    """The quotient of ``p`` by a partition that refines its symmetric core:
    the class map, as a monotone surjection onto the class carrier ordered
    by the pushed-forward relation.

    ``classes`` must be nonempty lists that together hold every element of
    ``p`` exactly once, and the members of a class must have equal rows
    (be related both ways); otherwise ``ValueError``.  Then ``a ≤ b`` iff
    ``[a] ≤ [b]``, since any member of a class may stand for it, so the
    pushed relation is a preorder and the class map monotone; both are
    built unchecked.
    """
    _require_partition(p.size, classes)
    rows = p.rel.rows
    for cls in classes:
        for a in cls:
            if rows[a] != rows[cls[0]]:
                raise ValueError(f"class of {cls[0]} leaves the symmetric core at {a}")
    return _quotient(p, classes)
