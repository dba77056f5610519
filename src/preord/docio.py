"""Versioned text documents for preorders, spaces, and named morphisms.

The format is line-oriented.  An object's ``edge`` lines are generators:
the loader applies the reflexive-transitive closure.  The header fixes
what ``strict`` mode asks of them.

* ``preord 2``, which ``dumps`` writes: the edges must be exactly the
  canonical generators of their closure (``pretorsion.generators``), one
  cycle through each core class of two or more members and one edge
  between the least members of each covering pair of classes.  The first
  edge that is not a generator is named.
* ``preord 1``: the edges must already be reflexive and transitive.  The
  first pair of the closure that is not an edge is named.

Either way the non-strict load of a block is the closure of its edges, so a
``preord 1`` document of closed pairs and the ``preord 2`` document
``dumps`` writes for it load to the same objects, in both modes.

The loader reads the text in one pass, keeping each block's lines, then
ORs every edge straight into the bit row of its first point and closes the
rows; the writer emits each generator row as its edge lines.  Every syntax
error in the document is reported before any unknown point, and a block's
``points`` may follow its ``edge`` lines.  Every point name of an ``edge``,
``nbhd`` or ``send`` line is looked up in the index ``_index_points`` built
once for its object or space, and only ``_resolve`` reports one missing.
``oracle.dumps_by_pairs`` is the per-pair writer the fast one is checked
against.

    preord 2

    object P
      points a b c
      edge a b
      edge a c
      edge b a

    space S
      points x y
      nbhd x x
      nbhd y x y

    morphism f P Q
      send a x
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, TextIO

from .pretorsion import generators
from .relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _excess,
    _is_label,
    reflexive_transitive_closure,
)

__all__ = ["Document", "DocumentError", "FORMAT_VERSION", "load", "loads", "save", "dumps"]

FORMAT_VERSION = 2
_READ_VERSIONS = ("1", "2")
# ``bin(mask)[:1:-1].encode()`` spells the bits of ``mask`` lowest first as
# the bytes ``0`` and ``1``; this table turns them into selectors 0 and 1
_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")
_Index = dict[str, int]  # a block's points by name, numbered in order


class DocumentError(Exception):
    """A malformed document; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class Document:
    """Named preorders, named spaces, and named morphisms between preorders."""

    preorders: dict[str, FinPreorder] = field(default_factory=dict)
    spaces: dict[str, AlexandroffSpace] = field(default_factory=dict)
    morphisms: dict[str, PreordMorphism] = field(default_factory=dict)
    morphism_ends: dict[str, tuple[str, str]] = field(default_factory=dict)

    def sole_object(self) -> tuple[str, FinPreorder]:
        if len(self.preorders) != 1:
            raise DocumentError(
                f"expected exactly one object, found {len(self.preorders)}; "
                "name one explicitly"
            )
        return next(iter(self.preorders.items()))

    def add_preorder(self, name: str, p: FinPreorder) -> None:
        _require_names(name)
        if name in self.preorders or name in self.spaces:
            raise DocumentError(f"duplicate name {name!r}")
        self.preorders[name] = p

    def add_space(self, name: str, s: AlexandroffSpace) -> None:
        _require_names(name)
        if name in self.preorders or name in self.spaces:
            raise DocumentError(f"duplicate name {name!r}")
        self.spaces[name] = s

    def add_morphism(self, name: str, f: PreordMorphism, src: str, dst: str) -> None:
        """Add ``f`` between objects already added as ``src`` and ``dst``,
        so that the saved text names ends it can load back."""
        _require_names(name, src, dst)
        if name in self.morphisms:
            raise DocumentError(f"duplicate morphism name {name!r}")
        for end, obj, role in ((src, f.src, "source"), (dst, f.dst, "target")):
            if end not in self.preorders:
                raise DocumentError(f"morphism {name!r} references unknown object {end!r}")
            if self.preorders[end] != obj:
                raise DocumentError(f"object {end!r} is not the {role} of morphism {name!r}")
        self.morphisms[name] = f
        self.morphism_ends[name] = (src, dst)


def _require_names(*names: str) -> None:
    """Names follow the label rule, so that saved text parses back."""
    for name in names:
        if not _is_label(name):
            raise DocumentError(f"name {name!r} is not a printable token")


@dataclass
class _Block:
    kind: str
    name: str
    line: int
    points: list[str] = field(default_factory=list)
    point_lines: dict[str, int] = field(default_factory=dict)
    # one entry per edge line, in three flat lists: tuples would each be
    # tracked by the garbage collector, which costs more than the appends
    edge_from: list[str] = field(default_factory=list)
    edge_to: list[str] = field(default_factory=list)
    edge_lines: list[int] = field(default_factory=list)
    nbhds: list[tuple[str, list[str], int]] = field(default_factory=list)
    sends: list[tuple[str, str, int]] = field(default_factory=list)
    ends: tuple[str, str] | None = None


def _index_points(block: _Block) -> tuple[FinSet, _Index]:
    """Once the points are distinct ``FinSet`` takes them: each is a token cut at ``#``."""
    position: _Index = {}
    for lab in block.points:
        if lab in position:
            raise DocumentError(
                f"duplicate point {lab!r} in {block.kind} {block.name!r}",
                block.point_lines[lab],
            )
        position[lab] = len(position)
    return FinSet(len(block.points), tuple(block.points)), position


def _resolve(block: _Block, position: _Index, label: str, lineno: int, what: str) -> int:
    if label not in position:
        raise DocumentError(
            f"unknown point {label!r} in {what} of {block.kind} {block.name!r}", lineno
        )
    return position[label]


def _build_preorder(block: _Block, strict: bool, version: str) -> tuple[FinPreorder, _Index]:
    """OR each edge into the row of its first point, then close the rows.

    Each point's bit is made once.  An unknown point stops the loop with a
    ``KeyError``; the edges are then walked again with ``_resolve``, which
    reports the first unknown point in document order.

    In strict mode a ``preord 1`` block must list its closure, so the first
    pair of the closure that is not an edge is named.  A ``preord 2`` block
    must list the generators of its closure, so the first edge that is not
    a generator is named; none can then be missing.  Every edge list with
    closure ``q`` holds at least ``|C|`` edges inside each class ``C`` of
    two or more members, which stays strongly connected only by paths inside
    it, and an edge from ``[c]`` to ``[d]`` for each cover ``[c] < [d]``;
    ``generators(q)`` has exactly that many, so a part of it that closes to
    ``q`` is all of it.
    """
    carrier, position = _index_points(block)
    bit = {lab: 1 << i for lab, i in position.items()}
    rows = [0] * carrier.size
    try:
        for a, b in zip(block.edge_from, block.edge_to):
            rows[position[a]] |= bit[b]
    except KeyError:
        for a, b, lineno in zip(block.edge_from, block.edge_to, block.edge_lines):
            _resolve(block, position, a, lineno, f"edge {a} {b}")
            _resolve(block, position, b, lineno, f"edge {a} {b}")
        raise
    raw = Relation(carrier, carrier, tuple(rows))
    closed = reflexive_transitive_closure(raw)
    if not strict:
        return closed, position
    if version == "1":
        edge, problem = _excess(closed.rel.rows, raw.rows), "not closed: missing"
    else:
        edge, problem = _excess(raw.rows, generators(closed).rows), "not in generator form: extra"
    if edge is not None:
        i, j = edge
        raise DocumentError(
            f"object {block.name!r} is {problem} edge {carrier.label(i)} {carrier.label(j)}",
            block.line,
        )
    return closed, position


def _build_space(block: _Block) -> AlexandroffSpace:
    from .alexandroff import AlexandroffSpace

    carrier, position = _index_points(block)
    nbhds = [1 << x for x in range(carrier.size)]
    for point, members, lineno in block.nbhds:
        x = _resolve(block, position, point, lineno, "nbhd")
        mask = 0
        try:
            for member in members:
                mask |= 1 << position[member]
        except KeyError:
            for member in members:
                _resolve(block, position, member, lineno, f"nbhd of {point}")
            raise
        nbhds[x] = mask
    try:
        return AlexandroffSpace(carrier, tuple(nbhds))
    except ValueError as exc:
        raise DocumentError(
            f"space {block.name!r} is not Alexandroff: {exc}", block.line
        ) from exc


def _build_morphism(block: _Block, doc: Document, positions: dict[str, _Index]) -> PreordMorphism:
    for end in block.ends:
        if end not in doc.preorders:
            raise DocumentError(
                f"morphism {block.name!r} references unknown object {end!r}", block.line
            )
    src, dst = (doc.preorders[end] for end in block.ends)
    src_pos, dst_pos = (positions[end] for end in block.ends)
    values: list[int | None] = [None] * src.size
    for a, b, lineno in block.sends:
        i = _resolve(block, src_pos, a, lineno, "send")
        j = _resolve(block, dst_pos, b, lineno, "send")
        if values[i] is not None:
            raise DocumentError(f"point {a!r} is sent twice in morphism {block.name!r}", lineno)
        values[i] = j
    if None in values:
        missing = src.carrier.label(values.index(None))
        raise DocumentError(f"morphism {block.name!r} does not send point {missing!r}", block.line)
    try:
        return PreordMorphism(src, dst, SetMap(src.carrier, dst.carrier, tuple(values)))
    except ValueError as exc:
        raise DocumentError(f"morphism {block.name!r} is {exc}", block.line) from exc


def _add(block: _Block, add: Callable[..., None], *args) -> None:
    """``add(block.name, *args)`` for one of ``Document.add_*``, whose
    refusal of a duplicate name is reported at the block's line."""
    try:
        add(block.name, *args)
    except DocumentError as exc:
        raise DocumentError(str(exc), block.line) from exc


def loads(text: str, strict: bool = False) -> Document:
    """Parse document text: each object is the closure of its edges, which
    strict mode checks against the header (see the module docstring).

    One pass over the lines collects each block's lines and reports every
    syntax error; the objects, spaces and then morphisms are built after it,
    in document order.  ``edge`` is tested first since it is almost every
    line of a large document, and only lines holding ``#`` are cut at it.
    """
    numbered = enumerate(text.splitlines(), 1)
    for lineno, raw in numbered:
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] != "preord" or len(toks) != 2:
            raise DocumentError(f"expected version header 'preord {FORMAT_VERSION}'", lineno)
        if toks[1] not in _READ_VERSIONS:
            raise DocumentError(f"unsupported format version {toks[1]!r}", lineno)
        version = toks[1]
        break
    else:
        raise DocumentError(f"empty document: missing version header 'preord {FORMAT_VERSION}'")
    blocks: list[_Block] = []
    current: _Block | None = None
    obj: _Block | None = None  # the current block when it is an object
    for lineno, raw in numbered:
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        toks = raw.split()
        if not toks:
            continue
        kw = toks[0]
        if kw == "edge":
            if obj is None:
                raise DocumentError("'edge' outside an object block", lineno)
            if len(toks) != 3:
                raise DocumentError("'edge' takes exactly two points", lineno)
            obj.edge_from.append(toks[1])
            obj.edge_to.append(toks[2])
            obj.edge_lines.append(lineno)
        elif kw in ("object", "space"):
            if len(toks) != 2:
                raise DocumentError(f"'{kw}' takes exactly one name", lineno)
            current = _Block(kw, toks[1], lineno)
            blocks.append(current)
            obj = current if kw == "object" else None
        elif kw == "morphism":
            if len(toks) != 4:
                raise DocumentError(
                    "'morphism' takes a name, a source object and a target object",
                    lineno,
                )
            current = _Block(kw, toks[1], lineno)
            current.ends = (toks[2], toks[3])
            blocks.append(current)
            obj = None
        elif kw == "points":
            if current is None or current.kind not in ("object", "space"):
                raise DocumentError("'points' outside an object or space block", lineno)
            for lab in toks[1:]:
                current.points.append(lab)
                current.point_lines.setdefault(lab, lineno)
        elif kw == "nbhd":
            if current is None or current.kind != "space":
                raise DocumentError("'nbhd' outside a space block", lineno)
            if len(toks) < 2:
                raise DocumentError("'nbhd' takes a point and its members", lineno)
            current.nbhds.append((toks[1], toks[2:], lineno))
        elif kw == "send":
            if current is None or current.kind != "morphism":
                raise DocumentError("'send' outside a morphism block", lineno)
            if len(toks) != 3:
                raise DocumentError("'send' takes exactly two points", lineno)
            current.sends.append((toks[1], toks[2], lineno))
        else:
            raise DocumentError(f"unknown keyword {kw!r}", lineno)
    doc = Document()
    positions: dict[str, _Index] = {}
    for block in blocks:
        if block.kind == "object":
            p, positions[block.name] = _build_preorder(block, strict, version)
            _add(block, doc.add_preorder, p)
        elif block.kind == "space":
            _add(block, doc.add_space, _build_space(block))
    for block in blocks:
        if block.kind == "morphism":
            _add(block, doc.add_morphism, _build_morphism(block, doc, positions), *block.ends)
    return doc


def load(source: str | os.PathLike | TextIO, strict: bool = False) -> Document:
    """Load a document from a path or a readable stream."""
    if hasattr(source, "read"):
        return loads(source.read(), strict)
    with open(source, "r", encoding="utf-8") as handle:
        return loads(handle.read(), strict)


def _labels(carrier: FinSet) -> list[str]:
    return [carrier.label(i) for i in range(carrier.size)]


def dumps(doc: Document) -> str:
    """Canonical ``preord 2`` text: sorted names, index-ordered points, and
    each object's generators as sorted edges.

    Each carrier's labels are looked up once; an object's generators are
    written row by row, one line per set bit, which is the order of sorted
    pairs.  A space's neighbourhoods are dense rows, so each one selects its
    members from the labels by its bits at C speed.
    """
    out = [f"preord {FORMAT_VERSION}", ""]
    for name in sorted(doc.preorders):
        p = doc.preorders[name]
        labels = _labels(p.carrier)
        out.append(f"object {name}")
        out.append(("  points " + " ".join(labels)).rstrip())
        for i, row in enumerate(generators(p).rows):
            head = f"  edge {labels[i]} "
            out += [head + labels[j] for j in _bits(row)]
        out.append("")
    for name in sorted(doc.spaces):
        s = doc.spaces[name]
        labels = _labels(s.carrier)
        out.append(f"space {name}")
        out.append(("  points " + " ".join(labels)).rstrip())
        for x, nbhd in enumerate(s.min_nbhd):
            selectors = bin(nbhd)[:1:-1].encode().translate(_BIT_SELECTORS)
            members = " ".join(compress(labels, selectors))
            out.append(f"  nbhd {labels[x]} {members}")
        out.append("")
    for name in sorted(doc.morphisms):
        f = doc.morphisms[name]
        src_name, dst_name = doc.morphism_ends[name]
        dst_labels = _labels(f.dst.carrier)
        out.append(f"morphism {name} {src_name} {dst_name}")
        out += [
            f"  send {a} {dst_labels[b]}"
            for a, b in zip(_labels(f.src.carrier), f.map.values)
        ]
        out.append("")
    return "\n".join(out)


def save(doc: Document, target: str | os.PathLike | TextIO | None = None) -> str:
    """Serialize; writes to the path or stream when one is given."""
    text = dumps(doc)
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
    return text
