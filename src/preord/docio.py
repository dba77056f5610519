"""Versioned text documents for preorders, spaces, and named morphisms.

The format is line-oriented.  Edge lists are generators by default and the
reflexive-transitive closure is applied on load; strict mode instead
requires the listed edges to already be reflexive and transitive.  Saving
emits the full closed relation, so saved documents load identically in
either mode.

    preord 1

    object P
      points a b c
      edge a b
      edge b a
      edge b c

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
from typing import TextIO

from .alexandroff import AlexandroffSpace
from .relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _is_label,
    reflexive_transitive_closure,
)

__all__ = ["Document", "DocumentError", "FORMAT_VERSION", "load", "loads", "save", "dumps"]

FORMAT_VERSION = 1


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
        _require_names(name, src, dst)
        if name in self.morphisms:
            raise DocumentError(f"duplicate morphism name {name!r}")
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
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    nbhds: list[tuple[str, list[str], int]] = field(default_factory=list)
    sends: list[tuple[str, str, int]] = field(default_factory=list)
    ends: tuple[str, str] | None = None


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _index_points(block: _Block) -> tuple[FinSet, dict[str, int]]:
    position: dict[str, int] = {}
    for lab in block.points:
        if lab in position:
            raise DocumentError(
                f"duplicate point {lab!r} in {block.kind} {block.name!r}",
                block.point_lines[lab],
            )
        position[lab] = len(position)
    try:
        carrier = FinSet(len(block.points), tuple(block.points))
    except ValueError as exc:
        raise DocumentError(str(exc), block.line) from exc
    return carrier, position


def _resolve(block: _Block, position: dict[str, int], label: str, lineno: int, what: str) -> int:
    if label not in position:
        raise DocumentError(
            f"unknown point {label!r} in {what} of {block.kind} {block.name!r}", lineno
        )
    return position[label]


def _build_preorder(block: _Block, strict: bool) -> FinPreorder:
    carrier, position = _index_points(block)
    pairs = []
    for a, b, lineno in block.edges:
        pairs.append(
            (
                _resolve(block, position, a, lineno, f"edge {a} {b}"),
                _resolve(block, position, b, lineno, f"edge {a} {b}"),
            )
        )
    raw = Relation.from_pairs(carrier, carrier, pairs)
    closed = reflexive_transitive_closure(raw)
    if strict and closed.rel != raw:
        for i, (have, want) in enumerate(zip(raw.rows, closed.rel.rows)):
            missing = want & ~have
            if missing:
                j = next(_bits(missing))
                raise DocumentError(
                    f"object {block.name!r} is not closed: missing edge "
                    f"{carrier.label(i)} {carrier.label(j)}",
                    block.line,
                )
    return closed


def _build_space(block: _Block) -> AlexandroffSpace:
    carrier, position = _index_points(block)
    nbhds = [1 << x for x in range(carrier.size)]
    for point, members, lineno in block.nbhds:
        x = _resolve(block, position, point, lineno, "nbhd")
        mask = 0
        for member in members:
            mask |= 1 << _resolve(block, position, member, lineno, f"nbhd of {point}")
        nbhds[x] = mask
    try:
        return AlexandroffSpace(carrier, tuple(nbhds))
    except ValueError as exc:
        raise DocumentError(
            f"space {block.name!r} is not Alexandroff: {exc}", block.line
        ) from exc


def _build_morphism(block: _Block, doc: Document) -> PreordMorphism:
    src_name, dst_name = block.ends
    if src_name not in doc.preorders:
        raise DocumentError(
            f"morphism {block.name!r} references unknown object {src_name!r}",
            block.line,
        )
    if dst_name not in doc.preorders:
        raise DocumentError(
            f"morphism {block.name!r} references unknown object {dst_name!r}",
            block.line,
        )
    src = doc.preorders[src_name]
    dst = doc.preorders[dst_name]
    src_pos = {src.carrier.label(i): i for i in range(src.size)}
    dst_pos = {dst.carrier.label(i): i for i in range(dst.size)}
    values: list[int | None] = [None] * src.size
    for a, b, lineno in block.sends:
        if a not in src_pos:
            raise DocumentError(
                f"unknown point {a!r} in send of morphism {block.name!r}", lineno
            )
        if b not in dst_pos:
            raise DocumentError(
                f"unknown point {b!r} in send of morphism {block.name!r}", lineno
            )
        if values[src_pos[a]] is not None:
            raise DocumentError(
                f"point {a!r} is sent twice in morphism {block.name!r}", lineno
            )
        values[src_pos[a]] = dst_pos[b]
    for i, v in enumerate(values):
        if v is None:
            raise DocumentError(
                f"morphism {block.name!r} does not send point "
                f"{src.carrier.label(i)!r}",
                block.line,
            )
    try:
        return PreordMorphism(src, dst, SetMap(src.carrier, dst.carrier, tuple(values)))
    except ValueError as exc:
        raise DocumentError(
            f"morphism {block.name!r} is not monotone: {exc}", block.line
        ) from exc


def loads(text: str, strict: bool = False) -> Document:
    """Parse document text; applies closure to edge lists unless strict."""
    doc = Document()
    blocks: list[_Block] = []
    current: _Block | None = None
    version_seen = False
    for lineno, toks in _tokenize(text):
        kw = toks[0]
        if not version_seen:
            if kw != "preord" or len(toks) != 2:
                raise DocumentError("expected version header 'preord 1'", lineno)
            if toks[1] != str(FORMAT_VERSION):
                raise DocumentError(
                    f"unsupported format version {toks[1]!r}", lineno
                )
            version_seen = True
            continue
        if kw in ("object", "space"):
            if len(toks) != 2:
                raise DocumentError(f"'{kw}' takes exactly one name", lineno)
            current = _Block(kw, toks[1], lineno)
            blocks.append(current)
        elif kw == "morphism":
            if len(toks) != 4:
                raise DocumentError(
                    "'morphism' takes a name, a source object and a target object",
                    lineno,
                )
            current = _Block(kw, toks[1], lineno)
            current.ends = (toks[2], toks[3])
            blocks.append(current)
        elif kw == "points":
            if current is None or current.kind not in ("object", "space"):
                raise DocumentError("'points' outside an object or space block", lineno)
            for lab in toks[1:]:
                current.points.append(lab)
                current.point_lines.setdefault(lab, lineno)
        elif kw == "edge":
            if current is None or current.kind != "object":
                raise DocumentError("'edge' outside an object block", lineno)
            if len(toks) != 3:
                raise DocumentError("'edge' takes exactly two points", lineno)
            current.edges.append((toks[1], toks[2], lineno))
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
    if not version_seen:
        raise DocumentError("empty document: missing version header 'preord 1'")
    for block in blocks:
        if block.kind == "object":
            doc.add_preorder(block.name, _build_preorder(block, strict))
        elif block.kind == "space":
            doc.add_space(block.name, _build_space(block))
    for block in blocks:
        if block.kind == "morphism":
            doc.add_morphism(block.name, _build_morphism(block, doc), *block.ends)
    return doc


def load(source: str | os.PathLike | TextIO, strict: bool = False) -> Document:
    """Load a document from a path or a readable stream."""
    if hasattr(source, "read"):
        return loads(source.read(), strict)
    with open(source, "r", encoding="utf-8") as handle:
        return loads(handle.read(), strict)


def dumps(doc: Document) -> str:
    """Canonical text: sorted names, index-ordered points, sorted edges."""
    out = [f"preord {FORMAT_VERSION}", ""]
    for name in sorted(doc.preorders):
        p = doc.preorders[name]
        out.append(f"object {name}")
        out.append(("  points " + " ".join(p.carrier.label(i) for i in range(p.size))).rstrip())
        for i, j in p.rel.pairs():
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
            out.append(
                f"  send {f.src.carrier.label(a)} {f.dst.carrier.label(f(a))}"
            )
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
