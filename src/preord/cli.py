"""Command-line surface.

Exit codes: 0 for success (and passing checks), 1 for a failing check or
property query, 2 for usage and input errors.  Defaults for the check cap
and seed come from ``PREORD_MAX_N`` and ``PREORD_SEED``; a value that is
not an integer, or a negative cap, is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import alexandroff as alx
from . import factorization as fct
from . import pretorsion as pre
from .docio import Document, DocumentError, load, save
from .relations import FinPreorder, _bits, _class_label

__all__ = ["main"]


class UsageError(Exception):
    """A bad option or environment value; reported with exit code 2."""


def _load(args) -> Document:
    return load(args.file, strict=getattr(args, "strict", False))


def _pick_object(doc: Document, name: str | None) -> tuple[str, FinPreorder]:
    if name is None:
        return doc.sole_object()
    if name not in doc.preorders:
        raise DocumentError(f"unknown object {name!r}")
    return name, doc.preorders[name]


def _pick_morphism(doc: Document, name: str):
    if name not in doc.morphisms:
        raise DocumentError(f"unknown morphism name {name!r}")
    return doc.morphisms[name]


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text``, ending in a newline, to ``out_path`` or stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_reflect(args) -> int:
    doc = _load(args)
    name, p = _pick_object(doc, args.object)
    poset, unit = pre.reflect(p)
    out = Document()
    out.add_preorder(name, p)
    out.add_preorder(f"{name}.quotient", poset)
    out.add_morphism(f"{name}.unit", unit, name, f"{name}.quotient")
    _emit(save(out), args.out)
    return 0


def cmd_sequence(args) -> int:
    doc = _load(args)
    name, p = _pick_object(doc, args.object)
    seq = pre.canonical_sequence(p)
    out = Document()
    out.add_preorder(f"{name}.torsion", seq.torsion_part.src)
    out.add_preorder(name, p)
    out.add_preorder(f"{name}.quotient", seq.free_part.dst)
    out.add_morphism(f"{name}.include", seq.torsion_part, f"{name}.torsion", name)
    out.add_morphism(f"{name}.unit", seq.free_part, name, f"{name}.quotient")
    classes = " ".join(_class_label(p.carrier, cls) for cls in seq.witness)
    _emit(f"# canonical short exact sequence of {name}\n"
          f"# classes: {classes}\n" + save(out), args.out)
    return 0


def cmd_cover(args) -> int:
    doc = _load(args)
    name, p = _pick_object(doc, args.object)
    total, projection = fct.effective_descent_cover(p)
    out = Document()
    out.add_preorder(name, p)
    out.add_preorder(f"{name}.cover", total)
    out.add_morphism(f"{name}.proj", projection, f"{name}.cover", name)
    # effective descent by construction; see ``effective_descent_cover``
    header = (
        f"# effective-descent cover of {name}: {total.size} = 3 * {p.size} elements\n"
        "# projection is effective descent: true\n"
    )
    _emit(header + save(out), args.out)
    return 0


def _format_counterexample(f, flags, flag: str, ce: tuple[int, ...]) -> str:
    src = f.src.carrier.label
    dst = f.dst.carrier.label
    if flag in ("fully_faithful", "in_M_star"):
        parts = [src(x) for x in ce]
    elif flag == "in_M":
        parts = [src(ce[0])] + [dst(x) for x in ce[1:]]
    elif flag in ("regular_epi", "effective_descent"):
        parts = [dst(x) for x in ce]
    elif flag == "in_E":
        # a fully-faithful failure names source elements; otherwise the
        # witness was translated back to target representatives
        parts = [src(x) if not flags.fully_faithful else dst(x) for x in ce]
    elif flag == "in_E_bar":
        parts = [dst(x) for x in ce] if len(ce) == 1 else [src(x) for x in ce]
    else:
        parts = [str(x) for x in ce]
    return "(" + ", ".join(parts) + ")"


def cmd_classify(args) -> int:
    doc = _load(args)
    f = _pick_morphism(doc, args.morphism)
    src_name, dst_name = doc.morphism_ends[args.morphism]
    flags = fct.classify(f)
    lines = [f"# classification of {args.morphism} : {src_name} -> {dst_name}"]
    for flag in fct._FLAG_CHECKS:
        value = getattr(flags, flag)
        line = f"{flag}: {str(value).lower()}"
        if not value:
            line += "  counterexample " + _format_counterexample(
                f, flags, flag, flags.counterexamples[flag]
            )
        lines.append(line)
    _emit("\n".join(lines), args.out)
    return 0


def cmd_factor(args) -> int:
    doc = _load(args)
    f = _pick_morphism(doc, args.morphism)
    src_name, dst_name = doc.morphism_ends[args.morphism]
    e_class, m_class, factor = fct.SYSTEMS[args.system]
    result = factor(f)
    name = args.morphism
    out = Document()
    out.add_preorder(src_name, f.src)
    out.add_preorder(f"{name}.mid", result.mid)
    if dst_name != src_name:
        out.add_preorder(dst_name, f.dst)
    out.add_morphism(f"{name}.e", result.e, src_name, f"{name}.mid")
    out.add_morphism(f"{name}.m", result.m, f"{name}.mid", dst_name)
    header = (
        f"# {result.system} factorization of {name} : {src_name} -> {dst_name}\n"
        f"# certificate e: {e_class} = true\n"
        f"# certificate m: {m_class} = true\n"
    )
    _emit(header + save(out), args.out)
    return 0


def cmd_topology(args) -> int:
    doc = _load(args)
    out = Document()
    if args.from_space:
        spaces = doc.spaces
        if args.object is not None:
            if args.object not in spaces:
                raise DocumentError(f"unknown space {args.object!r}")
            spaces = {args.object: spaces[args.object]}
        if not spaces:
            raise DocumentError("document contains no space blocks")
        for name, space in spaces.items():
            out.add_preorder(name, alx.space_to_preorder(space))
        checking = {name: alx.preorder_to_space(p) for name, p in out.preorders.items()}
    else:
        preorders = doc.preorders
        if args.object is not None:
            if args.object not in preorders:
                raise DocumentError(f"unknown object {args.object!r}")
            preorders = {args.object: preorders[args.object]}
        if not preorders:
            raise DocumentError("document contains no object blocks")
        for name, p in preorders.items():
            out.add_space(name, alx.preorder_to_space(p))
        checking = dict(out.spaces)
    if args.check:
        predicate = alx.is_T0 if args.check == "t0" else alx.is_partition
        verdicts = {name: predicate(space) for name, space in sorted(checking.items())}
        _emit(
            "\n".join(f"{name}: {args.check} = {str(v).lower()}" for name, v in verdicts.items()),
            args.out,
        )
        return 0 if all(verdicts.values()) else 1
    _emit(save(out), args.out)
    return 0


def _dot_id(text: str) -> str:
    """A quoted DOT ID, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_export(args) -> int:
    if not args.dot:
        print("error: only DOT export is available; pass --dot", file=sys.stderr)
        return 2
    doc = _load(args)
    name, p = _pick_object(doc, args.object)
    poset, unit = pre.reflect(p)
    fibres = unit.map.preimage_masks()
    lines = [f"digraph {_dot_id(name)} {{", "  compound=true;", "  rankdir=BT;"]
    for ci, fibre in enumerate(fibres):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f"    label={_dot_id(poset.carrier.label(ci))};")
        for a in _bits(fibre):
            lines.append(f"    {_dot_id(p.carrier.label(a))};")
        lines.append("  }")
    # the generators leaving a class are its covers, between least members
    for a, row in enumerate(pre.generators(p).rows):
        ca = unit(a)
        for b in _bits(row & ~fibres[ca]):
            cb = unit(b)
            tail, head = _dot_id(p.carrier.label(a)), _dot_id(p.carrier.label(b))
            lines.append(f"  {tail} -> {head} [ltail=cluster_{ca}, lhead=cluster_{cb}];")
    lines.append("}")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_check(args) -> int:
    max_n = _env_int("PREORD_MAX_N", 3) if args.max_n is None else args.max_n
    seed = _env_int("PREORD_SEED", 0) if args.seed is None else args.seed
    if max_n < 0:
        raise UsageError(f"the carrier bound must be nonnegative, got {max_n}")
    # imported here, so that the commands that never check do not compile them
    from . import oracle, suites

    try:
        report = suites.SUITES[args.suite](max_n=max_n, seed=seed)
    except oracle.EnumerationCapError as exc:
        raise UsageError(str(exc)) from None
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preord",
        description="Finite preorders: reflection onto partial orders, "
        "morphism classification, factorization systems, descent covers, "
        "and the Alexandroff-space dictionary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_object=True):
        sp.add_argument("file", help="input document")
        sp.add_argument("--strict", action="store_true",
                        help="require edge lists to be closed already")
        sp.add_argument("--out", help="write output to this path instead of stdout")
        if with_object:
            sp.add_argument("-o", "--object", help="object name (default: the only one)")

    sp = sub.add_parser("reflect", help="partial-order quotient and unit")
    add_common(sp)
    sp.set_defaults(func=cmd_reflect)

    sp = sub.add_parser("classify", help="all class flags of a morphism")
    add_common(sp, with_object=False)
    sp.add_argument("-m", "--morphism", required=True, help="morphism name")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("factor", help="factor a morphism through a middle object")
    add_common(sp, with_object=False)
    sp.add_argument("-m", "--morphism", required=True, help="morphism name")
    sp.add_argument(
        "--system",
        required=True,
        choices=tuple(fct.SYSTEMS),
        help="which factorization system to use",
    )
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("cover", help="3|B| effective-descent cover")
    add_common(sp)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("sequence", help="canonical short exact sequence")
    add_common(sp)
    sp.set_defaults(func=cmd_sequence)

    sp = sub.add_parser("topology", help="translate to or from Alexandroff spaces")
    add_common(sp)
    direction = sp.add_mutually_exclusive_group()
    direction.add_argument("--to-space", action="store_true", default=False)
    direction.add_argument("--from-space", action="store_true", default=False)
    sp.add_argument("--check", choices=("t0", "partition"),
                    help="evaluate a predicate instead of translating")
    sp.set_defaults(func=cmd_topology)

    sp = sub.add_parser("check", help="run a verification suite")
    sp.add_argument("--suite", required=True,
                    choices=("alexandroff", "factorization", "pretorsion", "stable-units"))
    sp.add_argument("--max-n", type=int,
                    help="carrier bound for exhaustive sweeps (default: PREORD_MAX_N or 3)")
    sp.add_argument("--seed", type=int,
                    help="seed for randomized sweeps (default: PREORD_SEED or 0)")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("export", help="DOT digraph of the quotient Hasse diagram")
    sp.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    add_common(sp)
    sp.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError, UnicodeDecodeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
