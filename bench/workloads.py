"""The three benchmark workloads and their seeded inputs.

Each workload turns a seed into inputs, runs one item at a time, and checks
every item's output outside the timed section.  The program sees only the
generated inputs.

* ``sparse-pipeline``: the whole question set on one large sparse map per
  item, in process.  Bit kernel, re-validation, transposes and pullbacks
  dominate; inputs are closed and in memory, so parsing is bypassed.
* ``dense-cli``: one ``preord`` process per command on a dense document, one
  after another (a closed loop with one client).  Every command re-parses
  and re-closes the whole document.
* ``exhaustive-verify``: the acceptance-gate regime.  Every monotone map
  between preorders on at most 3 points through the ``suites.check_*``
  helpers, plus the exhaustive stable-unit instances, in a seeded order.
  Per-object overhead and the reflection cache dominate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import random
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from preord import alexandroff as alx
from preord import docio
from preord import factorization as fct
from preord import oracle
from preord import pretorsion as pre
from preord import relations as rel
from preord import suites

import layers


def feed(h, obj) -> None:
    """Hash a library value structurally: dataclasses, tuples, dicts, scalars."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for x in obj:
            feed(h, x)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj):
            feed(h, k)
            feed(h, obj[k])
        h.update(b"}")
    else:
        h.update(repr(obj).encode() + b",")


# ---------------------------------------------------------------------------
# planted inputs


class Shape(NamedTuple):
    """A bow-tie preorder: one core class, an in-tree feeding it, an out-tree
    fed by it, and the remaining points joined only by sparse forward edges."""

    size: int
    core: int
    ins: int
    outs: int


def _bowtie(rng: random.Random, shape: Shape):
    """Split a shuffled carrier into core, in-tree, out-tree and rest, and
    draw the tree edges: ``(point, parent)`` with the parent drawn earlier."""
    points = list(range(shape.size))
    rng.shuffle(points)
    core = points[: shape.core]
    ins = points[shape.core : shape.core + shape.ins]
    outs = points[shape.core + shape.ins : shape.core + shape.ins + shape.outs]
    rest = points[shape.core + shape.ins + shape.outs :]
    in_tree = [(a, rng.choice(core + ins[:k])) for k, a in enumerate(ins)]
    out_tree = [(b, rng.choice(core + outs[:k])) for k, b in enumerate(outs)]
    return core, in_tree, out_tree, rest


def _tree_edges(core, in_tree, out_tree):
    cycle = [(core[k], core[(k + 1) % len(core)]) for k in range(len(core))]
    return cycle + in_tree + [(parent, b) for b, parent in out_tree]


def _forward_edges(rng: random.Random, points: list[int], count: int, allowed):
    """Up to ``count`` edges that go forward in the order of ``points``."""
    edges = []
    tries = 0
    while len(edges) < count and len(points) > 1 and tries < 50 * count:
        tries += 1
        i, j = sorted(rng.sample(range(len(points)), 2))
        if allowed(points[i], points[j]):
            edges.append((points[i], points[j]))
    return edges


def _closed(size: int, edges) -> rel.FinPreorder:
    carrier = rel.FinSet(size)
    return rel.reflexive_transitive_closure(rel.Relation.from_pairs(carrier, carrier, edges))


def planted_morphism(rng: random.Random, p_shape: Shape, q_shape: Shape,
                     rest_factor: float = 0.8) -> rel.PreordMorphism:
    """A monotone map between two bow-tie preorders, monotone by construction.

    The oracle's generators do not fit here: ``random_monotone_map`` falls
    back to a constant map at these sizes, and the related-pair count of
    ``random_preorder`` swings by a factor of three between seeds.  The
    planted shape keeps the cost of an item nearly the same on every seed.

    The source core maps into the target core.  Each in-tree point maps
    below the image of its parent and each out-tree point above it.  The
    remaining source points map anywhere, and a forward edge joins two of
    them only when their images are related, so the closure stays monotone.
    """
    core, in_tree, out_tree, rest = _bowtie(rng, q_shape)
    edges = _tree_edges(core, in_tree, out_tree)
    edges += _forward_edges(rng, rest, int(rest_factor * len(rest)), lambda a, b: True)
    q = _closed(q_shape.size, edges)
    q_rows, q_cols = q.rel.rows, q.rel.columns()
    q_core = core

    core, in_tree, out_tree, rest = _bowtie(rng, p_shape)
    values = [0] * p_shape.size
    for a in core:
        values[a] = rng.choice(q_core)
    for a, parent in in_tree:
        values[a] = rng.choice(_members(q_cols[values[parent]]))
    for b, parent in out_tree:
        values[b] = rng.choice(_members(q_rows[values[parent]]))
    for a in rest:
        values[a] = rng.randrange(q.size)
    edges = _tree_edges(core, in_tree, out_tree)
    edges += _forward_edges(rng, rest, int(rest_factor * len(rest)),
                            lambda a, b: q_rows[values[a]] >> values[b] & 1)
    p = _closed(p_shape.size, edges)
    return rel.PreordMorphism(p, q, rel.SetMap(p.carrier, q.carrier, tuple(values)))


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One seeded regime.  ``span`` is set by the harness: a no-op in
    untraced runs, the tracer's span in the traced run."""

    name = ""
    rss = "self"  # whose peak RSS is reported: "self" or "children"
    min_items = 1  # every run completes these; the outputs digest covers them
    cycle = 1  # runs stop only after a multiple of this many items
    trace_items: int | None = None  # items of the traced pass, None for all

    def __init__(self) -> None:
        self.tracer = None
        self.span = _no_span

    def setup(self, seed: int):
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Work that is neither set-up nor timed, such as reference outputs."""

    def items(self, state):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def digest(self, h, item, output) -> None:
        feed(h, output)

    def p50(self, latencies: list[float]) -> float:
        """The median latency of one item."""
        return statistics.median(latencies)

    def inputs_digest(self, state) -> str:
        raise NotImplementedError

    def setup_checks(self, state) -> list[str | None]:
        """Verdicts of checks made on the inputs at set-up, ``None`` for a pass."""
        return []

    def in_process(self) -> "Workload":
        """The work a traced run times with and without tracing."""
        return self

    def cleanup(self, state) -> None:
        pass


def _no_span(name: str):
    return contextlib.nullcontext()


class Answers(NamedTuple):
    reflection: object
    sequence: object
    classification: object
    reflective: object
    monotone_light: object
    cover: object
    t0: bool
    t0_reflection: object


class SparsePipeline(Workload):
    name = "sparse-pipeline"
    trace_items = 2

    def __init__(self, p: Shape = Shape(1000, 70, 200, 200), q: Shape = Shape(500, 5, 100, 100)):
        super().__init__()
        self.p, self.q = p, q

    def _input(self, seed: int, index: int) -> rel.PreordMorphism:
        return planted_morphism(random.Random(f"{self.name}:{seed}:{index}"), self.p, self.q)

    def setup(self, seed: int):
        return seed, self._input(seed, 0)

    def items(self, state):
        seed, first = state
        yield first
        for index in itertools.count(1):
            yield self._input(seed, index)

    def run(self, f):
        p = f.src
        space = alx.preorder_to_space(p)
        return Answers(
            pre.reflect(p),
            pre.canonical_sequence(p),
            fct.classify(f),
            fct.reflective_factorization(f),
            fct.monotone_light_factorization(f),
            fct.effective_descent_cover(p),
            alx.is_T0(space),
            alx.t0_reflection(space),
        )

    def check(self, f, out: Answers) -> str | None:
        failures = [
            suites.check_factorization_parts(f, out.reflective),
            suites.check_factorization_parts(f, out.monotone_light),
            suites.check_cover_parts(f.src, *out.cover),
        ]
        witness = oracle.reflect_by_quotient(f.src)
        if witness.poset != out.reflection.poset or witness.unit.map != out.reflection.unit.map:
            failures.append("reflect disagrees with reflect_by_quotient")
        return "; ".join(x for x in failures if x) or None

    def inputs_digest(self, state) -> str:
        h = hashlib.sha256()
        feed(h, state[1])
        return h.hexdigest()


# label -> CLI arguments after the subcommand's file argument
COMMANDS = {
    "reflect": ("reflect", "-o", "P"),
    "sequence": ("sequence", "-o", "P"),
    "classify": ("classify", "-m", "f"),
    "factor-reflective": ("factor", "-m", "f", "--system", "reflective"),
    "factor-monotone-light": ("factor", "-m", "f", "--system", "monotone-light"),
    "topology": ("topology",),
    "topology-check-t0": ("topology", "--check", "t0"),
    "export-dot": ("export", "--dot", "-o", "P"),
}
FLAGS = ("fully_faithful", "regular_epi", "in_E", "in_M", "in_E_bar", "in_M_star", "effective_descent")


def _dumps(preorders=(), spaces=(), morphisms=()) -> str:
    doc = docio.Document()
    for name, p in preorders:
        doc.add_preorder(name, p)
    for name, s in spaces:
        doc.add_space(name, s)
    for name, f, src, dst in morphisms:
        doc.add_morphism(name, f, src, dst)
    return docio.dumps(doc)


def expected_output(label: str, doc):
    """The in-process library result for one command: load, call, dump."""
    p, q, f = doc.preorders["P"], doc.preorders["Q"], doc.morphisms["f"]
    if label == "reflect":
        poset, unit = pre.reflect(p)
        return _dumps([("P", p), ("P.quotient", poset)], morphisms=[("P.unit", unit, "P", "P.quotient")])
    if label == "sequence":
        seq = pre.canonical_sequence(p)
        return _dumps(
            [("P.torsion", seq.torsion_part.src), ("P", p), ("P.quotient", seq.free_part.dst)],
            morphisms=[("P.include", seq.torsion_part, "P.torsion", "P"),
                       ("P.unit", seq.free_part, "P", "P.quotient")],
        )
    if label == "classify":
        flags = fct.classify(f)
        return {flag: getattr(flags, flag) for flag in FLAGS}
    if label.startswith("factor-"):
        if label == "factor-reflective":
            result = fct.reflective_factorization(f)
        else:
            result = fct.monotone_light_factorization(f)
        return _dumps([("P", p), ("f.mid", result.mid), ("Q", q)],
                      morphisms=[("f.e", result.e, "P", "f.mid"), ("f.m", result.m, "f.mid", "Q")])
    if label == "topology":
        return _dumps(spaces=[(name, alx.preorder_to_space(x)) for name, x in doc.preorders.items()])
    if label == "topology-check-t0":
        return {name: alx.is_T0(alx.preorder_to_space(x)) for name, x in doc.preorders.items()}
    if label == "export-dot":
        poset = pre.reflect(p).poset
        return poset.size, sorted(p.carrier.label(a) for a in range(p.size))
    raise ValueError(f"unknown command {label!r}")


def compare_output(label: str, expected, returncode: int, stdout: str) -> str | None:
    """Why a command's exit code or stdout disagrees with ``expected``."""
    want_code = 0
    if label == "topology-check-t0":
        want_code = 0 if all(expected.values()) else 1
    if returncode != want_code:
        return f"{label}: exit code {returncode}, expected {want_code}"
    lines = stdout.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if isinstance(expected, str):
        got = "".join(line + "\n" for line in body)
    elif label == "classify":
        got = {}
        for line in body:
            name, _, rest = line.partition(": ")
            got[name] = rest.split()[0] == "true"
    elif label == "topology-check-t0":
        got = {}
        for line in body:
            name, _, rest = line.partition(": t0 = ")
            got[name] = rest == "true"
    else:
        clusters = sum(line.startswith("  subgraph cluster_") for line in lines)
        nodes = sorted(line.strip()[1:-2] for line in lines if line.startswith('    "'))
        got = clusters, nodes
    return None if got == expected else f"{label}: output disagrees with the in-process result"


class DenseCli(Workload):
    name = "dense-cli"
    rss = "children"
    min_items = cycle = len(COMMANDS)  # whole cycles keep the command mix fixed
    trace_items = len(COMMANDS)

    def __init__(self, root: Path, p: Shape = Shape(500, 300, 95, 95), q: Shape = Shape(250, 5, 100, 100)):
        super().__init__()
        self.root = root
        self.p, self.q = p, q
        self.path = root / ".bench_out" / f"{self.name}-{id(self)}.preord"
        self.expected: dict = {}

    def setup(self, seed: int):
        f = planted_morphism(random.Random(f"{self.name}:{seed}"), self.p, self.q)
        text = _dumps([("P", f.src), ("Q", f.dst)], morphisms=[("f", f, "P", "Q")])
        self.path.parent.mkdir(exist_ok=True)
        self.path.write_text(text, encoding="utf-8")
        return text

    def prepare(self, text) -> None:
        doc = docio.loads(text)
        for label in COMMANDS:
            try:
                self.expected[label] = expected_output(label, doc)
            except Exception as exc:  # fails that command's checks instead of the run
                self.expected[label] = exc

    def items(self, text):
        return itertools.cycle(COMMANDS)

    def run(self, label: str):
        with self.span(f"cli.{label}"):
            done = subprocess.run(
                [sys.executable, "-m", "preord", COMMANDS[label][0], str(self.path), *COMMANDS[label][1:]],
                capture_output=True, env=layers.child_env(self.root), cwd=self.root, timeout=150,
            )
        if self.tracer is not None:
            self.tracer.counts["cli.stdout_bytes"] += len(done.stdout)
        return done.returncode, done.stdout, done.stderr

    def p50(self, latencies: list[float]) -> float:
        """The mean over the commands of each command's median latency.

        The commands take from 0.7 s to 1.6 s and a run holds only three or
        four cycles, so the median of all items is the latency of whichever
        command's runs happen to land in the middle, and it moves between
        runs far more than each command's own median does.
        """
        n = len(COMMANDS)
        return statistics.mean(statistics.median(latencies[i::n]) for i in range(n))

    def check(self, label: str, out) -> str | None:
        if isinstance(self.expected[label], Exception):
            return f"{label}: the in-process result raised {self.expected[label]!r}"
        returncode, stdout, stderr = out
        failure = compare_output(label, self.expected[label], returncode, stdout.decode("utf-8"))
        if failure and stderr:
            failure += ": " + stderr.decode("utf-8", "replace").strip()[-200:]
        return failure

    def digest(self, h, label: str, out) -> None:
        feed(h, (label, out[0]))
        h.update(out[1])

    def inputs_digest(self, text) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def in_process(self) -> "Workload":
        return DenseInProcess()

    def cleanup(self, text) -> None:
        self.path.unlink(missing_ok=True)


class DenseInProcess(Workload):
    """The ``dense-cli`` commands repeated in process: load, call, dump.

    Each command starts from an empty reflection cache, as a new process does.
    """

    name = "dense-cli-in-process"
    min_items = trace_items = len(COMMANDS)

    def __init__(self) -> None:
        super().__init__()
        self.results: dict = {}

    def items(self, text):
        return ((label, text) for label in COMMANDS)

    def run(self, item):
        label, text = item
        layers.clear_reflect_cache(self.tracer)
        self.results[label] = expected_output(label, docio.loads(text))
        return self.results[label]

    def check(self, item, output) -> str | None:
        return None

    def inputs_digest(self, text) -> str:
        return hashlib.sha256(text.encode()).hexdigest()


MAP_CHECKS = (
    "check_factorizations",
    "check_m_star_agreement",
    "check_e_detection",
    "check_e_bar_three_way",
    "check_m_naturality_square",
    "check_factorization_uniqueness",
    "check_naturality",
    "check_ideal_agreement",
    "check_classify_continuous_agreement",
)
OBJECT_CHECKS = (
    "check_reflection_parts",
    "check_sym_core",
    "check_decomposition_roundtrip",
    "check_cover",
    "check_topology_predicates",
    "check_t0_reflection_agreement",
    "check_space_roundtrip",
)


class ExhaustiveVerify(Workload):
    name = "exhaustive-verify"
    min_items = 5000
    trace_items = None

    def __init__(self, max_n: int = 3):
        super().__init__()
        self.max_n = max_n

    def setup(self, seed: int):
        sizes = range(self.max_n + 1)
        with self.span("oracle.enumerate"):
            objects = [p for n in sizes for p in oracle.enumerate_preorders(n)]
            by_closure = [p for n in sizes for p in oracle.enumerate_preorders_by_closure(n)]
            maps = [g for p in objects for q in objects for g in oracle.enumerate_morphisms(p, q)]
            stable = [
                (x, g)
                for x in objects
                for z in objects
                for g in oracle.enumerate_morphisms(z, pre.reflect(x).poset)
            ]
        agreement = None
        if sorted(p.rel.rows for p in objects) != sorted(p.rel.rows for p in by_closure):
            agreement = "enumeration by closure disagrees with direct enumeration"
        work = [(name, (f,)) for name in MAP_CHECKS for f in maps]
        work += [("check_stable_units", pair) for pair in stable]
        work += [(name, (p,)) for name in OBJECT_CHECKS for p in objects]
        order = list(range(len(work)))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return work, order, agreement

    def items(self, state):
        work, order, _ = state
        return ((index, *work[index]) for index in order)

    def run(self, item):
        _, name, args = item
        if name == "check_reflection_parts":
            (p,) = args
            args = (p, *pre.reflect(p))
        return getattr(suites, name)(*args)

    def check(self, item, out) -> str | None:
        return None if out is None else f"{item[1]}: {out}"

    def digest(self, h, item, out) -> None:
        feed(h, (item[0], item[1], out))

    def inputs_digest(self, state) -> str:
        h = hashlib.sha256()
        feed(h, state[1])
        return h.hexdigest()

    def setup_checks(self, state) -> list[str | None]:
        return [state[2]]


def make(name: str, root: Path, sizes: dict | None = None) -> Workload:
    """The workload called ``name``; ``sizes`` overrides its constructor defaults."""
    sizes = sizes or {}
    if name == SparsePipeline.name:
        return SparsePipeline(**sizes)
    if name == DenseCli.name:
        return DenseCli(root, **sizes)
    if name == ExhaustiveVerify.name:
        return ExhaustiveVerify(**sizes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (SparsePipeline.name, DenseCli.name, ExhaustiveVerify.name)
