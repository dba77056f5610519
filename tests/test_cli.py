import argparse
import ast
import hashlib
import inspect
import random
import subprocess
import sys
from pathlib import Path

import pytest

import preord
from preord.cli import build_parser, main
from preord.docio import Document, dumps, loads
from preord.relations import FinPreorder, PreordMorphism
from preord import factorization, oracle, suites
from preord.suites import (
    SuiteReport,
    _sweep,
    suite_alexandroff,
    suite_factorization,
    suite_pretorsion,
    suite_stable_units,
)

RUNNING = """\
preord 1

object P
  points a b c
  edge a b
  edge b a
  edge b c
"""

WITH_MORPHISM = RUNNING + """
object Q
  points x y
  edge x y

morphism f P Q
  send a x
  send b x
  send c y
"""

RUNNING_DOT = """\
digraph "P" {
  compound=true;
  rankdir=BT;
  subgraph cluster_0 {
    label="{a,b}";
    "a";
    "b";
  }
  subgraph cluster_1 {
    label="{c}";
    "c";
  }
  "a" -> "c" [ltail=cluster_0, lhead=cluster_1];
}
"""


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "running.preord"
    path.write_text(RUNNING)
    return str(path)


@pytest.fixture
def morphism_file(tmp_path):
    path = tmp_path / "morphism.preord"
    path.write_text(WITH_MORPHISM)
    return str(path)


class TestReflect:
    def test_quotient_is_two_chain(self, running_file, capsys):
        assert main(["reflect", running_file]) == 0
        out = capsys.readouterr().out
        doc = loads(out)
        quotient = doc.preorders["P.quotient"]
        assert quotient.size == 2
        assert quotient.rel.pairs() == ((0, 0), (0, 1), (1, 1))
        assert doc.morphisms["P.unit"].map.values == (0, 0, 1)

    def test_deterministic(self, running_file, capsys):
        main(["reflect", running_file])
        first = capsys.readouterr().out
        main(["reflect", running_file])
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, running_file, tmp_path, capsys):
        target = tmp_path / "out.preord"
        assert main(["reflect", running_file, "--out", str(target)]) == 0
        assert "P.quotient" in target.read_text()

    def test_ambiguous_object(self, morphism_file):
        assert main(["reflect", morphism_file]) == 2

    def test_named_object(self, morphism_file, capsys):
        assert main(["reflect", morphism_file, "-o", "Q"]) == 0
        assert "Q.quotient" in capsys.readouterr().out


class TestClassify:
    def test_flags_printed(self, morphism_file, capsys):
        # f is the reflection unit of the running example, so it is fully
        # faithful and inverted, but not a covering: the fibre {a,b} is codiscrete
        assert main(["classify", morphism_file, "-m", "f"]) == 0
        out = capsys.readouterr().out
        assert "fully_faithful: true" in out
        assert "in_E: true" in out
        assert "in_M_star: false  counterexample (a, b)" in out
        assert "effective_descent: true" in out

    def test_unknown_morphism(self, morphism_file, capsys):
        assert main(["classify", morphism_file, "-m", "nope"]) == 2
        assert "unknown morphism" in capsys.readouterr().err

    def test_source_side_counterexamples_label_safely(self, tmp_path, capsys):
        # surjective but not fully faithful onto a smaller carrier: the
        # witness pair lives in the source and must use source labels
        text = """\
preord 1
object A
  points p q
object B
  points z
morphism g A B
  send p z
  send q z
"""
        path = tmp_path / "labels.preord"
        path.write_text(text)
        assert main(["classify", str(path), "-m", "g"]) == 0
        out = capsys.readouterr().out
        assert "in_E_bar: false  counterexample (p, q)" in out
        assert "in_E: false  counterexample (p, q)" in out

    def test_missed_class_names_a_target_point(self, tmp_path, capsys):
        # fully faithful, but the class of y holds no image point
        text = """\
preord 2
object A
  points a
object B
  points x y
morphism g A B
  send a x
"""
        path = tmp_path / "missed.preord"
        path.write_text(text)
        assert main(["classify", str(path), "-m", "g"]) == 0
        out = capsys.readouterr().out
        assert "fully_faithful: true" in out
        assert "in_E: false  counterexample (y)" in out


class TestFactor:
    def test_reflective(self, morphism_file, capsys):
        assert main(["factor", morphism_file, "-m", "f", "--system", "reflective"]) == 0
        out = capsys.readouterr().out
        assert "# certificate e: in_E = true" in out
        assert "# certificate m: in_M = true" in out
        doc = loads("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert "f.mid" in doc.preorders

    def test_monotone_light(self, morphism_file, capsys):
        assert main(["factor", morphism_file, "-m", "f", "--system", "monotone-light"]) == 0
        out = capsys.readouterr().out
        assert "# certificate e: in_E_bar = true" in out
        assert "# certificate m: in_M_star = true" in out

    def test_covering_input_gets_identity_like_first_leg(self, tmp_path, capsys):
        text = """\
preord 1
object A
  points a b
  edge a b
object B
  points x y z
  edge x y
  edge y z
morphism g A B
  send a x
  send b z
"""
        path = tmp_path / "cover.preord"
        path.write_text(text)
        assert main(["factor", str(path), "-m", "g", "--system", "monotone-light"]) == 0
        out = capsys.readouterr().out
        doc = loads("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert doc.preorders["g.mid"].size == 2
        assert doc.morphisms["g.e"].map.values == (0, 1)

    def test_missing_system_flag(self, morphism_file):
        with pytest.raises(SystemExit) as err:
            main(["factor", morphism_file, "-m", "f"])
        assert err.value.code == 2

    def test_system_names_are_the_factorization_systems(self, morphism_file, capsys):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        system = next(a for a in commands.choices["factor"]._actions if a.dest == "system")
        assert tuple(system.choices) == tuple(factorization.SYSTEMS)
        with pytest.raises(SystemExit) as err:
            main(["factor", morphism_file, "-m", "f", "--system", "nope"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "preord factor: error: argument --system: invalid choice: 'nope' "
            "(choose from 'reflective', 'monotone-light')"
        )


class TestCoverSequence:
    def test_cover_size(self, running_file, capsys):
        assert main(["cover", running_file]) == 0
        out = capsys.readouterr().out
        assert "3 * 3 elements" in out
        assert "# projection is effective descent: true" in out
        doc = loads("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert doc.preorders["P.cover"].size == 9

    def test_sequence(self, running_file, capsys):
        assert main(["sequence", running_file]) == 0
        out = capsys.readouterr().out
        assert "# classes: {a,b} {c}" in out
        doc = loads("\n".join(l for l in out.splitlines() if not l.startswith("#")))
        assert set(doc.morphisms) == {"P.include", "P.unit"}
        assert doc.preorders["P.torsion"].is_equivalence()


class TestTopology:
    def test_to_space(self, running_file, capsys):
        assert main(["topology", running_file]) == 0
        out = capsys.readouterr().out
        assert "space P" in out
        assert "nbhd c a b c" in out

    def test_from_space_round_trip(self, running_file, tmp_path, capsys):
        main(["topology", running_file])
        space_text = capsys.readouterr().out
        space_path = tmp_path / "space.preord"
        space_path.write_text(space_text)
        assert main(["topology", str(space_path), "--from-space"]) == 0
        back = loads(capsys.readouterr().out)
        assert back.preorders["P"] == loads(RUNNING).preorders["P"]

    def test_check_t0_fails_on_running_example(self, running_file, capsys):
        assert main(["topology", running_file, "--check", "t0"]) == 1
        assert "t0 = false" in capsys.readouterr().out

    def test_check_partition(self, tmp_path, capsys):
        path = tmp_path / "eq.preord"
        path.write_text("preord 1\nobject E\n  points a b\n  edge a b\n  edge b a\n")
        assert main(["topology", str(path), "--check", "partition"]) == 0
        assert "partition = true" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, code, lines", [
        (["--check", "t0"], 1, ["S: t0 = false", "T: t0 = true"]),
        (["--check", "partition"], 1, ["S: partition = true", "T: partition = false"]),
        (["-o", "T", "--check", "t0"], 0, ["T: t0 = true"]),
        (["-o", "S", "--check", "partition"], 0, ["S: partition = true"]),
    ])
    def test_check_from_space(self, tmp_path, capsys, flags, code, lines):
        path = tmp_path / "spaces.preord"
        path.write_text(
            "preord 2\n"
            "space T\n  points x y\n  nbhd x x\n  nbhd y x y\n"
            "space S\n  points a b\n  nbhd a a b\n  nbhd b a b\n"
        )
        assert main(["topology", str(path), "--from-space", *flags]) == code
        assert capsys.readouterr() == ("\n".join(lines) + "\n", "")

    def test_from_space_without_spaces_is_an_input_error(self, running_file, capsys):
        assert main(["topology", running_file, "--from-space", "--check", "t0"]) == 2
        assert capsys.readouterr().err == "error: document contains no space blocks\n"
        assert main(["topology", running_file, "--from-space", "-o", "P"]) == 2
        assert capsys.readouterr().err == "error: unknown space 'P'\n"


class TestExport:
    def test_dot_output(self, running_file, capsys):
        assert main(["export", "--dot", running_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "P"')
        assert "subgraph cluster_0" in out
        assert 'label="{a,b}"' in out
        assert '"a" -> "c" [ltail=cluster_0, lhead=cluster_1];' in out

    def test_export_without_dot_is_a_usage_error(self, running_file, capsys):
        assert main(["export", running_file]) == 2
        assert capsys.readouterr() == ("", "error: only DOT export is available; pass --dot\n")

    def test_quotes_and_backslashes_are_escaped(self, tmp_path, capsys):
        path = tmp_path / "quoted.preord"
        path.write_text('preord 1\nobject P\n  points q"x b\\y\n  edge q"x b\\y\n')
        assert main(["export", "--dot", str(path)]) == 0
        out = capsys.readouterr().out
        assert 'label="{q\\"x}";' in out
        assert '    "b\\\\y";' in out
        assert '"q\\"x" -> "b\\\\y" [ltail=cluster_0, lhead=cluster_1];' in out

    def test_dot_is_pinned_on_the_running_example(self, morphism_file, capsys):
        assert main(["export", "--dot", morphism_file, "-o", "P"]) == 0
        assert capsys.readouterr().out == RUNNING_DOT

    def test_dot_is_pinned_on_the_dense_benchmark_document(self, tmp_path, capsys, monkeypatch):
        """The DOT of the benchmark's dense document (seed 1: 500 points,
        a 300-point core class, 195 cover edges), as the per-class column
        walk over the quotient wrote it before the edges came from the
        generators."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads

        f = workloads.planted_morphism(
            random.Random("dense-cli:1"), workloads.Shape(500, 300, 95, 95), workloads.Shape(250, 5, 100, 100)
        )
        doc = Document()
        doc.add_preorder("P", f.src)
        path = tmp_path / "dense.preord"
        path.write_text(dumps(doc))
        assert main(["export", "--dot", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count(" -> ") == 195
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "72e6a869a082e9dda1bbbf6f19e4ca3b4fa058a87e32f89fad93f0edd27d28e0"
        )

    def test_dot_edges_are_the_covers_between_least_members(self, tmp_path, capsys):
        rng = random.Random(3)
        for k in range(20):
            p = oracle.random_preorder(rng, rng.randint(0, 25), edge_factor=rng.choice([0.5, 1.2, 3.0]))
            doc = Document()
            doc.add_preorder("P", p)
            path = tmp_path / f"random{k}.preord"
            path.write_text(dumps(doc))
            assert main(["export", "--dot", str(path)]) == 0
            unit = oracle.reflect_by_quotient(p).unit
            expected = [
                f'  "{p.carrier.label(a)}" -> "{p.carrier.label(b)}" '
                f"[ltail=cluster_{unit(a)}, lhead=cluster_{unit(b)}];"
                for a, b in oracle.generators_by_pairs(p)
                if unit(a) != unit(b)
            ]
            assert [line for line in capsys.readouterr().out.splitlines() if " -> " in line] == expected

    def test_requires_dot_flag(self, running_file, capsys):
        assert main(["export", running_file]) == 2

    def test_acyclic(self, running_file, capsys):
        main(["export", "--dot", running_file])
        out = capsys.readouterr().out
        edges = []
        for line in out.splitlines():
            line = line.strip()
            if "->" in line:
                src, rest = line.split(" -> ")
                dst = rest.split(" ")[0]
                edges.append((src, dst))
        assert edges and all(src != dst for src, dst in edges)
        # no reversed duplicates means no 2-cycles; transitivity is trivial here
        assert all((dst, src) not in edges for src, dst in edges)


# sample counts that shrink the factorization suite's random sweeps to a few instances
SMALL_FACTORIZATION = dict(_RANDOM_MORPHISMS=2, _COVER_RANDOM=2, _ORTHO_RANDOM=2, _STABILITY_SAMPLES=6)


class TestCheck:
    def test_small_suite_passes(self, capsys):
        assert main(["check", "--suite", "pretorsion", "--max-n", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ok   equivalence-to-poset homs are trivial [20 instances]",
            "ok   canonical sequence universal properties [6 instances]",
            "ok   symmetric core is an equivalence [6 instances]",
            "ok   reflection quotient properties [6 instances]",
            "ok   unit naturality [69 instances]",
            "ok   ideal membership agreement [69 instances]",
            "ok   decomposition round trip [6 instances]",
            "ok   relative kernel universal property [138 instances]",
            "ok   documents round trip through generators [206 instances]",
            "pass: suite pretorsion (9/9 checks)",
        ]

    def test_empty_bound_checks_the_empty_preorder(self, capsys):
        assert main(["check", "--suite", "pretorsion", "--max-n", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "pass: suite pretorsion (9/9 checks)"

    @pytest.mark.parametrize("suite, options", [
        (suite_factorization, SMALL_FACTORIZATION),
        (suite_stable_units, dict(_STABLE_RANDOM=2)),
        (suite_alexandroff, dict(_SPACE_RANDOM=2)),
    ])
    def test_every_check_sees_an_instance_at_the_empty_bound(self, suite, options, monkeypatch):
        for name, value in options.items():
            monkeypatch.setattr(suites, name, value)
        assert suite(max_n=0).ok

    def test_a_suite_is_named_by_its_bound_and_seed(self):
        for suite in suites.SUITES.values():
            assert list(inspect.signature(suite).parameters) == ["max_n", "seed"]

    def test_a_check_that_saw_no_instance_fails(self, monkeypatch):
        monkeypatch.setattr(suites, "_DOCUMENTED_RANDOM", 0)
        report = suite_pretorsion(max_n=-1)
        assert not report.ok
        assert {check.detail for check in report.checks} == {"no instances were checked"}
        assert report.lines()[-1] == "FAIL: suite pretorsion (0/9 checks)"

    def test_a_raising_instance_stream_fails_its_check(self):
        point = FinPreorder.discrete(1)

        def stream():
            yield (point,)
            raise RuntimeError("no instance")

        report = SuiteReport("s")
        _sweep(report, "first", stream(), suites.check_sym_core)
        _sweep(report, "second", [(point,), (point,)], suites.check_sym_core)
        assert report.lines() == [
            "FAIL first: instance 2: raised RuntimeError('no instance')",
            "ok   second [2 instances]",
            "FAIL: suite s (1/2 checks)",
        ]

    def test_every_instance_is_a_tuple_of_values_that_round_trips(self, monkeypatch):
        sweep, seen = suites._sweep, []

        def tapped(report, name, instances, checker):
            def tap():
                for instance in instances:
                    seen.append(instance)
                    yield instance
            sweep(report, name, tap(), checker)

        monkeypatch.setattr(suites, "_sweep", tapped)
        for name, value in {**SMALL_FACTORIZATION, "_STABLE_RANDOM": 2, "_SPACE_RANDOM": 2}.items():
            monkeypatch.setattr(suites, name, value)
        for suite in suites.SUITES.values():
            assert suite(max_n=2).ok
        assert len(seen) == 2021
        for instance in seen:
            assert type(instance) is tuple and instance
            assert all(isinstance(x, (FinPreorder, PreordMorphism)) for x in instance)
            text = dumps(suites._document(instance))
            assert suites._instance(loads(text, strict=True)) == instance

    def test_a_raising_generator_does_not_abort_its_suite(self, monkeypatch):
        def broken(f):
            raise RuntimeError("no factorization")

        monkeypatch.setattr(suites.fct, "monotone_light_factorization", broken)
        for name, value in SMALL_FACTORIZATION.items():
            monkeypatch.setattr(suites, name, value)
        report = suite_factorization(max_n=0)
        lines = report.lines()
        square = lines.index(
            "FAIL orthogonality on random squares: instance 1: raised RuntimeError('no factorization')"
        )
        assert lines[square + 1].startswith("ok   effective-descent covers (exhaustive)")

    def test_suite_choices_are_the_suites(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in commands.choices["check"]._actions if a.dest == "suite")
        assert list(suite.choices) == sorted(suites.SUITES)

    def test_cap_error(self, capsys):
        assert main(["check", "--suite", "pretorsion", "--max-n", "7"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_negative_bound_is_a_usage_error(self, capsys):
        assert main(["check", "--suite", "pretorsion", "--max-n", "-1"]) == 2
        captured = capsys.readouterr()
        assert "nonnegative" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["reflect", "{running}"],
    ["classify", "{morphism}", "-m", "f"],
    ["factor", "{morphism}", "-m", "f", "--system", "reflective"],
    ["factor", "{morphism}", "-m", "f", "--system", "monotone-light"],
    ["cover", "{running}"],
    ["sequence", "{running}"],
    ["topology", "{running}"],
    ["topology", "{running}", "--check", "t0"],
    ["export", "--dot", "{running}"],
])
def test_out_file_holds_the_stdout_bytes(argv, running_file, morphism_file, tmp_path, capsys):
    argv = [arg.format(running=running_file, morphism=morphism_file) for arg in argv]
    code = main(argv)
    stdout = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode("utf-8")


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["reflect", "/nonexistent/file"]) == 2

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.preord"
        path.write_text("preord 1\nobject P\n  points a\n  edge a z\n")
        assert main(["reflect", str(path)]) == 2
        assert "unknown point" in capsys.readouterr().err

    def test_strict_flag(self, running_file):
        assert main(["reflect", running_file, "--strict"]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_input_is_an_input_error(self, kind, tmp_path, capsys):
        path = tmp_path / "doc.preord"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"preord 1\nobject P\n  points \xff\n")
        assert main(["reflect", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_module_entry_point(running_file):
    proc = subprocess.run(
        [sys.executable, "-m", "preord", "reflect", running_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "P.quotient" in proc.stdout


# the names ``from preord import *`` binds: the library layers and their
# public names, each imported on first access
PUBLIC_NAMES = """
AlexandroffSpace ContinuousClassification ContinuousMap Cover Decomposition
FactorizationResult FinPreorder FinSet MorphismClassification NExactSequence
NKernel OrthogonalityError PreordMorphism Pullback Reflection Relation SetMap
T0Reflection alexandroff canonical_sequence check_orthogonality classify
classify_continuous closure_of_point compose_morphisms compose_relations
decompose direct_image effective_descent_cover factorization generators
graph_relation ideal_factorization identity_map identity_morphism in_ideal_N
inverse_image is_T0 is_effective_descent is_fully_faithful is_in_E is_in_E_bar
is_in_M is_in_M_star is_isomorphism is_partition is_pullback_square
is_regular_epi kernel_pair meet min_open monotone_light_factorization n_kernel
opposite preord_pullback preorder_to_space pretorsion recompose reflect
reflect_morphism reflective_factorization reflexive_transitive_closure
relations space_to_preorder subspace sym_core t0_reflection
""".split()


def _modules_after(*argvs):
    """The ``preord.*`` modules a fresh interpreter holds after running each
    argument list through ``cli.main``, which must return 0."""
    script = (
        "import contextlib, io, sys\n"
        "from preord.cli import main\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('preord.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _verifier_imports(module: str) -> set[str]:
    """The functions of ``preord.<module>`` whose body imports the oracle or
    the suites, with ``"<module>"`` for an import at module level; read from
    the source with ``ast``, without importing it."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module or ''}.{alias.name}" for alias in child.names]
            else:
                names = []
            if any({"oracle", "suites"} & set(name.split(".")) for name in names):
                found.add(scope)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(ast.parse((Path(preord.__file__).parent / f"{module}.py").read_text()), "<module>")
    return found


class TestImportBoundary:
    def test_only_cmd_check_imports_the_oracle_or_the_suites(self):
        layers = ("relations", "pretorsion", "factorization", "alexandroff", "docio", "cli")
        assert {m: _verifier_imports(m) for m in layers} == {
            **{m: set() for m in layers}, "cli": {"cmd_check"}
        }

    def test_commands_that_do_not_check_load_neither_suites_nor_oracle(self, morphism_file):
        loaded = _modules_after(
            ["reflect", morphism_file, "-o", "P"],
            ["classify", morphism_file, "-m", "f"],
            ["topology", morphism_file],
        )
        assert {"preord.cli", "preord.docio", "preord.alexandroff"} <= loaded
        assert not loaded & {"preord.suites", "preord.oracle"}

    def test_reflect_sequence_and_export_load_no_factorization_or_topology(self, morphism_file):
        loaded = _modules_after(
            ["reflect", morphism_file, "-o", "P"],
            ["sequence", morphism_file, "-o", "P"],
            ["export", "--dot", morphism_file, "-o", "P"],
        )
        assert {"preord.cli", "preord.docio", "preord.pretorsion"} <= loaded
        assert not loaded & {"preord.factorization", "preord.alexandroff"}

    def test_classify_and_factor_load_no_topology(self, morphism_file):
        loaded = _modules_after(
            ["classify", morphism_file, "-m", "f"],
            ["factor", morphism_file, "-m", "f", "--system", "reflective"],
            ["factor", morphism_file, "-m", "f", "--system", "monotone-light"],
        )
        assert "preord.factorization" in loaded
        assert "preord.alexandroff" not in loaded

    def test_topology_loads_no_factorization(self, morphism_file):
        loaded = _modules_after(
            ["topology", morphism_file],
            ["topology", morphism_file, "-o", "Q", "--check", "t0"],
        )
        assert "preord.alexandroff" in loaded
        assert "preord.factorization" not in loaded

    def test_check_loads_the_suites_and_oracle(self):
        loaded = _modules_after(["check", "--suite", "stable-units", "--max-n", "0"])
        assert {"preord.suites", "preord.oracle"} <= loaded

    def test_star_import_and_dir_keep_the_public_names(self):
        namespace = {}
        exec("from preord import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
        assert set(PUBLIC_NAMES) <= set(dir(preord))

    def test_the_oracle_is_imported_by_module_path(self):
        assert not {"oracle", *oracle.__all__} & set(preord.__all__)
        namespace = {}
        exec("from preord import oracle", namespace)
        assert namespace["oracle"] is preord.oracle

    def test_unknown_attribute_is_a_standard_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'preord' has no attribute 'no_such_name'$"):
            preord.no_such_name
        assert not hasattr(preord, "no_such_name")
        with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
            exec("from preord import no_such_name", {})
