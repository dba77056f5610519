"""Per-layer measurement: spans around calls into preord modules, exact
counters, a size ladder for the bit kernel, and CLI start-up time.

Nothing here changes the library.  In a traced run the benchmark replaces
public functions of the preord modules with timing wrappers, in every
preord namespace that holds them, and puts the originals back afterwards.
Untraced runs never install the wrappers.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path

from preord import (
    alexandroff,
    docio,
    factorization,
    oracle,
    pretorsion,
    relations,
    suites,
)

# (module, attribute, span name); every ``suites.check_*`` helper is added below.
TRACED_FUNCTIONS = [
    (relations, "reflexive_transitive_closure", "relations.closure"),
    (pretorsion, "reflect", "pretorsion.reflect"),
    (pretorsion, "canonical_sequence", "pretorsion.canonical_sequence"),
    (factorization, "classify", "factorization.classify"),
    (factorization, "reflective_factorization", "factorization.reflective"),
    (factorization, "monotone_light_factorization", "factorization.monotone_light"),
    (factorization, "effective_descent_cover", "factorization.cover"),
    (alexandroff, "preorder_to_space", "alexandroff.preorder_to_space"),
    (alexandroff, "is_T0", "alexandroff.is_T0"),
    (alexandroff, "t0_reflection", "alexandroff.t0_reflection"),
    (docio, "loads", "docio.loads"),
    (docio, "dumps", "docio.dumps"),
    (oracle, "reflect_by_quotient", "oracle.reflect_by_quotient"),
    (oracle, "brute_force_in_N", "oracle.brute_force_in_N"),
] + [
    (suites, name, f"suites.{name}") for name in sorted(vars(suites)) if name.startswith("check_")
]
TRACED_METHODS = [(relations.Relation, "columns", "relations.columns")]
COUNTED_METHODS = [
    (relations.FinPreorder, "__post_init__", "relations.preorder_validations"),
    (relations.PreordMorphism, "__post_init__", "relations.morphism_validations"),
]
# Output sizes counted beside the timings: span name -> (counter suffix, measure).
RESULT_SIZES = {
    "factorization.reflective": ("mid_points", lambda result: result.mid.size),
    "factorization.cover": ("total_points", lambda result: result.total.size),
    "docio.dumps": ("bytes", len),
}
ARGUMENT_SIZES = {"docio.loads": ("bytes", lambda text, *_, **__: len(text))}

# The reflection cache as the library defines it, captured before any wrapping.
_REFLECT = pretorsion.reflect


@contextmanager
def replaced_everywhere(original, replacement):
    """Rebind every preord-module name that refers to ``original``."""
    undo = []
    modules = [m for name, m in sys.modules.items() if name == "preord" or name.startswith("preord.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr))
    try:
        yield
    finally:
        for module, attr in undo:
            setattr(module, attr, original)


@contextmanager
def replaced_attribute(owner, attr, replacement):
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def clear_reflect_cache(tracer=None):
    """Empty the reflection cache, folding its statistics into ``tracer``."""
    if tracer is not None:
        tracer.fold_cache_stats()
    clear = getattr(_REFLECT, "cache_clear", None)
    if clear is not None:
        clear()


class Tracer:
    """Spans and counters recorded in memory and written out at the end.

    Item spans and the spans directly under them are kept one by one with
    their start, end and parent.  Deeper calls are folded into per-name
    call counts and busy time.  Self time of a module is the time its spans
    were open minus the time of the spans nested in them.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.cache = [0, 0, 0]

    def enter(self, name: str) -> None:
        index = None
        if len(self._stack) < 2:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, nested, index = self._stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.busy[name] += elapsed
        self.self_time[name.split(".", 1)[0]] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed
        if index is not None:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        result_size = RESULT_SIZES.get(name)
        argument_size = ARGUMENT_SIZES.get(name)

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if result_size is not None:
                self.counts[f"{name}.{result_size[0]}"] += result_size[1](result)
            if argument_size is not None:
                self.counts[f"{name}.{argument_size[0]}"] += argument_size[1](*args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def fold_cache_stats(self) -> None:
        """Add the reflection cache's hits and misses, while that cache exists."""
        info = getattr(_REFLECT, "cache_info", None)
        if info is not None:
            snapshot = info()
            self.cache[0] += snapshot.hits
            self.cache[1] += snapshot.misses
            self.cache[2] = max(self.cache[2], snapshot.currsize)

    @contextmanager
    def installed(self):
        """Wrap the traced library entry points for the duration."""
        with ExitStack() as stack:
            for module, attr, name in TRACED_FUNCTIONS:
                original = getattr(module, attr)
                stack.enter_context(replaced_everywhere(original, self.wrap(name, original)))
            for owner, attr, name in TRACED_METHODS:
                stack.enter_context(replaced_attribute(owner, attr, self.wrap(name, owner.__dict__[attr])))
            for owner, attr, name in COUNTED_METHODS:
                stack.enter_context(replaced_attribute(owner, attr, self.count(name, owner.__dict__[attr])))
            yield self

    def span_records(self) -> list[list]:
        """Spans as ``[name, start_ms, end_ms, parent]`` relative to the tracer's start."""
        return [
            [name, round((start - self.origin) * 1e3, 3), round((end - self.origin) * 1e3, 3), parent]
            for name, start, end, parent in self.spans
        ]


LADDER_SIZES = {100: 5, 1000: 3, 3000: 1}  # carrier size -> repetitions


def size_ladder(seed: int, sizes: dict[int, int] = LADDER_SIZES) -> dict[str, float]:
    """Closure, validation, transpose and reflection at fixed carrier sizes.

    The edges are drawn as ``oracle.random_preorder`` draws them (edge
    factor 1.2), fresh from ``seed`` at each size.  Each repetition builds
    fresh objects, so no memo or cache is hit.
    """
    reflect = getattr(pretorsion.reflect, "__wrapped__", pretorsion.reflect)
    out = {}
    for n, reps in sizes.items():
        rng = random.Random(seed)
        carrier = relations.FinSet(n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(int(1.2 * n))]
        samples: dict[str, list[float]] = {"closure": [], "validate": [], "columns": [], "reflect": []}
        for _ in range(reps):
            raw = relations.Relation.from_pairs(carrier, carrier, pairs)
            t = time.perf_counter()
            closed = relations.reflexive_transitive_closure(raw)
            samples["closure"].append(time.perf_counter() - t)
            rel = relations.Relation(carrier, carrier, closed.rel.rows)
            t = time.perf_counter()
            p = relations.FinPreorder(carrier, rel)
            samples["validate"].append(time.perf_counter() - t)
            t = time.perf_counter()
            rel.columns()
            samples["columns"].append(time.perf_counter() - t)
            t = time.perf_counter()
            reflect(p)
            samples["reflect"].append(time.perf_counter() - t)
        for op, values in samples.items():
            layer = "pretorsion" if op == "reflect" else "relations"
            out[f"{layer}.{op}.n{n}_ms"] = statistics.median(values) * 1e3
    return out


def cli_startup_ms(root: Path, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter that imports ``preord.cli``."""
    env = child_env(root)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import preord.cli"], env=env, cwd=root,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
