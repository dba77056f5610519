"""Seeded, layered benchmark of preord.

Run from the repository root:

    python3 bench/run.py --workload sparse-pipeline --seed 1 --seconds 30 --trace 0

The workloads are ``sparse-pipeline``, ``dense-cli`` and
``exhaustive-verify`` (see ``workloads.py``).  Each run is one process on
one thread, builds its inputs from ``--seed``, checks every output outside
the timed section, and prints two JSON lines.  The first holds the details:
item count, the percentile behind ``item_tail_ms``, ``failed_ratio``, the
digests of inputs and outputs, wall-clock figures, and in a traced run
every per-layer number.  The last line is ``{"correct", "attempted",
"failed", "metrics"}``: with ``--trace 0`` the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.

End-to-end times are wall-clock times scaled by a calibration kernel run
in the benchmark's own process (see ``CALIBRATION_REF_S``), so a
neighbour's load on a shared host moves them less; the unscaled figures
are in the details.  A traced run ignores ``--seconds``: it
measures a fixed amount of work, so its counts repeat exactly for a seed.

The harness is a plain ``perf_counter`` loop, not ``pytest-benchmark``:
``dense-cli`` needs the peak RSS of child processes and their piped stdout,
and each run has to be one command with one JSON result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

import argparse
import functools
import hashlib
import json
import math
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
OUT_DIR = ROOT / ".bench_out"


def _import_preord():
    """Import the checkout's own ``src/preord``, never an installed copy."""
    if not (SRC / "preord" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'preord'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import preord

    if Path(preord.__file__).resolve().parent != (SRC / "preord").resolve():
        sys.exit(f"error: imported preord from {preord.__file__}, not from {SRC}")


_import_preord()

import layers  # noqa: E402
import workloads  # noqa: E402


# Workloads report times scaled by (CALIBRATION_REF_S / k) ** CALIBRATION_POWER,
# where k is the median time of a calibration kernel run about once a second
# in the same run and CALIBRATION_REF_S is about its time on an idle core of
# the machine the baseline was recorded on (Python 3.11, 2 vCPUs).  On a
# shared host this cancels much of the slow swing in speed between runs.
# The power is below 1 because the workloads slow less than the kernel does
# under the same load.  Over 15 or 16 runs of each workload, 0.5 gave the
# smallest spread between runs on ``dense-cli`` and ``exhaustive-verify`` and
# about the unscaled spread on ``sparse-pipeline``; the full ratio, 1,
# over-corrected all three.
CALIBRATION_REF_S = 0.0075
CALIBRATION_POWER = 0.5
CALIBRATE_EVERY_S = 1.0


@functools.cache
def _kernel_data():
    rng = random.Random(0)
    rows = [rng.getrandbits(4000) for _ in range(1500)]
    pairs = [(rng.randrange(1500), rng.randrange(1500)) for _ in range(2000)]
    table = {i * 7919: i for i in range(50000)}
    keys = [rng.randrange(50000) * 7919 for _ in range(15000)]
    return rows, pairs, table, keys


def _kernel() -> None:
    rows, pairs, table, keys = _kernel_data()
    acc = 0
    for i, j in pairs:
        acc ^= rows[i] & rows[j]
        acc |= rows[i] >> 7
    total = 0
    for key in keys:
        total += table[key]
    counts: dict[tuple, int] = {}
    for i in range(10000):
        t = (i % 97, i & 1023, i)
        counts[t] = counts.get(t, 0) + 1


def calibrate() -> float:
    """Seconds the calibration kernel takes now, the faster of two runs.

    The kernel is the benchmark's own code and does what preord spends its
    time on: AND, OR and shifts of long bit rows, lookups in a dict of a
    few MB, and building and hashing small tuples.  On a shared host its
    time rises and falls with the neighbours' load much as preord's does.
    The first run warms the caches the previous item left cold.
    """
    best = math.inf
    for _ in range(2):
        t = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t)
    return best


@dataclass
class Pass:
    """What one pass over a workload's items did."""

    latencies: list[float] = field(default_factory=list)
    kernel_times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    outputs_sha256: str = ""


def run_items(wl, state, seconds: float, limit: int | None = None, calibrated: bool = True) -> Pass:
    """Run items until ``seconds`` of wall time have passed (after at least
    ``wl.min_items``, in whole cycles), ``limit`` items are done, or the
    items run out.

    Only ``wl.run`` is timed.  Input generation, checks and, about once a
    second when ``calibrated``, the calibration kernel run between items.
    """
    result = Pass()
    h = hashlib.sha256()
    started = last_kernel = time.perf_counter()
    for index, item in enumerate(wl.items(state)):
        with wl.span("item"):
            t = time.perf_counter()
            try:
                output = wl.run(item)
                error = None
            except Exception as exc:  # a crashed item is a failed item
                output, error = None, f"raised {exc!r}"
            result.latencies.append(time.perf_counter() - t)
            result.attempted += 1
            failure = error
            if failure is None:
                try:
                    failure = wl.check(item, output)
                except Exception as exc:  # a check that cannot run is a failure too
                    failure = f"check raised {exc!r}"
        if failure is not None:
            result.failures.append(failure)
        if index < wl.min_items:
            wl.digest(h, item, output)
        if calibrated and time.perf_counter() - last_kernel >= CALIBRATE_EVERY_S:
            result.kernel_times.append(calibrate())
            last_kernel = time.perf_counter()
        done = index + 1
        if limit is not None and done >= limit:
            break
        if done >= wl.min_items and done % wl.cycle == 0 and time.perf_counter() - started >= seconds:
            break
    if calibrated:
        result.kernel_times.append(calibrate())
    result.outputs_sha256 = h.hexdigest()
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten items beyond it, capped at
    p99, and its value.  Below 20 items that is the median."""
    n = len(latencies)
    if n < 20:
        return 50.0, statistics.median(latencies)
    q = min(0.99, 1 - 10 / n)
    return q * 100, sorted(latencies)[math.ceil(q * n) - 1]


def peak_rss_mib(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def measure(name: str, seed: int, seconds: float, import_s: float = 0.0, sizes=None):
    """One untraced run: end-to-end metrics and details."""
    wl = workloads.make(name, ROOT, sizes)
    setup_times, kernels = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = wl.setup(seed)
        setup_times.append(time.perf_counter() - t)
        kernels.append(calibrate())
    try:
        wl.prepare(state)
        run = run_items(wl, state, seconds)
    finally:
        wl.cleanup(state)
    setup_checks = wl.setup_checks(state)
    failures = [x for x in setup_checks if x is not None] + run.failures
    attempted = len(setup_checks) + run.attempted
    kernels += run.kernel_times
    scale = (CALIBRATION_REF_S / statistics.median(kernels)) ** CALIBRATION_POWER
    latencies = [x * scale for x in run.latencies]
    pct, tail_s = tail(latencies)
    setup_s = import_s + statistics.median(setup_times)
    metrics = {
        "setup_s": setup_s * scale,
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": wl.p50(latencies) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mib": peak_rss_mib(wl.rss),
    }
    detail = {
        "workload": name,
        "seed": seed,
        "items": len(latencies),
        "item_tail_pct": round(pct, 3),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "inputs_sha256": wl.inputs_digest(state),
        "outputs_sha256": run.outputs_sha256,
        "time_scale": scale,
        "calibration_runs": len(kernels),
        "wall": {
            "import_s": import_s,
            "setup_s": setup_s,
            "items_per_s": len(run.latencies) / sum(run.latencies),
            "item_p50_ms": wl.p50(run.latencies) * 1e3,
            "item_tail_ms": tail(run.latencies)[1] * 1e3,
        },
    }
    return metrics, detail, attempted, len(failures)


def measure_traced(name: str, seed: int, sizes=None, ladder=layers.LADDER_SIZES):
    """One traced run: per-layer metrics over a fixed amount of work, so the
    counts repeat exactly for a seed.

    The in-process work runs once untraced and once traced; the difference
    is the tracing overhead.  For ``dense-cli`` the in-process work repeats
    each command as load, library call and dump; the CLI commands then run
    once each, traced, and are checked against those in-process results.
    """
    wl = workloads.make(name, ROOT, sizes)
    local = wl.in_process()
    state = wl.setup(seed)
    try:
        run_items(local, state, math.inf, 1, calibrated=False)  # warm-up, so neither pass pays first-touch costs
        layers.clear_reflect_cache()
        untraced = run_items(local, state, math.inf, local.trace_items, calibrated=False)
        layers.clear_reflect_cache()
        tracer = layers.Tracer()
        with tracer.installed():
            for w in (wl, local):
                w.tracer, w.span = tracer, tracer.span
            state = wl.setup(seed)
            traced = run_items(local, state, math.inf, local.trace_items, calibrated=False)
            cli = None
            if local is not wl:
                wl.expected = local.results
                cli = run_items(wl, state, math.inf, wl.trace_items, calibrated=False)
            tracer.fold_cache_stats()
        setup_checks = wl.setup_checks(state)
    finally:
        wl.cleanup(state)

    metrics = layer_metrics(tracer)
    if cli is not None:
        for label, seconds in zip(workloads.COMMANDS, cli.latencies):
            metrics[f"cli.{label}.p50_ms"] = seconds * 1e3
    metrics["cli.startup_ms"] = layers.cli_startup_ms(ROOT)
    metrics.update(layers.size_ladder(seed, ladder))
    base, slow = sum(untraced.latencies), sum(traced.latencies)
    metrics["trace.overhead_ms"] = (slow - base) * 1e3
    metrics["trace.overhead_pct"] = (slow - base) / base * 100
    metrics["trace.spans"] = len(tracer.spans)

    passes = [traced] + ([cli] if cli is not None else [])
    failures = [x for x in setup_checks if x is not None] + [x for p in passes for x in p.failures]
    attempted = len(setup_checks) + sum(p.attempted for p in passes)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"trace-{name}.json"
    spans_file.write_text(json.dumps({"workload": name, "seed": seed, "spans": tracer.span_records()}))
    detail = {
        "workload": name,
        "seed": seed,
        "items": traced.attempted,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "outputs_sha256": traced.outputs_sha256,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "layers": {k: metrics[k] for k in sorted(metrics)},
    }
    return metrics, detail, attempted, len(failures)


def layer_metrics(tracer: layers.Tracer) -> dict[str, float]:
    """Calls, busy time and counts per traced name, self time per module."""
    metrics: dict[str, float] = {}
    names = [n for _, _, n in layers.TRACED_FUNCTIONS + layers.TRACED_METHODS] + ["oracle.enumerate"]
    for n in names:
        calls_key = f"{n}.instances" if n.startswith("suites.") else f"{n}.calls"
        metrics[calls_key] = tracer.calls[n]
        metrics[f"{n}.busy_ms"] = tracer.busy[n] * 1e3
    for n in ("factorization.reflective.mid_points", "factorization.cover.total_points",
              "docio.loads.bytes", "docio.dumps.bytes", "cli.stdout_bytes",
              "relations.preorder_validations", "relations.morphism_validations"):
        metrics[n] = tracer.counts[n]
    modules = ("relations", "pretorsion", "factorization", "alexandroff",
               "docio", "cli", "oracle", "suites", "item")
    for module in modules:
        metrics[f"{module}.self_ms"] = tracer.self_time[module] * 1e3
    hits, misses, entries = tracer.cache
    metrics["pretorsion.reflect.cache_hits"] = hits
    metrics["pretorsion.reflect.cache_misses"] = misses
    metrics["pretorsion.reflect.cache_entries"] = entries
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics, detail, attempted, failed = measure_traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        import_s = time.perf_counter() - _STARTED
        metrics, detail, attempted, failed = measure(args.workload, args.seed, args.seconds, import_s)
        wanted = spec["end_to_end"]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result_line(metrics, wanted, attempted, failed)))
    return 0


def result_line(metrics: dict, wanted: list[dict], attempted: int, failed: int) -> dict:
    """The last output line: the metrics ``BENCHMARK.json`` names, with units."""
    selected = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": selected}


if __name__ == "__main__":
    sys.exit(main())
