"""Fast self-test of the benchmark at tiny sizes.

    python -m pytest bench/test_bench.py -q
"""

import functools
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (first: it puts the checkout's src on the path)
import layers  # noqa: E402
import workloads  # noqa: E402
from preord import pretorsion, relations  # noqa: E402

TINY = {
    "sparse-pipeline": {"p": workloads.Shape(24, 4, 5, 5), "q": workloads.Shape(12, 2, 3, 3)},
    "dense-cli": {"p": workloads.Shape(16, 6, 4, 4), "q": workloads.Shape(8, 2, 2, 2)},
    "exhaustive-verify": {"max_n": 2},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MODULES = ("relations", "pretorsion", "factorization", "alexandroff",
           "docio", "cli", "oracle", "suites")
SUFFIX_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_pct", "%"))


def untraced(name, seed=1):
    return run.measure(name, seed, 0.1, sizes=TINY[name])


def traced(name, seed=1):
    """A traced run without the size ladder, which ``ladder`` runs once."""
    return run.measure_traced(name, seed, TINY[name], ladder={})


@functools.lru_cache(maxsize=None)
def ladder():
    return layers.size_ladder(1, {n: 1 for n in layers.LADDER_SIZES})


def expected_unit(name):
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(name):
    for measure, wanted in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        metrics, _, attempted, failed = measure(name)
        if measure is traced:
            metrics.update(ladder())
        line = run.result_line(metrics, wanted, attempted, failed)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            value = line["metrics"][m["name"]]
            assert value["unit"] == m["unit"] == expected_unit(m["name"])
            assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])


def test_traced_runs_cover_all_eight_modules():
    seen = set()
    for name in workloads.WORKLOADS:
        metrics, _, _, _ = traced(name)
        assert "trace.overhead_ms" in metrics
        seen |= {key.split(".")[0] for key, value in metrics.items() if value and key[0] != "t"}
    assert seen >= set(MODULES)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_the_inputs(name):
    assert untraced(name, 1)[1]["inputs_sha256"] != untraced(name, 2)[1]["inputs_sha256"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_runs_repeat_outputs_and_counts(name):
    first, second = untraced(name), untraced(name)
    assert first[1]["outputs_sha256"] == second[1]["outputs_sha256"]
    counts = [
        {m["name"]: metrics[m["name"]] for m in SPEC["per_layer"] if m["unit"] == "count"}
        for metrics, *_ in (traced(name), traced(name))
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_injected_wrong_result_raises_failed_ratio(name):
    original = pretorsion.reflect

    def wrong(p):
        return original(relations.FinPreorder.discrete(p.size))

    with layers.replaced_everywhere(original, wrong):
        _, detail, attempted, failed = untraced(name)
    assert failed > 0 and detail["failed_ratio"] == failed / attempted


def test_dense_cli_p50_is_the_mean_of_each_commands_median():
    n = len(workloads.COMMANDS)
    latencies = [float(i % n) + (i >= 2 * n) for i in range(3 * n)]  # command k takes k, k, k + 1
    assert workloads.make("dense-cli", run.ROOT).p50(latencies) == statistics.mean(range(n))
