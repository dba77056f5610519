"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
randomized sweeps are seeded, so the whole gate is deterministic.
"""

import time

import pytest

import test_mutations
from preord.oracle import (
    brute_force_in_N,
    enumerate_morphisms,
    enumerate_preorders,
    enumerate_preorders_by_closure,
)
from preord.pretorsion import in_ideal_N
from preord.suites import (
    check_canonical_sequence,
    suite_alexandroff,
    suite_factorization,
    suite_stable_units,
)

SEED = 0


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {verdict} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _row(report, name):
    for check in report.checks:
        if check.name == name:
            return check
    raise LookupError(f"no check named {name!r} in suite {report.suite}")


def _all_objects(max_n=3):
    out = []
    for n in range(max_n + 1):
        out.extend(enumerate_preorders(n))
    return out


@pytest.fixture(scope="module")
def factorization_report():
    return suite_factorization(seed=SEED)


@pytest.fixture(scope="module")
def stable_units_report():
    return suite_stable_units(seed=SEED)


@pytest.fixture(scope="module")
def alexandroff_report():
    return suite_alexandroff(seed=SEED)


def test_criterion_1_splitting_axioms():
    started = time.monotonic()
    objects = _all_objects()
    equivalences = [p for p in objects if p.is_equivalence()]
    posets = [p for p in objects if p.is_partial_order()]
    failures = 0
    maps_checked = 0
    for t in equivalences:
        for fp in posets:
            for g in enumerate_morphisms(t, fp):
                maps_checked += 1
                if not (in_ideal_N(g) and brute_force_in_N(g)):
                    failures += 1
    sequences_checked = 0
    for p in objects:
        sequences_checked += 1
        if check_canonical_sequence(p) is not None:
            failures += 1
    elapsed = time.monotonic() - started
    _criterion(
        1,
        "splitting axioms: trivial homs and canonical-sequence universal properties",
        failures == 0 and elapsed < 60.0,
        f"{maps_checked} maps, {sequences_checked} sequences, {elapsed:.1f}s",
    )


def test_criterion_2_stable_units(stable_units_report):
    exhaustive = _row(stable_units_report, "stable units (exhaustive)")
    randomized = _row(stable_units_report, "stable units (random)")
    _criterion(
        2,
        "reflection preserves pullbacks along unit components",
        exhaustive.ok and randomized.ok,
        f"{exhaustive.detail}, {randomized.detail}",
    )


def test_criterion_3_factorization_systems(factorization_report):
    rows = [
        _row(factorization_report, "factorizations certify and compose"),
        _row(factorization_report, "random factorizations certify and compose"),
        _row(factorization_report, "orthogonality on canonical squares"),
        _row(factorization_report, "orthogonality on random squares"),
        _row(factorization_report, "light factorizations are unique up to comparison"),
        _row(factorization_report, "left class is pullback stable"),
    ]
    _criterion(
        3,
        "both factorization systems certify, compose, and admit unique diagonals",
        all(r.ok for r in rows),
        "; ".join(r.detail or r.name for r in rows),
    )


def test_criterion_4_covering_agreement(factorization_report):
    exhaustive = _row(factorization_report, "covering tests agree")
    randomized = _row(factorization_report, "random factorizations certify and compose")
    _criterion(
        4,
        "the three covering tests agree on every tested morphism",
        exhaustive.ok and randomized.ok,
        f"{exhaustive.detail} exhaustive + randoms",
    )


def test_criterion_5_descent_covers(factorization_report):
    exhaustive = _row(factorization_report, "effective-descent covers (exhaustive)")
    randomized = _row(factorization_report, "effective-descent covers (random)")
    _criterion(
        5,
        "3|B| covers are partial orders and lift chains",
        exhaustive.ok and randomized.ok,
        f"{exhaustive.detail}, {randomized.detail}",
    )


def test_criterion_6_space_dictionary(alexandroff_report):
    rows = [
        _row(alexandroff_report, "round trips (exhaustive)"),
        _row(alexandroff_report, "round trips (random)"),
        _row(alexandroff_report, "monotone maps are exactly continuous maps"),
        _row(alexandroff_report, "T0/partition dual tests (exhaustive)"),
        _row(alexandroff_report, "T0/partition dual tests (random)"),
    ]
    _criterion(
        6,
        "space dictionary: round trips, morphism sets, predicate duals",
        all(r.ok for r in rows),
        "; ".join(r.detail or r.name for r in rows),
    )


def test_criterion_7_enumeration_sanity():
    filtered = list(enumerate_preorders(3))
    posets = [p for p in filtered if p.is_partial_order()]
    equivalences = [p for p in filtered if p.is_equivalence()]
    closed = enumerate_preorders_by_closure(3)
    counts_ok = (
        len(filtered) == 29
        and len(posets) == 19
        and len(equivalences) == 5
        and len(closed) == 29
    )
    same_sets = {p.rel.rows for p in filtered} == {p.rel.rows for p in closed}
    _criterion(
        7,
        "29 preorders, 19 posets, 5 equivalences on 3 points by two methods",
        counts_ok and same_sets,
        f"{len(filtered)}/{len(posets)}/{len(equivalences)}",
    )


def test_criterion_8_mutation_sensitivity():
    mutations = [
        test_mutations.test_mutation_reflect_without_quotient,
        test_mutations.test_mutation_in_M_without_uniqueness,
        test_mutations.test_mutation_sym_core_without_opposite,
        test_mutations.test_mutation_compose_flipped,
        test_mutations.test_mutation_direct_image_diagonal_only,
        test_mutations.test_mutation_inverse_image_transposed,
        test_mutations.test_mutation_closure_returns_full,
        test_mutations.test_mutation_cover_with_two_levels,
        test_mutations.test_mutation_light_factorization_without_core,
        test_mutations.test_mutation_pullback_dropping_element,
        test_mutations.test_mutation_writer_drops_cycle_closing_edges,
        test_mutations.test_mutation_pullback_square_without_order,
    ]
    caught = 0
    for mutation in mutations:
        mutation()  # raises when a corruption slips through
        caught += 1
    _criterion(
        8,
        "each documented corruption is caught by a verification check",
        caught == len(mutations),
        f"{caught}/{len(mutations)} mutations detected",
    )


# ``report.lines()`` of the three module fixtures, pinned so that a change to
# any check's name, instance count or verdict shows up here.
EXPECTED_REPORT_LINES = {
    "alexandroff_report": [
        "ok   round trips (exhaustive) [35 instances]",
        "ok   round trips (random) [500 instances]",
        "ok   monotone maps are exactly continuous maps [1225 instances]",
        "ok   minimal neighborhoods are open intersections [35 instances]",
        "ok   T0/partition dual tests (exhaustive) [35 instances]",
        "ok   T0/partition dual tests (random) [500 instances]",
        "ok   T0 reflection matches order reflection [35 instances]",
        "ok   continuous classification matches order classification [11345 instances]",
        "pass: suite alexandroff (8/8 checks)",
    ],
    "factorization_report": [
        "ok   factorizations certify and compose [11345 instances]",
        "ok   covering tests agree [11345 instances]",
        "ok   inverted-map tests agree [11345 instances]",
        "ok   surjective-fully-faithful tests agree [11345 instances]",
        "ok   trivial-covering naturality square [11345 instances]",
        "ok   pullback-mono criterion [619 instances]",
        "ok   left class is pullback stable [437 instances]",
        "ok   left class is pullback stable (random) [100 instances]",
        "ok   poset-map pullbacks are trivial coverings [564 instances]",
        "ok   orthogonality on canonical squares [11345 instances]",
        "ok   light factorizations are unique up to comparison [11345 instances]",
        "ok   orthogonality on random squares [185 instances]",
        "ok   effective-descent covers (exhaustive) [35 instances]",
        "ok   effective-descent covers (random) [500 instances]",
        "ok   random factorizations certify and compose [1000 instances]",
        "pass: suite factorization (15/15 checks)",
    ],
    "stable_units_report": [
        "ok   stable units (exhaustive) [7359 instances]",
        "ok   stable units (random) [1000 instances]",
        "pass: suite stable-units (2/2 checks)",
    ],
}


@pytest.mark.parametrize("fixture", sorted(EXPECTED_REPORT_LINES))
def test_suite_report_lines(fixture, request):
    assert request.getfixturevalue(fixture).lines() == EXPECTED_REPORT_LINES[fixture]
