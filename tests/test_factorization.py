import gc
import random
import weakref

import pytest
from hypothesis import given, settings

import strategies as sts
from strategies import running_example, to_point
from preord.factorization import (
    FactorizationResult,
    MorphismClassification,
    OrthogonalityError,
    check_orthogonality,
    classify,
    effective_descent_cover,
    is_effective_descent,
    is_fully_faithful,
    is_in_E,
    is_in_E_bar,
    is_in_M,
    is_in_M_star,
    is_regular_epi,
    monotone_light_factorization,
    reflective_factorization,
)
from preord import factorization, relations
from preord.alexandroff import preorder_to_space, space_to_preorder, t0_reflection
from preord.oracle import (
    cover_by_pairs,
    effective_descent_by_chains,
    enumerate_morphisms,
    enumerate_preorders,
    fibre_poset_by_pairs,
    random_preorder,
    reflect_by_quotient,
    trivial_covering_by_pairs,
)
from preord.pretorsion import (
    canonical_sequence,
    generators,
    n_kernel,
    reflect,
    reflect_morphism,
    sym_core,
)
from preord.relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Relation,
    SetMap,
    _bits,
    _built,
    compose_morphisms,
    identity_morphism,
    is_isomorphism,
    preord_pullback,
)
from preord import suites
from preord.suites import (
    _relation_predicates,
    check_classify_continuous_agreement,
    check_factorization_parts,
    check_factorization_uniqueness,
    check_m_star_agreement,
    check_pullback_mono,
    check_stable_units,
)


def morph(src, dst, values):
    return PreordMorphism(src, dst, SetMap(src.carrier, dst.carrier, tuple(values)))


def every_small_map():
    """The 11 345 monotone maps between preorders on at most three points."""
    objects = [p for n in range(4) for p in enumerate_preorders(n)]
    maps = [f for p in objects for q in objects for f in enumerate_morphisms(p, q)]
    assert len(maps) == 11_345
    return maps


def in_M_disagreements(counterexample):
    """How many of the maps on at most three points get a trivial-covering
    witness from ``counterexample`` other than the oracle's."""
    return sum(counterexample(f) != trivial_covering_by_pairs(f) for f in every_small_map())


def in_M_counterexample_at_greatest_member(f):
    """The trivial-covering witness moved to the greatest member of the
    failing class: right flags, wrong witness."""
    ce = factorization._in_M_counterexample(f)
    if ce is None:
        return None
    a, b = ce
    return (sym_core(f.src).rows[a].bit_length() - 1, b)


def in_M_star_disagreements(counterexample):
    """How many of the maps on at most three points get a covering witness
    from ``counterexample`` other than the oracle's."""
    return sum(counterexample(f) != fibre_poset_by_pairs(f) for f in every_small_map())


def block_maps(rng, count):
    """Seeded maps into the three-point codiscrete order, from equivalences
    of up to three blocks on at most ten points: a covering test can fail
    in several classes, and at several members of one."""
    dst = FinPreorder.codiscrete(3)
    maps = []
    for _ in range(count):
        n = rng.randint(0, 10)
        block = [rng.randrange(3) for _ in range(n)]
        src = FinPreorder.from_edges(
            n, [(a, b) for a in range(n) for b in range(n) if block[a] == block[b]]
        )
        maps.append(morph(src, dst, [rng.randrange(3) for _ in range(n)]))
    return maps


def fibre_poset_counterexample_at_greatest_member(f):
    """The covering witness moved to the greatest member of its class over
    its image, paired with the least: right flags, wrong witness."""
    ce = factorization._fibre_poset_counterexample(f)
    if ce is None:
        return None
    a, _ = ce
    over = sym_core(f.src).rows[a] & f.map.preimage_masks()[f(a)]
    return (over.bit_length() - 1, a)


def cover_fields(b):
    """The labels, rows and values of ``b``'s cover, as ``cover_by_pairs``
    spells them."""
    total, projection = effective_descent_cover(b)
    return total.carrier.labels, total.rel.rows, projection.map.values


class TestFullyFaithful:
    def test_identity(self):
        assert is_fully_faithful(identity_morphism(FinPreorder.chain(2)))

    def test_discrete_into_chain_fails(self):
        f = morph(FinPreorder.discrete(2), FinPreorder.chain(2), (0, 1))
        assert not is_fully_faithful(f)
        assert classify(f).counterexamples["fully_faithful"] == (0, 1)

    def test_codiscrete_to_point(self):
        assert is_fully_faithful(to_point(FinPreorder.codiscrete(2)))


class TestClassify:
    def test_the_target_order_is_pulled_back_once(self, monkeypatch):
        # count real pullbacks, below the memo on the morphism
        pulled = []
        pull = relations._pull
        monkeypatch.setattr(relations, "_pull", lambda f, rows: pulled.append(f) or pull(f, rows))
        unit = reflect(running_example()).unit  # a library result, built unchecked
        classify(unit)
        classify(unit)
        assert pulled == [unit.map]  # shared by fully_faithful, in_E and in_E_bar
        f = morph(running_example(), FinPreorder.chain(2), (0, 0, 1))
        classify(f)
        assert pulled == [unit.map, f.map]  # validation already pulled it back

    def test_fibres_and_cores_are_computed_once(self, monkeypatch):
        # count real fibres and groupings of rows, below the memos on the
        # map and relation
        fibred, grouped = [], []
        fibres, row_classes = relations._fibres, relations.row_classes
        monkeypatch.setattr(relations, "_fibres", lambda m: fibred.append(m) or fibres(m))
        monkeypatch.setattr(
            relations, "row_classes", lambda rows: grouped.append(rows) or row_classes(rows)
        )
        f = morph(running_example(), FinPreorder.chain(2), (0, 0, 1))
        for _ in range(2):
            classify(f)
            reflective_factorization(f)
            monotone_light_factorization(f)
            for p in (f.src, f.dst):
                reflect(p)
                sym_core(p)
                canonical_sequence(p)
                generators(p)
        assert sum(m is f.map for m in fibred) == 1  # descent and the light factorization
        assert len({id(m) for m in fibred}) == len(fibred)
        # the core, the reflection, the generators and the class tests share one grouping
        assert sorted(map(id, grouped)) == sorted(map(id, (f.src.rel.rows, f.dst.rel.rows)))

    def test_filled_memos_die_with_their_owners(self):
        # labels no other test uses, so no earlier equal object is involved
        p = FinPreorder.from_edges(3, [(0, 1), (1, 0), (1, 2)], labels=("k0", "k1", "k2"))
        q = FinPreorder.codiscrete(2, labels=("l0", "l1"))  # its own symmetric core
        f = morph(p, q, (0, 0, 1))
        classify(f)
        reflective_factorization(f)
        monotone_light_factorization(f)
        reflect_morphism(f)
        core = canonical_sequence(p).torsion_part.src
        sym_core(core)
        reflect_morphism(reflect(p).unit)
        space = preorder_to_space(p)
        t0 = t0_reflection(space)
        assert space_to_preorder(t0.space) is reflect(p).poset  # seeded memos
        assert "_walk" in p.rel.__dict__ and "_walk" in q.rel.__dict__  # recorded walks
        refs = [weakref.ref(x) for x in (p, p.rel, q, q.rel, f, f.map, core, core.rel)]
        refs += [weakref.ref(x) for x in (space, t0.space, t0.projection)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del p, q, f, core, space, t0
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()

    def test_poset_morphisms_are_trivial_coverings(self):
        f = morph(FinPreorder.chain(2), FinPreorder.chain(3), (0, 2))
        assert classify(f).in_M

    def test_codiscrete_to_point(self):
        flags = classify(to_point(FinPreorder.codiscrete(2)))
        assert flags.in_E_bar
        assert not flags.in_M_star
        assert flags.regular_epi
        assert flags.effective_descent

    def test_injective_maps_are_coverings(self):
        f = morph(FinPreorder.chain(2), FinPreorder.chain(3), (0, 1))
        assert classify(f).in_M_star

    def test_non_surjective_is_not_effective_descent(self):
        f = morph(FinPreorder.chain(2), FinPreorder.chain(3), (0, 1))
        flags = classify(f)
        assert not flags.effective_descent
        # the witness chain must involve the uncovered element
        assert 2 in flags.counterexamples["effective_descent"]

    def test_empty_morphism_flags(self):
        empty = FinPreorder.discrete(0)
        f = morph(empty, FinPreorder.chain(2), ())
        flags = classify(f)
        assert flags.in_M and flags.in_M_star and flags.fully_faithful
        assert not flags.in_E_bar and not flags.effective_descent
        into_empty = morph(empty, empty, ())
        flags = classify(into_empty)
        assert flags.in_E_bar and flags.effective_descent

    def test_effective_descent_witness_is_the_first_unlifted_chain(self):
        objects = [p for n in range(4) for p in enumerate_preorders(n)]
        seen = 0
        for p in objects:
            for q in objects:
                for f in enumerate_morphisms(p, q):
                    seen += 1
                    first = effective_descent_by_chains(f)
                    assert classify(f).counterexamples.get("effective_descent") == first
        assert seen == 11345

    def test_in_M_witness_is_the_first_failing_pair(self):
        assert in_M_disagreements(factorization._in_M_counterexample) == 0

    def test_in_M_comparison_catches_the_greatest_failing_member(self):
        assert in_M_disagreements(in_M_counterexample_at_greatest_member) > 0

    def test_in_M_star_witness_is_the_first_failing_pair(self):
        assert in_M_star_disagreements(factorization._fibre_poset_counterexample) == 0

    def test_in_M_star_comparison_catches_the_greatest_failing_member(self):
        assert in_M_star_disagreements(fibre_poset_counterexample_at_greatest_member) > 0

    def test_in_M_star_witness_is_the_least_failing_member_across_classes(self):
        maps = block_maps(random.Random(0), 200)
        witnesses = [factorization._fibre_poset_counterexample(f) for f in maps]
        assert sum(ce is not None for ce in witnesses) > 50
        assert witnesses == [fibre_poset_by_pairs(f) for f in maps]

    def test_invariant_validation(self):
        with pytest.raises(ValueError, match="invariant"):
            MorphismClassification(
                fully_faithful=False,
                regular_epi=False,
                in_E=True,
                in_M=False,
                in_E_bar=False,
                in_M_star=True,
                effective_descent=False,
            )

    def test_equal_records_hash_equal(self):
        # the counterexample dict is left out of the hash, not out of equality
        for f in every_small_map():
            record = classify(f)
            flags = {name: getattr(record, name) for name in factorization._FLAG_CHECKS}
            again = MorphismClassification(**flags, counterexamples=dict(record.counterexamples))
            assert again == record and hash(again) == hash(record)

    def test_suites_rebuild_the_unchecked_record(self, monkeypatch):
        # in_E without fully_faithful, as a classify built unchecked could return
        inconsistent = _built(
            MorphismClassification, False, False, True, False, False, False, False, {}
        )
        monkeypatch.setattr(factorization, "classify", lambda f: inconsistent)
        f = identity_morphism(FinPreorder.chain(2))
        assert check_classify_continuous_agreement(f) == (
            "classification invariant violated: in_E without fully_faithful"
        )


def random_fully_faithful(rng, max_size):
    """A seeded fully faithful map: points of a random target, repeats
    allowed, carrying the order pulled back from it."""
    dst = random_preorder(rng, rng.randint(1, max_size))
    values = [rng.randrange(dst.size) for _ in range(rng.randint(0, max_size))]
    carrier = FinPreorder.discrete(len(values)).carrier
    rows = tuple(sum(1 << j for j, w in enumerate(values) if dst.leq(v, w)) for v in values)
    return morph(FinPreorder(carrier, Relation(carrier, carrier, rows)), dst, values)


class TestInEWitness:
    @staticmethod
    def missed_class(f):
        """Whether ``f`` is fully faithful but not in E, and then the
        witness must be the least target point of the first missed class of
        the definitional quotient."""
        if not is_fully_faithful(f) or is_in_E(f):
            return False
        (b,) = classify(f).counterexamples["in_E"]
        unit = reflect_by_quotient(f.dst).unit
        hit = {unit(f(a)) for a in range(f.src.size)}
        assert unit(b) not in hit
        assert all(unit(c) in hit for c in range(b))
        return True

    def test_every_small_map(self):
        objects = [p for n in range(4) for p in enumerate_preorders(n)]
        maps = [f for p in objects for q in objects for f in enumerate_morphisms(p, q)]
        assert len(maps) == 11345
        assert sum(map(self.missed_class, maps)) > 0

    def test_seeded_fully_faithful_maps(self):
        rng = random.Random(0)
        maps = [random_fully_faithful(rng, 40) for _ in range(300)]
        assert all(is_fully_faithful(f) for f in maps)
        assert sum(map(self.missed_class, maps)) > 100


class TestReflectiveFactorization:
    def test_between_posets_first_leg_is_iso(self):
        f = morph(FinPreorder.chain(2), FinPreorder.chain(3), (0, 2))
        result = reflective_factorization(f)
        assert is_isomorphism(result.e)
        assert result.composite.map == f.map

    def test_codiscrete_to_point(self):
        f = to_point(FinPreorder.codiscrete(2))
        result = reflective_factorization(f)
        assert result.mid.size == 1
        assert is_isomorphism(result.m)

    def test_inverted_map_second_leg_is_iso(self):
        unit = reflect(running_example()).unit
        result = reflective_factorization(unit)
        assert is_in_E(unit)
        assert is_isomorphism(result.m)

    @given(sts.monotone_maps(max_size=6))
    @settings(max_examples=40)
    def test_random_certify_and_compose(self, f):
        result = reflective_factorization(f)
        assert is_in_E(result.e)
        assert is_in_M(result.m)
        assert result.composite.map == f.map


class TestMonotoneLightFactorization:
    def test_injective_first_leg_is_iso(self):
        f = morph(FinPreorder.chain(2), FinPreorder.chain(3), (0, 1))
        result = monotone_light_factorization(f)
        assert is_isomorphism(result.e)
        assert result.m.map.values == f.map.values

    def test_codiscrete_to_point(self):
        f = to_point(FinPreorder.codiscrete(2))
        result = monotone_light_factorization(f)
        assert result.mid.size == 1
        assert is_isomorphism(result.m)

    def test_reflection_unit_factors_through_itself(self):
        p = running_example()
        unit = reflect(p).unit
        result = monotone_light_factorization(unit)
        assert result.e.map == unit.map
        assert is_isomorphism(result.m)

    def test_every_small_unit_factors_through_itself(self):
        from preord.oracle import enumerate_preorders

        for n in range(4):
            for p in enumerate_preorders(n):
                unit = reflect(p).unit
                result = monotone_light_factorization(unit)
                assert result.e.map == unit.map
                assert is_isomorphism(result.m)

    def test_covering_kernel_is_reflected_kernel(self):
        f = to_point(running_example())
        result = monotone_light_factorization(f)
        assert n_kernel(result.m).K == reflect(n_kernel(f).K).poset

    @given(sts.monotone_maps(max_size=6))
    @settings(max_examples=40)
    def test_random_certify_and_compose(self, f):
        result = monotone_light_factorization(f)
        assert is_in_E_bar(result.e)
        assert is_in_M_star(result.m)
        assert result.composite.map == f.map


class TestFactorizationResult:
    def test_unknown_system(self):
        legs = reflective_factorization(to_point(running_example()))
        with pytest.raises(ValueError, match="unknown factorization system"):
            FactorizationResult(legs.mid, legs.e, legs.m, "bogus")

    def test_right_leg_outside_the_named_class(self):
        # the identity of two points, discrete into codiscrete: its covering
        # leg is not a trivial covering
        f = morph(FinPreorder.discrete(2), FinPreorder.codiscrete(2), (0, 1))
        legs = monotone_light_factorization(f)
        assert is_in_E(legs.e) and not is_in_M(legs.m)
        with pytest.raises(ValueError, match="m is not in_M"):
            FactorizationResult(legs.mid, legs.e, legs.m, "reflective")

    def test_suites_reject_built_legs_outside_the_named_class(self):
        # the library builds its results unchecked, so the suite check must
        # find what the constructor would have rejected
        f = morph(FinPreorder.discrete(2), FinPreorder.codiscrete(2), (0, 1))
        legs = monotone_light_factorization(f)
        result = _built(FactorizationResult, legs.mid, legs.e, legs.m, "reflective")
        failure = check_factorization_parts(f, result)
        assert failure is not None and "m is not in_M" in failure

    def test_left_leg_outside_the_named_class(self):
        # a point into two codiscrete points: its reflection-inverted leg is
        # not surjective
        f = morph(FinPreorder.discrete(1), FinPreorder.codiscrete(2), (0,))
        legs = reflective_factorization(f)
        assert not is_in_E_bar(legs.e) and is_in_M_star(legs.m)
        with pytest.raises(ValueError, match="e is not in_E_bar"):
            FactorizationResult(legs.mid, legs.e, legs.m, "monotone-light")

    def test_legs_must_meet_in_the_middle(self):
        legs = reflective_factorization(to_point(running_example()))
        other = FinPreorder.discrete(legs.mid.size + 1)
        with pytest.raises(ValueError, match="do not meet"):
            FactorizationResult(other, legs.e, legs.m, "reflective")


def built_mid(rows):
    """A middle object on default labels with the given rows, unchecked."""
    carrier = FinSet(len(rows))
    return _built(FinPreorder, carrier, _built(Relation, carrier, carrier, tuple(rows)))


def built_legs(f, mid, e_values, m_values, system="monotone-light"):
    """A result for ``f`` through ``mid`` with the given leg values, built
    unchecked as the library builds its own."""
    e = _built(PreordMorphism, f.src, mid, _built(SetMap, f.src.carrier, mid.carrier, e_values))
    m = _built(PreordMorphism, mid, f.dst, _built(SetMap, mid.carrier, f.dst.carrier, m_values))
    return _built(FactorizationResult, mid, e, m, system)


CHAIN_2 = identity_morphism(FinPreorder.chain(2))
DISCRETE_2 = identity_morphism(FinPreorder.discrete(2))


class TestFactorizationPartsCheck:
    """``suites.check_factorization_parts`` reports, never raises, on results
    built unchecked, one message per way the parts can fail."""

    @pytest.mark.parametrize("factor", [reflective_factorization, monotone_light_factorization])
    def test_legs_that_do_not_meet_are_reported(self, factor):
        f = identity_morphism(FinPreorder.chain(2))
        legs = factor(f)
        assert legs.mid != f.src
        lands_elsewhere = _built(FactorizationResult, legs.mid, f, legs.m, legs.system)
        starts_elsewhere = _built(FactorizationResult, legs.mid, legs.e, f, legs.system)
        for result in (lands_elsewhere, starts_elsewhere):
            assert check_factorization_parts(f, result) == "legs do not meet in the middle object"

    def test_legs_of_another_morphism_or_on_other_carriers(self):
        f = identity_morphism(FinPreorder.chain(2))
        legs = monotone_light_factorization(f)
        g = identity_morphism(FinPreorder.discrete(2))
        assert check_factorization_parts(g, legs) == "legs do not compose back to the morphism"
        relabelled = _built(SetMap, FinSet(2, ("a", "b")), legs.mid.carrier, legs.e.map.values)
        e = _built(PreordMorphism, f.src, legs.mid, relabelled)
        result = _built(FactorizationResult, legs.mid, e, legs.m, legs.system)
        assert check_factorization_parts(f, result) == "a leg's map does not match its endpoints"

    @pytest.mark.parametrize(
        "f, mid, e_values, m_values, failure",
        [
            (CHAIN_2, built_mid([0b10, 0b10]), (0, 1), (0, 1), "middle object is not a preorder"),
            (
                identity_morphism(FinPreorder.chain(3)),
                built_mid([0b011, 0b110, 0b100]),
                (0, 1, 2),
                (0, 1, 2),
                "middle object is not a preorder",
            ),
            (CHAIN_2, FinPreorder.discrete(2), (0, 1), (0, 1), "first leg is not monotone"),
            (DISCRETE_2, FinPreorder.chain(2), (0, 1), (0, 1), "second leg is not monotone"),
            (
                DISCRETE_2,
                FinPreorder.discrete(2),
                (1, 0),
                (0, 1),
                "legs do not compose back to the morphism",
            ),
        ],
        ids=["not-reflexive", "not-transitive", "first-leg", "second-leg", "composite"],
    )
    def test_each_failure_is_reported(self, f, mid, e_values, m_values, failure):
        assert check_factorization_parts(f, built_legs(f, mid, e_values, m_values)) == failure

    def test_covering_kernel_of_another_factorization(self):
        # the reflective legs of an identity are isomorphisms, so they pass
        # as light legs, but their middle object carries pair labels
        f = identity_morphism(FinPreorder.chain(2))
        legs = reflective_factorization(f)
        result = _built(FactorizationResult, legs.mid, legs.e, legs.m, "monotone-light")
        assert (
            check_factorization_parts(f, result)
            == "covering kernel is not the reflected relative kernel"
        )


def slow_covering_kernel_is_reflected(f, m):
    """The comparison of objects that ``suites._covering_kernel_is_reflected``
    makes on rows."""
    return n_kernel(m).K == reflect(n_kernel(f).K).poset


class TestCoveringKernelOnRows:
    """The light check's kernel comparison on rows agrees with the
    comparison of the objects it stands for, on every light factorization
    of a small map and on three corruptions of each."""

    @staticmethod
    def agree(f, result):
        fast = suites._covering_kernel_is_reflected(f, result.m)
        assert fast == slow_covering_kernel_is_reflected(f, result.m)
        return fast

    def test_every_small_light_factorization(self):
        for f in every_small_map():
            assert self.agree(f, monotone_light_factorization(f))

    def test_a_fibre_pair_dropped_from_the_middle_object(self):
        dropped = 0
        for f in every_small_map():
            light = monotone_light_factorization(f)
            fibres = light.m.map.preimage_masks()
            rows = list(light.mid.rel.rows)
            for c, v in enumerate(light.m.map.values):
                pair = rows[c] & fibres[v] & ~(1 << c)
                if pair:
                    rows[c] &= ~(pair & -pair)
                    break
            else:
                continue
            carrier = light.mid.carrier
            mid = _built(FinPreorder, carrier, _built(Relation, carrier, carrier, tuple(rows)))
            assert not self.agree(f, built_legs(f, mid, light.e.map.values, light.m.map.values))
            dropped += 1
        assert dropped > 0

    def test_e_permuted_inside_a_fibre(self):
        # neither form reads e, so both still accept the covering leg
        permuted = 0
        for f in every_small_map():
            light = monotone_light_factorization(f)
            values = list(light.e.map.values)
            for fibre in f.map.preimage_masks():
                members = list(_bits(fibre))
                if len({values[a] for a in members}) > 1:
                    break
            else:
                continue
            rolled = [values[a] for a in members[1:] + members[:1]]
            for a, v in zip(members, rolled):
                values[a] = v
            assert self.agree(f, built_legs(f, light.mid, tuple(values), light.m.map.values))
            permuted += 1
        assert permuted > 0

    def test_the_middle_carrier_relabelled(self):
        for f in every_small_map():
            light = monotone_light_factorization(f)
            n = light.mid.size
            carrier = FinSet(n, tuple(f"x{c}" for c in range(n)))
            rel = _built(Relation, carrier, carrier, light.mid.rel.rows)
            mid = _built(FinPreorder, carrier, rel)
            result = built_legs(f, mid, light.e.map.values, light.m.map.values)
            assert self.agree(f, result) == (n == 0)


class TestEffectiveDescentCover:
    def test_point_gives_three_chain(self):
        total, projection = effective_descent_cover(FinPreorder.discrete(1))
        assert total == FinPreorder.chain(3, total.carrier.labels)
        assert projection.map.values == (0, 0, 0)

    def test_codiscrete_two(self):
        b = FinPreorder.codiscrete(2)
        total, projection = effective_descent_cover(b)
        assert total.size == 6
        assert total.is_partial_order()
        assert is_effective_descent(projection)
        # one core class: comparabilities are exactly level jumps plus loops
        assert total.rel.count() == 6 + 4 + 4 + 4

    def test_levels_serialize_one_to_three(self):
        total, _ = effective_descent_cover(FinPreorder.discrete(1, ("b",)))
        assert total.carrier.labels == ("({b},1,b)", "({b},2,b)", "({b},3,b)")

    @given(sts.preorders(max_size=25))
    @settings(max_examples=40)
    def test_random_covers(self, b):
        total, projection = effective_descent_cover(b)
        assert total.size == 3 * b.size
        assert total.is_partial_order()
        assert is_effective_descent(projection)
        assert cover_fields(b) == cover_by_pairs(b)

    def test_covers_match_pairs_on_small_preorders(self):
        # every preorder on at most four points, unlabelled and labelled
        count = 0
        for n in range(5):
            for p in enumerate_preorders(n):
                carrier = FinSet(n, sts.ADVERSARIAL_LABELS[:n])
                for b in (p, FinPreorder(carrier, Relation(carrier, carrier, p.rel.rows))):
                    assert cover_fields(b) == cover_by_pairs(b), b
                    count += 1
        assert count == 2 * (1 + 1 + 4 + 29 + 355)

    def test_covers_match_pairs_on_seeded_preorders(self):
        # multi-member classes, and rows far wider than a machine word
        rng = random.Random(5)
        bases = [random_preorder(rng, size) for size in (30, 60, 100, 150, 200)]
        assert all(reflect(b).poset.size < b.size for b in bases)
        for b in bases:
            assert cover_fields(b) == cover_by_pairs(b)


class TestFibrePosetLemma:
    """A covering of a partial order has a partial-order source: the clause
    ``suites.check_m_star_agreement`` adds after its three covering tests."""

    def test_identity_on_poset(self):
        assert check_m_star_agreement(identity_morphism(FinPreorder.chain(3))) is None

    def test_pullback_of_covering_along_cover(self):
        b = running_example()
        covering = morph(FinPreorder.chain(2), b, (0, 2))
        assert is_in_M_star(covering)
        cover = effective_descent_cover(b)
        pulled = preord_pullback(cover.projection, covering).p1
        assert is_in_M_star(pulled) and pulled.dst.is_partial_order()
        assert check_m_star_agreement(pulled) is None
        assert pulled.src.is_partial_order()

    def test_randomized_coverings_over_posets(self):
        # covering legs over partial orders satisfy the premises, so the
        # lemma must conclude that their sources are partial orders
        from preord.oracle import random_monotone_map

        rng = random.Random(4)
        produced = 0
        while produced < 60:
            base = reflect(random_preorder(rng, rng.randint(0, 30))).poset
            src = random_preorder(rng, rng.randint(0, 30))
            mapping = random_monotone_map(rng, src, base)
            if mapping is None:
                continue
            g = PreordMorphism(src, base, mapping)
            covering = monotone_light_factorization(g).m
            assert check_m_star_agreement(covering) is None
            assert covering.src.is_partial_order()
            produced += 1

    def test_fires_when_the_covering_tests_agree_wrongly(self, monkeypatch):
        # codiscrete(2) -> point has a codiscrete fibre; force all three
        # covering tests to call it a covering, so only the lemma can object
        monkeypatch.setattr(factorization, "is_in_M_star", lambda f: True)
        monkeypatch.setattr(suites, "_topological_m_star", lambda f: True)
        monkeypatch.setattr(
            suites, "_relation_predicates", lambda r: suites._Predicates(True, True, True, True)
        )
        assert check_m_star_agreement(to_point(FinPreorder.codiscrete(2))) == (
            "partial-order fibres over a partial order, but the source is not one"
        )


class TestStableUnits:
    def test_unit_of_poset_is_iso_case(self):
        x = FinPreorder.chain(2)
        poset = reflect(x).poset
        g = identity_morphism(poset)
        assert check_stable_units(x, g) is None

    def test_point_probe(self):
        x = running_example()
        poset = reflect(x).poset
        point = FinPreorder.discrete(1)
        for target in range(poset.size):
            g = morph(point, poset, (target,))
            assert check_stable_units(x, g) is None

    def test_codomain_mismatch(self):
        x = running_example()
        with pytest.raises(ValueError, match="codomain mismatch"):
            check_stable_units(x, identity_morphism(x))


class TestPullbackMono:
    def test_kernel_pair_quotient(self):
        src = FinPreorder.from_edges(3, [(0, 1), (1, 0)])
        dst = FinPreorder.discrete(2)
        f = morph(src, dst, (0, 0, 1))
        assert check_pullback_mono(f) is None
        assert reflect_morphism(f).is_injective()

    def test_discrete_refinement_fails_both(self):
        src = FinPreorder.discrete(2)
        dst = FinPreorder.discrete(1)
        f = morph(src, dst, (0, 0))
        assert check_pullback_mono(f) is None
        assert not reflect_morphism(f).is_injective()


class TestOrthogonality:
    def test_identity_left_leg(self):
        p = FinPreorder.chain(2)
        e = identity_morphism(p)
        m = morph(FinPreorder.chain(2), FinPreorder.chain(3), (0, 2))
        u = morph(p, m.src, (0, 1))
        v = compose_morphisms(m, u)
        alpha = check_orthogonality(e, m, u, v)
        assert alpha.map == u.map

    def test_identity_right_leg(self):
        e = to_point(FinPreorder.codiscrete(2))
        m = identity_morphism(FinPreorder.discrete(1))
        u = to_point(FinPreorder.codiscrete(2))
        v = identity_morphism(FinPreorder.discrete(1))
        alpha = check_orthogonality(e, m, u, v)
        assert alpha.map == v.map

    def test_rejects_uncertified_left_leg(self):
        not_e_bar = morph(FinPreorder.discrete(2), FinPreorder.chain(2), (0, 1))
        with pytest.raises(ValueError, match="fully faithful"):
            check_orthogonality(
                not_e_bar,
                identity_morphism(FinPreorder.chain(2)),
                not_e_bar,
                identity_morphism(FinPreorder.chain(2)),
            )

    def test_rejects_non_commuting_square(self):
        p = FinPreorder.discrete(2)
        e = identity_morphism(p)
        m = identity_morphism(p)
        u = morph(p, p, (0, 1))
        v = morph(p, p, (1, 0))
        with pytest.raises(ValueError, match="commute"):
            check_orthogonality(e, m, u, v)


class TestOrthogonalityFailures:
    """The theorem forbids a missing diagonal on certified legs, so the
    class tests are patched to pass uncertified ones."""

    @pytest.fixture(autouse=True)
    def uncertified_legs(self, monkeypatch):
        monkeypatch.setattr(factorization, "is_in_E_bar", lambda f: True)
        monkeypatch.setattr(factorization, "is_in_M_star", lambda f: True)

    def test_top_map_splits_a_fibre(self):
        d2, point = FinPreorder.discrete(2), FinPreorder.discrete(1)
        square = (to_point(d2), to_point(d2), identity_morphism(d2), identity_morphism(point))
        with pytest.raises(OrthogonalityError, match="^no diagonal: top map splits the fibre over 0$"):
            check_orthogonality(*square)

    def test_forced_candidate_is_not_monotone(self):
        d2, c2 = FinPreorder.discrete(2), FinPreorder.chain(2)
        square = (morph(d2, c2, (0, 1)), to_point(d2), identity_morphism(d2), to_point(c2))
        with pytest.raises(OrthogonalityError) as caught:
            check_orthogonality(*square)
        assert str(caught.value) == (
            "no monotone diagonal: not monotone: (0, 1) related but (0, 1) is not"
        )

    def test_uniqueness_check_reports_a_missing_comparison(self, monkeypatch):
        def no_diagonal(e, m, u, v):
            raise OrthogonalityError("no diagonal: top map splits the fibre over 0")

        monkeypatch.setattr(factorization, "check_orthogonality", no_diagonal)
        f = to_point(FinPreorder.discrete(2))
        assert check_factorization_uniqueness(f) == (
            "no comparison between factorizations: no diagonal: top map splits the fibre over 0"
        )


    def test_uniqueness_check_reports_a_wrong_comparison(self, monkeypatch):
        def identity_diagonal(e, m, u, v):
            return identity_morphism(e.dst)

        monkeypatch.setattr(factorization, "check_orthogonality", identity_diagonal)
        f = identity_morphism(FinPreorder.discrete(2))
        assert check_factorization_uniqueness(f) == "comparison is not the transporting isomorphism"


class TestClassAgreements:
    @given(sts.monotone_maps(max_size=6))
    @settings(max_examples=60)
    def test_covering_tests_agree(self, f):
        fibre_test = is_in_M_star(f)
        kernel_test = _relation_predicates(n_kernel(f).K.rel).antisymmetric
        assert fibre_test == kernel_test

    @given(sts.monotone_maps(max_size=5))
    @settings(max_examples=60)
    def test_e_bar_three_way(self, f):
        from preord.relations import direct_image, kernel_pair

        first = is_in_E_bar(f)
        eq = kernel_pair(f.map)
        second = eq.is_subrelation_of(f.src.rel) and is_regular_epi(f)
        third = (
            n_kernel(f).K.rel == eq
            and direct_image(f.map, f.src.rel) == f.dst.rel
        )
        assert first == second == third


def _square(e, m, u, v):
    return lambda: check_orthogonality(e, m, u, v)


ONE, CODISCRETE = identity_morphism(FinPreorder.discrete(1)), FinPreorder.codiscrete(2)

# each refusal of ``check_orthogonality``'s inputs, with its message
REJECTIONS = {
    "top-endpoints": (_square(ONE, ONE, DISCRETE_2, ONE), "square endpoints do not match"),
    "bottom-endpoints": (_square(ONE, ONE, ONE, DISCRETE_2), "square endpoints do not match"),
    "right-leg-not-a-covering": (
        _square(
            identity_morphism(CODISCRETE), to_point(CODISCRETE),
            identity_morphism(CODISCRETE), to_point(CODISCRETE),
        ),
        "right leg is not a covering",
    ),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections_name_their_reason(case):
    build, message = REJECTIONS[case]
    sts.assert_rejects(build, ValueError, message)
