"""Finite preorders: the partial-order reflection and its Galois structure.

Core data lives in :mod:`preord.relations`; the equivalence/partial-order
splitting in :mod:`preord.pretorsion`; morphism classes, factorization
systems and descent covers in :mod:`preord.factorization`; the topological
dictionary in :mod:`preord.alexandroff`; brute-force counterparts in
:mod:`preord.oracle`; cross-validation suites in :mod:`preord.suites`; and
document IO plus the CLI in :mod:`preord.docio` and :mod:`preord.cli`.
"""

from .alexandroff import (
    AlexandroffSpace,
    ContinuousClassification,
    ContinuousMap,
    T0Reflection,
    classify_continuous,
    closure_of_point,
    is_T0,
    is_partition,
    min_open,
    preorder_to_space,
    space_to_preorder,
    subspace,
    t0_reflection,
)
from .factorization import (
    Cover,
    FactorizationResult,
    MorphismClassification,
    OrthogonalityError,
    check_orthogonality,
    classify,
    effective_descent_cover,
    fibre_poset_lemma,
    is_effective_descent,
    is_fully_faithful,
    is_in_E,
    is_in_E_bar,
    is_in_M,
    is_in_M_star,
    is_regular_epi,
    monotone_light_factorization,
    pullback_mono_check,
    reflective_factorization,
    verify_stable_units,
)
from .pretorsion import (
    Decomposition,
    NExactSequence,
    NKernel,
    Reflection,
    canonical_sequence,
    decompose,
    generators,
    hom_is_trivial,
    ideal_factorization,
    in_ideal_N,
    n_kernel,
    recompose,
    reflect,
    reflect_morphism,
    sym_core,
)
from .relations import (
    FinPreorder,
    FinSet,
    PreordMorphism,
    Pullback,
    Relation,
    RelationPredicates,
    SetMap,
    compose_morphisms,
    compose_relations,
    direct_image,
    graph_relation,
    identity_map,
    identity_morphism,
    inverse_image,
    is_isomorphism,
    is_pullback_square,
    kernel_pair,
    meet,
    opposite,
    preord_pullback,
    reflexive_transitive_closure,
    relation_predicates,
    relation_square_is_pullback,
)

__version__ = "0.1.0"

# The oracle is the brute-force authority that only the suites and tests
# call, so it and its exports are imported on first access (PEP 562): a
# command that never checks does not compile it.
_ORACLE_EXPORTS = (
    "EnumerationCapError",
    "brute_force_in_N",
    "enumerate_morphisms",
    "enumerate_preorders",
)

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | {"oracle", *_ORACLE_EXPORTS}
)


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_EXPORTS:
        import importlib

        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
