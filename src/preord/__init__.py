"""Finite preorders: the partial-order reflection and its Galois structure.

Core data lives in :mod:`preord.relations`; the equivalence/partial-order
splitting in :mod:`preord.pretorsion`; morphism classes, factorization
systems and descent covers in :mod:`preord.factorization`; the topological
dictionary in :mod:`preord.alexandroff`; brute-force counterparts in
:mod:`preord.oracle`; cross-validation suites in :mod:`preord.suites`; and
document IO plus the CLI in :mod:`preord.docio` and :mod:`preord.cli`.

The package root exports the library layers (relations, pretorsion,
factorization, alexandroff) and their public names; the oracle and the
suites, which verify the library, are imported by module path
(``from preord import oracle``, ``from preord import suites``).  Every
export, the modules that define them included, is imported on first
access (PEP 562), and each CLI command imports only the layers it calls,
so a process compiles only what it runs: ``preord reflect`` never
compiles the factorization or topology layers, and only ``preord check``
compiles the suites and the oracle.
"""

__version__ = "0.1.0"

# exported name -> the module that defines it; each module exports its own name
_EXPORTS = {
    name: module
    for module, names in {
        "alexandroff": """
            AlexandroffSpace ContinuousClassification ContinuousMap T0Reflection
            classify_continuous closure_of_point is_T0 is_partition min_open
            preorder_to_space space_to_preorder subspace t0_reflection
        """,
        "factorization": """
            Cover FactorizationResult MorphismClassification OrthogonalityError
            check_orthogonality classify effective_descent_cover
            is_effective_descent is_fully_faithful is_in_E is_in_E_bar is_in_M
            is_in_M_star is_regular_epi monotone_light_factorization
            reflective_factorization
        """,
        "pretorsion": """
            Decomposition NExactSequence NKernel Reflection canonical_sequence
            decompose generators ideal_factorization in_ideal_N
            n_kernel recompose reflect reflect_morphism sym_core
        """,
        "relations": """
            FinPreorder FinSet PreordMorphism Pullback Relation SetMap
            compose_morphisms compose_relations direct_image graph_relation
            identity_map identity_morphism inverse_image is_isomorphism
            is_pullback_square kernel_pair meet opposite preord_pullback
            reflexive_transitive_closure
        """,
    }.items()
    for name in (module, *names.split())
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, unlike ``importlib.import_module``, shows under ``-X importtime``
    value = __import__(f"{__name__}.{module}", fromlist=[name])
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
