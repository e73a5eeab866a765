"""Integer matrix groups and the sphere-product self-maps they induce.

The package splits into exact integer machinery (matrices, permutations,
group membership, generator words) and floating-point machinery (algebra
elements, mapping degrees, torus windings). Everything exact stays exact:
determinants, decompositions and rewrites are computed over Python ints
and re-verified by multiplication before they are returned.
"""

import importlib

# Every public name resolves on first use (PEP 562), so `import spheremat`
# loads no submodule and each caller pays only for the layers it touches;
# the numerical modules need numpy, the exact core does not.
_LAZY = {
    "intmat": (
        "IntMatrix",
        "MatrixFormatError",
        "ResidueMatrix",
        "elementary_matrix",
        "format_matrix",
        "hyperbolic_check",
        "parse_matrices",
        "parse_matrix",
        "tau_matrix",
    ),
    "permutation": ("Permutation",),
    "subgroups": (
        "CosetCertificate",
        "K_CLASSES",
        "K_EVEN",
        "K_HOPF",
        "K_ODD",
        "MembershipCheck",
        "NotInGroupError",
        "ObstructionReport",
        "ObstructionVerdict",
        "classify",
        "coset_certificate",
        "coset_representatives",
        "count_hR_even",
        "cross_consistency",
        "hR_member",
        "in_W2",
        "in_congruence",
        "is_signed_permutation",
        "k_to_class",
        "mod2_class",
        "pre_dot",
        "representative_matrix",
        "whitehead_coeffs",
    ),
    "words": (
        "E",
        "GeneratorSymbol",
        "GeneratorWord",
        "J",
        "JR",
        "NEG",
        "P",
        "TAU",
        "WordLengthError",
        "congruence_generators",
        "conjugate_rewrite",
        "decompose_gamma2",
        "decompose_gamma_n",
        "decompose_sln",
        "is_congruence_word",
        "jrange_expand",
        "parse_word",
        "random_congruence_word",
        "random_sln",
        "rewrite_table_audit",
        "symbol_matrix",
        "word_to_matrix",
        "word_to_str",
    ),
    "finitegrp": (
        "FiniteGroupTable",
        "GroupSizeLimitError",
        "conjugacy_classes",
        "elementary_generators_mod",
        "enumerate_group",
        "find_normality_violation",
        "is_normal",
        "normal_subgroups",
        "power_subgroup",
        "sl_order",
    ),
    "spheres": (
        "AlgebraElement",
        "CollisionWitness",
        "PhaseAmbiguityError",
        "antipodal_map",
        "complex_unit",
        "compose_maps",
        "degree_estimate",
        "degree_estimate_details",
        "induced_matrix_on_torus",
        "octonion_unit",
        "p_a_eval",
        "p_a_torus_map",
        "p_ij_eval",
        "p_word_torus_map",
        "psi_eval",
        "psi_map",
        "quaternion",
        "quaternion_collision_witness",
        "reflection_shear_torus_map",
        "slot_conjugation_torus_map",
        "tangent_frame",
        "uniform_sphere_samples",
    ),
    "ledger": ("LedgerEntry", "LedgerResult", "all_entries", "run_ledger"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULE))


__version__ = "0.1.0"
