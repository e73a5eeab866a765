import os
import subprocess
import sys
from pathlib import Path

import pytest

import spheremat

SRC = str(Path(spheremat.__file__).resolve().parent.parent)


def run_python(code, stdin=""):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


# sorted(dir(spheremat)) right after `import spheremat`, as it was when the
# package imported its exact modules eagerly
PACKAGE_DIR = [
    "AlgebraElement", "CollisionWitness", "CosetCertificate", "E", "FiniteGroupTable",
    "GeneratorSymbol", "GeneratorWord", "GroupSizeLimitError", "IndexCheckReport",
    "IntMatrix", "J", "JR", "K_CLASSES", "K_EVEN", "K_HOPF", "K_ODD", "LedgerEntry",
    "LedgerResult", "MatrixFormatError", "MembershipCheck", "NEG", "NotInGroupError",
    "ObstructionReport", "ObstructionVerdict", "P", "Permutation",
    "PhaseAmbiguityError", "ResidueMatrix", "TAU", "WordLengthError", "_LAZY",
    "_LAZY_MODULE", "__builtins__", "__cached__", "__dir__", "__doc__", "__file__",
    "__getattr__", "__loader__", "__name__", "__package__", "__path__", "__spec__",
    "__version__", "all_entries", "antipodal_map", "classify", "complex_unit",
    "compose_maps", "congruence_generators", "conjugacy_classes", "conjugate_rewrite",
    "coset_certificate", "coset_representatives", "count_hR_even", "cross_consistency",
    "decompose_gamma2", "decompose_gamma_n", "decompose_sln", "degree_estimate",
    "degree_estimate_details", "elementary_generators_mod", "elementary_matrix",
    "enumerate_group", "find_normality_violation", "finitegrp", "format_matrix",
    "hR_member", "hyperbolic_check", "importlib", "in_W2", "in_congruence",
    "index_check", "induced_matrix_on_torus", "intmat", "is_congruence_word",
    "is_normal", "is_signed_permutation", "jrange_expand", "k_to_class", "ledger",
    "mod2_class", "normal_subgroups", "obstruction", "octonion_unit", "p_a_eval",
    "p_a_torus_map", "p_ij_eval", "p_word_torus_map", "parse_matrices", "parse_matrix",
    "parse_word", "permutation", "power_subgroup", "pre_dot", "psi_eval", "psi_map",
    "quaternion", "quaternion_collision_witness", "random_congruence_word",
    "random_sln", "reflection_shear_torus_map", "representative_matrix",
    "rewrite_table_audit", "run_ledger", "search_congruence_word", "sl_order",
    "slot_conjugation_torus_map", "spheres", "subgroups", "symbol_matrix",
    "tangent_frame", "tau_matrix", "uniform_sphere_samples", "whitehead_coeffs",
    "word_to_matrix", "word_to_str", "words",
]


def test_import_loads_no_submodule():
    code = (
        "import sys\n"
        "import spheremat\n"
        "print(sorted(m for m in sys.modules if m.startswith('spheremat.')))\n"
        "print(sorted(dir(spheremat)))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    loaded, names = proc.stdout.splitlines()
    assert loaded == "[]"
    assert names == repr(PACKAGE_DIR)


UNIT_W2 = "2\n3 2\n4 3\n"
EXACT_SKIPS = ["dataclasses", "spheremat.words", "spheremat.finitegrp", "numpy"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(["member", "-"], EXACT_SKIPS, id="member"),
        pytest.param(["coset", "-"], EXACT_SKIPS, id="coset"),
        pytest.param(["obstruction", "-", "--k", "2"], EXACT_SKIPS, id="obstruction"),
        pytest.param(["hyperbolic", "-"], EXACT_SKIPS, id="hyperbolic"),
        pytest.param(
            ["verify-identities", "-n", "3"],
            ["dataclasses", "spheremat.finitegrp", "spheremat.obstruction", "numpy"],
            id="verify-identities",
        ),
        pytest.param(
            ["decompose", "-"],
            ["dataclasses", "spheremat.finitegrp", "spheremat.obstruction", "numpy"],
            id="decompose",
        ),
        # `spheres` names `GeneratorWord` in an annotation only
        pytest.param(["quat-witness"], ["dataclasses", "spheremat.words"], id="quat-witness"),
        pytest.param(
            ["degree", "--k", "1", "--samples", "1000"],
            ["dataclasses", "spheremat.words"],
            id="degree",
        ),
        pytest.param(
            ["enumerate", "-n", "2", "-m", "3"],
            ["dataclasses", "spheremat.words", "spheremat.obstruction", "numpy"],
            id="enumerate",
        ),
        pytest.param(
            ["normality", "-n", "2", "-m", "4", "--power", "2"],
            ["dataclasses", "spheremat.words", "spheremat.obstruction", "numpy"],
            id="normality",
        ),
    ],
)
def test_subcommand_loads_only_its_layers(argv, absent):
    code = (
        "import sys\n"
        "import spheremat.cli\n"
        f"spheremat.cli.main({argv!r})\n"
        f"print([m for m in {absent!r} if m in sys.modules], file=sys.stderr)\n"
    )
    proc = run_python(code, stdin=UNIT_W2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_exact_path_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "loaded = []\n"
        "import spheremat\n"
        "loaded.append('numpy' in sys.modules)\n"
        "import spheremat.cli\n"
        "loaded.append('numpy' in sys.modules)\n"
        "code = spheremat.cli.main(['member', '-'])\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    proc = run_python(code, stdin="2\n3 2\n4 3\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 [False, False, False]"
    assert '"member": true' in proc.stdout


@pytest.mark.parametrize(
    "argv, stdin, status, needle",
    [
        (["enumerate", "-n", "2", "-m", "5"], "", 0, '"order": 120'),
        (["normality", "-n", "2", "-m", "4", "--power", "2"], "", 0, '"normal": true'),
        (["normality", "-n", "2", "-m", "5", "--subgroup", "-"], "2\n1 1\n0 1\n", 1, '"normal": false'),
    ],
)
def test_group_subcommands_leave_numpy_unloaded(argv, stdin, status, needle):
    code = (
        "import sys\n"
        "import spheremat.cli\n"
        f"code = spheremat.cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = run_python(code, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{status} False"
    assert needle in proc.stdout


def test_numerical_names_resolve_lazily():
    from spheremat import PhaseAmbiguityError, psi_map, run_ledger

    assert callable(psi_map) and callable(run_ledger)
    assert issubclass(PhaseAmbiguityError, RuntimeError)
    assert spheremat.spheres.psi_map is psi_map
    assert spheremat.ledger.run_ledger is run_ledger
    for name in dir(spheremat):
        getattr(spheremat, name)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        spheremat.no_such_name
