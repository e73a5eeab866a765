import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import spheremat
from spheremat.cli import main
from spheremat.finitegrp import GroupSizeLimitError
from spheremat.intmat import IntMatrix, elementary_matrix, format_matrix, tau_matrix
from spheremat.subgroups import NotInGroupError, classify
from spheremat.words import WordLengthError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def write_matrix(tmp_path):
    counter = iter(range(1000))

    def _write(a):
        path = tmp_path / f"m{next(counter)}.txt"
        path.write_text(format_matrix(IntMatrix(a)))
        return str(path)

    return _write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_member_w2_positive(capsys, write_matrix):
    path = write_matrix([[3, 2], [4, 3]])
    code, payload = run_json(capsys, ["member", path])
    assert code == 0
    assert payload["member"] is True
    assert payload["group"] == "w2"
    assert payload["schema"] == "spheremat/1"


def test_member_w2_negative(capsys, write_matrix):
    path = write_matrix([[1, 1], [0, 1]])
    code, payload = run_json(capsys, ["member", path])
    assert code == 1
    assert payload["member"] is False


def test_member_gamma(capsys, write_matrix):
    path = write_matrix([[1, 3], [0, 1]])
    code, payload = run_json(capsys, ["member", path, "--group", "gamma", "--mod", "3"])
    assert code == 0 and payload["member"] is True
    code, payload = run_json(capsys, ["member", path, "--group", "gamma", "--mod", "2"])
    assert code == 1 and payload["member"] is False


@pytest.mark.parametrize("mod", ["1", "0", "-5"])
def test_member_gamma_small_modulus_is_refused_by_the_library(capsys, write_matrix, mod):
    # the library's modulus rule is the only one: its text, as `enumerate -m 1`
    path = write_matrix([[1, 2], [0, 1]])
    assert main(["member", path, "--group", "gamma", "--mod", mod]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: modulus must be at least 2\n"


def test_member_hr_k_and_class_flags(capsys, write_matrix):
    path = write_matrix([[1, 2], [0, 1]])
    code, payload = run_json(capsys, ["member", path, "--group", "hr", "--k", "5"])
    assert code == 0 and payload["k_class"] == "odd_generic"
    code, payload = run_json(
        capsys, ["member", path, "--group", "hr", "--k-class", "odd"]
    )
    assert code == 0 and payload["k_class"] == "odd_generic"
    code, payload = run_json(
        capsys, ["member", path, "--group", "hr", "--k-class", "even"]
    )
    assert code == 1
    assert main(["member", path, "--group", "hr"]) == 2


def test_member_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", type("S", (), {"read": lambda self: "2\n1 0\n0 1\n"})())
    code, payload = run_json(capsys, ["member", "-"])
    assert code == 0 and payload["member"] is True


def test_member_accepts_trailing_blank_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n1 0\n0 1\n\n \n"))
    code, payload = run_json(capsys, ["member", "-"])
    assert code == 0 and payload["member"] is True
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n1 0\n0 1\n\n7\n"))
    assert main(["member", "-"]) == 2
    assert capsys.readouterr().err == "error: trailing content after matrix block\n"


# ---------------------------------------------------------------------------
# coset certificates
# ---------------------------------------------------------------------------

def test_coset_member(capsys, write_matrix):
    path = write_matrix([[0, -1], [1, 0]])
    code, payload = run_json(capsys, ["coset", path])
    assert code == 0
    assert payload["member"] is True
    assert payload["uses_tau"] is True
    assert payload["verification"] == "OK"


def test_coset_non_member(capsys, write_matrix):
    path = write_matrix([[1, 1], [0, 1]])
    code, payload = run_json(capsys, ["coset", path])
    assert code == 1 and payload["member"] is False


def test_no_verify_is_refused(capsys, write_matrix):
    # every result is checked: no switch skips a check or relabels a result
    path = write_matrix([[1, 0], [0, 1]])
    for argv in (["coset", path], ["decompose", path], ["obstruction", path, "--k-class", "odd"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-verify"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --no-verify" in captured.err


@pytest.mark.parametrize(
    "argv, extras",
    [
        (["induced", "--n", "2", "--construction", "reflection-shear", "--resolution", "256"],
         "--resolution 256"),
        (["coset", "M", "--bogus"], "--bogus"),
        (["coset", "M", "--format", "text"], "--format text"),
        (["member", "M", "--format", "json"], "--format json"),
    ],
    ids=["induced-resolution", "coset-bogus", "coset-format-text", "member-format-json"],
)
def test_unknown_options_are_subcommand_usage_errors(capsys, write_matrix, argv, extras):
    # the resolution and the step are worked out from the input, not set,
    # and the output is always JSON
    matrix = write_matrix([[1, 0], [0, 1]])
    with pytest.raises(SystemExit) as exc:
        main([matrix if arg == "M" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: spheremat {argv[0]} ")
    assert captured.err.endswith(
        f"\nspheremat {argv[0]}: error: unrecognized arguments: {extras}\n"
    )


@pytest.mark.parametrize(
    "argv, prog, extras",
    [
        (["--bogus", "coset", "M"], "spheremat", "--bogus"),
        (["--bogus=1", "coset", "M", "--other"], "spheremat", "--bogus=1"),
        (["coset", "--bogus", "M"], "spheremat coset", "--bogus"),
    ],
    ids=["before", "before-and-after", "between"],
)
def test_unknown_options_are_reported_by_the_parser_they_were_given_to(
    capsys, write_matrix, argv, prog, extras
):
    matrix = write_matrix([[1, 0], [0, 1]])
    with pytest.raises(SystemExit) as exc:
        main([matrix if arg == "M" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} [-h]")
    assert captured.err.endswith(f"\n{prog}: error: unrecognized arguments: {extras}\n")


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def test_decompose_auto_picks_planar_congruence(capsys, write_matrix):
    path = write_matrix([[3, 2], [4, 3]])
    code, payload = run_json(capsys, ["decompose", path])
    assert code == 0
    assert payload["target"] == "gamma2"
    assert payload["verification"] == "OK"
    assert payload["word"] == "NEG E(2,1)^2 E(1,2)^-2 E(2,1)^2"


def test_decompose_sln_target(capsys, write_matrix):
    path = write_matrix([[0, -1], [1, 0]])
    code, payload = run_json(capsys, ["decompose", path, "--target", "sln"])
    assert code == 0 and payload["verification"] == "OK"


def test_decompose_gamman(capsys, write_matrix):
    path = write_matrix([[1, 0, 2], [0, 1, 0], [0, 0, 1]])
    code, payload = run_json(capsys, ["decompose", path, "--target", "gamman"])
    assert code == 0 and payload["member"] is True


def test_decompose_dimension_misuse_is_usage_error(write_matrix):
    three = write_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert main(["decompose", three, "--target", "gamma2"]) == 2
    two = write_matrix([[1, 0], [0, 1]])
    assert main(["decompose", two, "--target", "gamman"]) == 2


def test_decompose_non_member(capsys, write_matrix):
    path = write_matrix([[1, 1], [0, 1]])
    code, payload = run_json(capsys, ["decompose", path, "--target", "gamma2"])
    assert code == 1 and payload["member"] is False
    path2 = write_matrix([[2, 0], [0, 1]])
    code, payload = run_json(capsys, ["decompose", path2, "--target", "sln"])
    assert code == 1 and "determinant" in payload["reason"]


def test_decompose_oversize_word_is_input_error(capsys, monkeypatch, write_matrix):
    import spheremat.words as words

    monkeypatch.setattr(words, "WORD_LETTER_CAP", 1000)
    k = 10**4
    path = write_matrix([[2 * k + 1, 2 * k], [2 * k + 2, 2 * k + 1]])
    assert main(["decompose", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word exceeded 1000 letters\n"


def test_decompose_out_of_memory_is_input_error(capsys, monkeypatch, write_matrix):
    import spheremat.words as words

    def exhausted(a):
        raise MemoryError

    # the CLI looks the decomposition up in `words` when the subcommand runs
    monkeypatch.setattr(words, "decompose_sln", exhausted)
    path = write_matrix([[0, -1], [1, 0]])
    assert main(["decompose", path]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize(
    "rows, target",
    [
        ([[3, 2], [4, 3]], "gamma2"),
        ([[1, 0, 2], [2, 1, 4], [0, 0, 1]], "gamman"),
        ([[2, 1, 0], [1, 1, 0], [0, 0, 1]], "sln"),
    ],
)
def test_decompose_evaluates_its_word_once(capsys, monkeypatch, write_matrix, rows, target):
    import spheremat.words as words

    evaluated = []
    evaluate = words._word_rows

    def counted(n, letters):
        letters = tuple(letters)
        evaluated.append(str(words.GeneratorWord(n, letters)))
        return evaluate(n, letters)

    monkeypatch.setattr(words, "_word_rows", counted)
    code, payload = run_json(capsys, ["decompose", write_matrix(rows), "--target", target])
    assert code == 0 and payload["verification"] == "OK"
    # the library's re-multiplication is the only one
    assert evaluated.count(payload["word"]) == 1


def test_decompose_failed_check_is_verification_failure(capsys, monkeypatch, write_matrix):
    import spheremat.words as words

    wrong = lambda n, letters: IntMatrix.identity(n).rows
    monkeypatch.setattr(words, "_word_rows", wrong)
    path = write_matrix([[3, 2], [4, 3]])
    assert main(["decompose", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failed: dimension-2 decomposition failed re-multiplication\n"
    )


@pytest.mark.parametrize(
    "rows, target, kind",
    [
        ([[3, 2], [4, 3]], "gamma2", "dimension-2"),
        ([[1, 0, 2], [2, 1, 4], [0, 0, 1]], "gamman", "congruence"),
        ([[2, 1, 0], [1, 1, 0], [0, 0, 1]], "sln", "elementary"),
    ],
)
def test_decompose_wrong_word_is_verification_failure(
    capsys, monkeypatch, write_matrix, rows, target, kind
):
    # corrupt the word, not the checker: the elimination loses its last letter
    import spheremat.words as words

    eliminate = words._eliminate

    def truncated(a, step):
        word = eliminate(a, step)
        return words.GeneratorWord(word.n, word.letters[:-1])

    monkeypatch.setattr(words, "_eliminate", truncated)
    assert main(["decompose", write_matrix(rows), "--target", target]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"verification failed: {kind} decomposition failed re-multiplication\n"
    )


@pytest.mark.parametrize(
    "rows, target, most",
    [
        ([[3, 2], [4, 3]], "auto", 2),
        ([[1, 0, 2], [2, 1, 4], [0, 0, 1]], "auto", 2),
        ([[3, 2], [4, 3]], "gamma2", 1),
        ([[1, 0, 2], [2, 1, 4], [0, 0, 1]], "gamman", 1),
    ],
    ids=["auto-n2", "auto-n3", "gamma2", "gamman"],
)
def test_decompose_tests_congruence_at_most(capsys, monkeypatch, write_matrix, rows, target, most):
    # the auto choice and the engine's own gate; no separate CLI gate
    import spheremat.subgroups as subgroups
    import spheremat.words as words

    calls = []
    failure = subgroups._congruence_failure

    def counted(a, m):
        calls.append(m)
        return failure(a, m)

    monkeypatch.setattr(subgroups, "_congruence_failure", counted)
    monkeypatch.setattr(words, "_congruence_failure", counted)
    code, payload = run_json(capsys, ["decompose", write_matrix(rows), "--target", target])
    assert code == 0 and payload["member"] is True
    assert 1 <= len(calls) <= most


_DET_240 = [[7, 3, 5], [2, 9, 4], [6, 1, 8]]


@pytest.mark.parametrize(
    "target, rows, cap",
    [
        ("gamma2", [[1]], None),
        ("gamma2", IntMatrix.identity(3).rows, None),
        ("gamman", [[1]], None),
        ("gamman", IntMatrix.identity(2).rows, None),
        *((target, [[-1, 0], [0, 1]], None) for target in ("auto", "gamma2", "sln")),
        *((target, IntMatrix.diagonal([-1, 1, 1]).rows, None)
          for target in ("auto", "gamman", "sln")),
        ("gamma2", [[2, 1], [1, 1]], None),
        ("gamman", [[2, 1, 0], [1, 1, 0], [0, 0, 1]], None),
        *((target, _DET_240, 3) for target in ("auto", "gamman", "sln")),
    ],
    ids=["gamma2-n1", "gamma2-n3", "gamman-n1", "gamman-n2",
         "auto-det-1-n2", "gamma2-det-1", "sln-det-1-n2",
         "auto-det-1-n3", "gamman-det-1", "sln-det-1-n3",
         "gamma2-not-1-mod-2", "gamman-not-1-mod-2",
         "auto-det-240-cap-3", "gamman-det-240-cap-3", "sln-det-240-cap-3"],
)
def test_decompose_prints_the_librarys_refusal(capsys, monkeypatch, write_matrix, target, rows, cap):
    # `auto` sends every input off the level-2 subgroup to `sln`
    import spheremat.words as words

    if cap is not None:
        monkeypatch.setattr(words, "WORD_LETTER_CAP", cap)
    library = {"auto": words.decompose_sln, "gamma2": words.decompose_gamma2,
               "gamman": words.decompose_gamma_n, "sln": words.decompose_sln}[target]
    with pytest.raises(ValueError) as refusal:
        library(IntMatrix(rows))
    code = main(["decompose", write_matrix(rows), "--target", target])
    captured = capsys.readouterr()
    if refusal.type is NotInGroupError:
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out)["reason"] == str(refusal.value)
    else:
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {refusal.value}\n"


# ---------------------------------------------------------------------------
# identities, obstructions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, seconds", [(17, "11"), (100, "7.8e+04")])
def test_verify_identities_past_the_cap_is_refused_before_any_case(
    capsys, monkeypatch, n, seconds
):
    # the audit's time grows as n^5: unguarded, -n 100 would run for about a day
    audited = []
    monkeypatch.setattr(
        "spheremat.words._checked_rewrite", lambda *args: audited.append(args)
    )
    assert main(["verify-identities", "-n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: an audit at n = {n} would take about {seconds} s "
        "(it grows as n^5 from 8.2 s at n = 16); the cap is n = 16\n"
    )
    assert audited == []


def test_obstruction_verdicts(capsys, write_matrix):
    shear = write_matrix([[1, 2], [0, 1]])
    code, payload = run_json(capsys, ["obstruction", shear, "--k", "5"])
    assert code == 0 and payload["realizable"] is True
    code, payload = run_json(capsys, ["obstruction", shear, "--k-class", "even"])
    assert code == 1
    assert payload["violations"] == [[1, 2, 2]]


def test_obstruction_coefficients_payload(capsys, write_matrix):
    shear = write_matrix([[1, 2], [0, 1]])
    code, payload = run_json(
        capsys, ["obstruction", shear, "--k", "3", "--coefficients"]
    )
    assert code == 0
    block = payload["coefficients"]["1,2"]
    assert block["diag"] == [0, 2]
    assert block["cross"]["1,2"] == 1


@pytest.mark.parametrize("k_class, status", [("odd", 0), ("even", 1)])
def test_obstruction_cross_check_failure_is_verification_failure(
    capsys, monkeypatch, write_matrix, k_class, status
):
    import spheremat.subgroups as subgroups

    path = write_matrix([[1, 2], [0, 1]])
    # while the check passes, the verdict sets the exit code
    code, payload = run_json(capsys, ["obstruction", path, "--k-class", k_class])
    assert code == status and payload["realizable"] is (status == 0)
    monkeypatch.setattr(subgroups, "cross_consistency", lambda a, j, l: False)
    assert main(["obstruction", path, "--k-class", k_class]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failed: cross-coefficient check failed\n"


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

def test_enumerate_matches_formula(capsys):
    code, payload = run_json(capsys, ["enumerate", "-n", "2", "-m", "3"])
    assert code == 0
    assert payload["order"] == 24
    assert payload["matches_formula"] is True


def test_enumerate_custom_generators(capsys, tmp_path):
    gen_file = tmp_path / "gens.txt"
    gen_file.write_text(format_matrix(IntMatrix([[1, 1], [0, 1]])))
    code, payload = run_json(
        capsys,
        ["enumerate", "-n", "2", "-m", "3", "--generators", str(gen_file),
         "--list-elements"],
    )
    assert code == 0
    assert payload["order"] == 3
    assert len(payload["elements"]) == 3
    assert "matches_formula" not in payload


def test_enumerate_size_guard_message(capsys):
    code = main(["enumerate", "-n", "2", "-m", "5", "--max-size", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--max-size" in err


def test_normality_power_subgroup(capsys):
    code, payload = run_json(capsys, ["normality", "-n", "2", "-m", "4", "--power", "2"])
    assert code == 0
    assert payload["normal"] is True
    assert payload["group_order"] == 48


def test_normality_violation_witness(capsys, tmp_path):
    sub_file = tmp_path / "sub.txt"
    sub_file.write_text(format_matrix(IntMatrix([[1, 1], [0, 1]])))
    code, payload = run_json(
        capsys, ["normality", "-n", "2", "-m", "3", "--subgroup", str(sub_file)]
    )
    assert code == 1
    assert payload["normal"] is False
    assert payload["subgroup_order"] == 3
    assert set(payload["violation"]) == {"conjugator", "element", "conjugate"}


def test_normality_needs_subgroup_or_power():
    assert main(["normality", "-n", "2", "-m", "3"]) == 2


@pytest.mark.parametrize("power", ["0", "-3"])
def test_normality_power_rule_is_the_librarys(capsys, power):
    # `finitegrp.power_subgroup` is the one site of the rule; the CLI prints its text
    assert main(["normality", "-n", "2", "-m", "3", "--power", power]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: power must be positive\n"


# ---------------------------------------------------------------------------
# sphere commands
# ---------------------------------------------------------------------------

def test_quat_witness(capsys):
    code, payload = run_json(capsys, ["quat-witness"])
    assert code == 0
    assert payload["confirmed"] is True
    assert payload["max_error"] < 1e-12


def test_degree_identity(capsys):
    code, payload = run_json(
        capsys, ["degree", "--k", "2", "--map", "identity", "--samples", "2000"]
    )
    assert code == 0
    assert payload["nearest_integer"] == 1


def test_degree_power_map(capsys):
    code, payload = run_json(
        capsys,
        ["degree", "--k", "1", "--map", "power", "--power", "-3",
         "--samples", "2000"],
    )
    assert code == 0
    assert payload["nearest_integer"] == -3
    assert main(["degree", "--k", "2", "--map", "power"]) == 2


def test_degree_negative_seed_is_named(capsys):
    argv = ["degree", "--k", "3", "--map", "psi", "--samples", "1000", "--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("step", ["0", "nan", "inf", "-inf"])
def test_degree_rejects_zero_or_nonfinite_step(capsys, step):
    # the step is fixed at 1e-5, so any --step, zero and non-finite ones
    # included, is a usage error of degree rather than a value to check
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            main(["degree", "--k", "1", "--samples", "1000", f"--step={step}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: spheremat degree ")
    assert captured.err.endswith(
        f"\nspheremat degree: error: unrecognized arguments: --step={step}\n"
    )
    assert caught == []


@pytest.mark.parametrize("power", [1000, -1000])
def test_degree_power_at_the_step_bound(capsys, power):
    argv = ["degree", "--k", "1", "--map", "power", "--power", str(power), "--samples", "1000"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["nearest_integer"] == power


@pytest.mark.parametrize(
    "power, product",
    [(1001, "0.01001"), (-1001, "0.01001"), (10**6, "10"), (10**20, "1e+15")],
)
def test_degree_power_past_the_step_bound_is_input_error(capsys, power, product):
    # once exit 0: --power 1000000 printed the estimate -54402.11, stderr 3e-07
    argv = ["degree", "--k", "1", "--map", "power", "--power", str(power), "--samples", "1000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --power {power} gives |r|*h = {product} at the step h = 1e-05; "
        "past 0.01 the estimate drifts from r\n"
    )


def test_induced_matrix_measurement(capsys, write_matrix):
    path = write_matrix([[2, 1], [1, 1]])
    code, payload = run_json(capsys, ["induced", "--n", "2", "--matrix", path])
    assert code == 0
    assert payload["measured"] == [[2, 1], [1, 1]]
    assert payload["matches"] is True


def test_induced_word_and_construction(capsys):
    code, payload = run_json(
        capsys, ["induced", "--n", "2", "--word", "E(1,2)^2 E(2,1)^-2 E(1,2)^2"]
    )
    assert code == 0
    assert payload["measured"] == [[-3, -4], [-2, -3]]
    # a bare ^ once read as ^1: exit 0, measuring [[2, 1], [1, 1]]
    assert main(["induced", "--n", "2", "--word", "E(1,2)^ E(2,1)"]) == 2
    assert capsys.readouterr().err == "error: bad exponent in token 'E(1,2)^'\n"
    code, payload = run_json(
        capsys, ["induced", "--n", "2", "--construction", "reflection-shear"]
    )
    assert code == 0
    assert payload["measured"] == [[-1, 2], [0, 1]]
    code, payload = run_json(
        capsys,
        ["induced", "--n", "2", "--construction", "reflection-shear-conjugated"],
    )
    assert code == 0
    assert payload["measured"] == [[1, 2], [0, 1]]


@pytest.mark.parametrize("b", [257, 1000, -3000])
def test_induced_resolution_follows_the_largest_entry(capsys, write_matrix, b):
    # once exit 3 at the fixed resolution 1024: b = 257 a phase jump near pi,
    # b = 1000 measured -24
    path = write_matrix([[1, b], [0, 1]])
    code, payload = run_json(capsys, ["induced", "--n", "2", "--matrix", path])
    assert code == 0
    assert payload["matches"] is True
    assert payload["measured"] == [[1, b], [0, 1]]
    assert payload["resolution"] == 4 * abs(b) + 1


def test_induced_requires_exactly_one_source(write_matrix):
    path = write_matrix([[1, 0], [0, 1]])
    assert main(["induced", "--n", "2"]) == 2
    assert (
        main(["induced", "--n", "2", "--matrix", path,
              "--construction", "reflection-shear"])
        == 2
    )


@pytest.mark.parametrize("construction", ["reflection-shear", "reflection-shear-conjugated"])
@pytest.mark.parametrize("n", ["0", "1"])
def test_induced_construction_below_two_factors_is_input_error(capsys, n, construction):
    assert main(["induced", "--n", n, "--construction", construction]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least two circle factors\n"


def test_induced_resolution_past_the_memory_cap_is_input_error(capsys, write_matrix):
    # an entry b needs the resolution 4|b| + 1; b = 10^19 once printed numpy
    # RuntimeWarnings before its error
    for b, mib in ((10**12, 976562501), (10**19, 9765625000000001), (10**20, 97656250000000001)):
        path = write_matrix([[1, b], [0, 1]])
        assert main(["induced", "--n", "2", "--matrix", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: resolution {4 * b + 1} at n = 2 needs about {mib} MiB, "
            "over the cap of 1024 MiB\n"
        )


def test_degree_samples_past_the_memory_cap_are_input_error(capsys):
    import spheremat.spheres  # noqa: F401 -- the imports are not the estimate's allocations

    tracemalloc.start()
    try:
        code = main(["degree", "--k", "4", "--samples", "10000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: an estimate of 10000000000 samples on S^4 needs about 1297001 MiB, "
        "over the cap of 1024 MiB\n"
    )


def test_induced_phase_ambiguity_is_verification_failure(capsys, monkeypatch, write_matrix):
    import spheremat.spheres as spheres

    def ambiguous(*args, **kwargs):
        raise spheres.PhaseAmbiguityError("phase jump too close to pi")

    monkeypatch.setattr(spheres, "induced_matrix_on_torus", ambiguous)
    path = write_matrix([[2, 1], [1, 1]])
    assert main(["induced", "--n", "2", "--matrix", path]) == 3
    assert "verification failed: phase jump" in capsys.readouterr().err


def test_hyperbolic(capsys, write_matrix):
    path = write_matrix([[1, 2], [2, 5]])
    code, payload = run_json(capsys, ["hyperbolic", path])
    assert code == 0 and payload["hyperbolic"] is True
    rot = write_matrix([[0, -1], [1, 0]])
    code, payload = run_json(capsys, ["hyperbolic", rot])
    assert code == 1 and payload["hyperbolic"] is False


def test_hyperbolic_words_the_determinant_rule_as_member_does(capsys, write_matrix):
    # det != 1 reads as in `member` and `decompose`, the exact core's text
    path = write_matrix([[3, 0], [0, 1]])
    assert main(["hyperbolic", path]) == 2
    hyperbolic = capsys.readouterr()
    assert main(["member", path]) == 1
    member = json.loads(capsys.readouterr().out)
    assert hyperbolic.out == ""
    assert hyperbolic.err == "error: determinant is 3, need 1\n"
    assert member["reason"] == "determinant is 3, need 1"


def test_ledger_all_green(capsys):
    code, payload = run_json(capsys, ["ledger"])
    assert code == 0
    assert payload["all_ok"] is True
    assert len(payload["entries"]) == 10


# Every subcommand keeps the exit-code contract when the layer it runs fails.
# Each case patches one library function the subcommand looks up when it
# runs; the CLI imports those layers lazily, so the patch must reach it.
# "M" stands for a matrix file.
FAULT_SITES = [
    (["member", "M"], "spheremat.subgroups._w2_failure"),
    (["coset", "M"], "spheremat.subgroups.coset_certificate"),
    (["obstruction", "M", "--k", "2"], "spheremat.subgroups.classify"),
    (["hyperbolic", "M"], "spheremat.cli.hyperbolic_check"),
    (["verify-identities"], "spheremat.words.rewrite_table_audit"),
    (["enumerate", "-n", "2", "-m", "3"], "spheremat.finitegrp.enumerate_group"),
    (["normality", "-n", "2", "-m", "3", "--power", "2"], "spheremat.finitegrp.enumerate_group"),
    (["quat-witness"], "spheremat.spheres.quaternion_collision_witness"),
    (["degree", "--k", "1", "--samples", "100"], "spheremat.spheres.degree_estimate_details"),
    (["ledger"], "spheremat.ledger.run_ledger"),
    (["decompose", "M", "--target", "sln"], "spheremat.words.decompose_sln"),
    (["induced", "--n", "2", "--matrix", "M"], "spheremat.spheres.induced_matrix_on_torus"),
]

FAULTS = [
    pytest.param(MemoryError(), 2, "error: out of memory\n", id="memory"),
    pytest.param(
        AssertionError("injected check"), 3, "verification failed: injected check\n",
        id="assertion",
    ),
    pytest.param(
        GroupSizeLimitError("group exceeds 7 elements"),
        2,
        "error: group exceeds 7 elements (raise --max-size if this is intentional)\n",
        id="group_size",
    ),
    pytest.param(
        WordLengthError("word exceeded 9 letters"), 2, "error: word exceeded 9 letters\n",
        id="word_length",
    ),
    pytest.param(
        TypeError("injected bug"), 3, "internal error: TypeError: injected bug\n",
        id="internal",
    ),
]


@pytest.mark.parametrize("exc, status, stderr", FAULTS)
@pytest.mark.parametrize("argv, site", FAULT_SITES, ids=[a[0] for a, _ in FAULT_SITES])
def test_fault_maps_to_exit_code(capsys, monkeypatch, write_matrix, argv, site, exc, status, stderr):
    def failing(*args, **kwargs):
        raise exc

    matrix = write_matrix([[3, 2], [4, 3]])
    argv = [matrix if arg == "M" else arg for arg in argv]
    monkeypatch.setattr(site, failing)
    assert main(argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr


HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["degree", "--k", "1", "--samples", "1000", "--map", "power", "--power", HUGE], "--power"),
        (["induced", "--n", "2", "--word", f"E(1,2)^{HUGE}"], "exponent of letter 1 (E(1,2))"),
        (["induced", "--n", "2", "--matrix", "M"], "matrix entry (1, 2)"),
    ],
    ids=["degree-power", "induced-word", "induced-matrix"],
)
def test_integer_too_large_for_floats_is_input_error(capsys, write_matrix, argv, named):
    matrix = write_matrix([[1, 10**400], [0, 1]])
    assert main([matrix if arg == "M" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named} is too large for floating point\n"


# ---------------------------------------------------------------------------
# frozen verdicts and their witnesses
# ---------------------------------------------------------------------------

def _verdict_matrices():
    """Seeded matrices, n = 1..5, covering every verdict of the exact subcommands.

    Per n: det-1 products (any residue), level-2, level-3 or -4 members,
    tau times a level-2 member (odd mod-2 class), det -1, signed
    permutations and raw integer matrices (mostly det not +-1).
    """
    rng = random.Random(20261019)

    def product(n, level, letters):
        a = IntMatrix.identity(n)
        for _ in range(letters):
            i, j = rng.sample(range(1, n + 1), 2)
            a = a * elementary_matrix(n, i, j, level * rng.choice([-2, -1, 1, 2]))
        return a

    def signed_permutation(n):
        rows = [[0] * n for _ in range(n)]
        for r, c in enumerate(rng.sample(range(n), n)):
            rows[r][c] = rng.choice([-1, 1])
        return IntMatrix(rows)

    yield IntMatrix([[1]])
    yield IntMatrix([[-1]])
    for n in range(2, 6):
        flip = IntMatrix.diagonal([-1] + [1] * (n - 1))
        for _ in range(2):
            yield product(n, 1, rng.randint(2, 6))
            yield product(n, 2, rng.randint(1, 4))
            yield product(n, rng.choice([3, 4]), rng.randint(1, 3))
            yield tau_matrix(n) * product(n, 2, rng.randint(1, 3))
            yield flip * product(n, rng.choice([1, 2]), rng.randint(1, 4))
            yield signed_permutation(n)
            yield IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def _verdict_argvs(path):
    yield ["member", path]
    for m in ("2", "3", "4"):
        yield ["member", path, "--group", "gamma", "--mod", m]
    for k_class in ("hopf", "odd", "even"):
        yield ["member", path, "--group", "hr", "--k-class", k_class]
    yield ["coset", path]
    for target in ("auto", "gamma2", "gamman", "sln"):
        yield ["decompose", path, "--target", target]
    for k_class in ("hopf", "odd", "even"):
        yield ["obstruction", path, "--k-class", k_class]
    yield ["obstruction", path, "--k-class", "even", "--coefficients"]


def test_cli_verdicts_are_frozen(capsys, write_matrix):
    # digest of exit code, stdout and stderr of 928 calls, reason strings
    # included, as the CLI gave them before the verdicts shared one scan;
    # every call runs the default checks. Re-pinned twice since, each time
    # for stderr only: the 60 decompose calls whose dimension the target
    # refuses print the library's text, and the 32 obstruction calls on
    # non-unimodular input print `member --group hr`'s `determinant d is not +-1`
    records = []
    codes = Counter()
    for a in _verdict_matrices():
        path = write_matrix(a.rows)
        for argv in _verdict_argvs(path):
            code = main(argv)
            captured = capsys.readouterr()
            codes[argv[0], code] += 1
            records.append(f"{code}\n{captured.out}{captured.err}")
    assert len(records) == 928
    # members, non-members and input errors all occur
    assert all(codes[cmd, code] for cmd in ("member", "coset") for code in (0, 1))
    assert all(codes[cmd, code] for cmd in ("decompose", "obstruction") for code in (0, 1, 2))
    digest = hashlib.sha256("\x00".join(records).encode()).hexdigest()
    assert digest == "2a7f4c824d5fde84956a085b63b89d8d575f28662c82a1d8a476366d215aa1f5"


def _other_argvs(files):
    """Calls of the remaining eight subcommands, over their flags and errors."""
    yield from (["verify-identities", "-n", n] for n in ("2", "3", "4"))
    yield ["enumerate", "-n", "2", "-m", "3"]
    yield ["enumerate", "-n", "2", "-m", "2", "--list-elements"]
    yield ["enumerate", "-n", "2", "-m", "3", "--generators", files["upper"]]
    yield ["enumerate", "-n", "2", "-m", "5", "--max-size", "10"]
    yield ["enumerate", "-n", "2", "-m", "1"]
    yield ["normality", "-n", "2", "-m", "3", "--power", "2"]
    yield ["normality", "-n", "2", "-m", "3", "--subgroup", files["upper"]]
    yield ["normality", "-n", "2", "-m", "3"]
    yield ["normality", "-n", "2", "-m", "3", "--power", "0"]
    yield ["normality", "-n", "2", "-m", "3", "--generators", files["upper"],
           "--subgroup", files["lower"]]
    yield ["quat-witness"]
    yield ["hyperbolic", files["cat"]]
    yield ["hyperbolic", files["rot"]]
    yield ["ledger"]
    for map_name in ("identity", "antipodal", "psi", "power"):
        yield ["degree", "--k", "1", "--map", map_name, "--power", "3", "--samples", "1000"]
    yield ["degree", "--k", "2", "--map", "antipodal", "--samples", "1000", "--seed", "4"]
    yield ["induced", "--n", "2", "--matrix", files["cat"]]
    yield ["induced", "--n", "2", "--word", "E(1,2)^2 E(2,1)^-3"]
    yield ["induced", "--n", "2", "--word", "E(1,2)^2 J(1)"]
    yield ["induced", "--n", "2", "--construction", "reflection-shear"]
    yield ["induced", "--n", "3", "--construction", "reflection-shear-conjugated"]
    yield ["induced", "--n", "3", "--matrix", files["cat"]]
    # entry 65 is measured at the default resolution of 1024
    yield ["induced", "--n", "2", "--matrix", files["shear"]]


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def _round_floats(text):
    """Numpy floats to 9 significant digits; round-off below 1e-12 reads 0."""

    def short(match):
        x = float(match.group())
        return "0" if abs(x) < 1e-12 else f"{x:.9g}"

    return _FLOAT.sub(short, text)


def test_other_subcommands_are_frozen(capsys, write_matrix):
    # digest of exit code, stdout and stderr of 29 calls over the eight
    # subcommands the verdict digest leaves out, as the CLI gave them when
    # each handler still wrote its own output, with every measurement at
    # the default resolution and step; the one record re-pinned since is
    # `--power 0`, which prints `power_subgroup`'s text
    files = {
        "upper": write_matrix([[1, 1], [0, 1]]),
        "lower": write_matrix([[1, 0], [1, 1]]),
        "cat": write_matrix([[2, 1], [1, 1]]),
        "rot": write_matrix([[0, -1], [1, 0]]),
        "shear": write_matrix([[1, 65], [0, 1]]),
    }
    records = []
    codes = Counter()
    for argv in _other_argvs(files):
        code = main(argv)
        captured = capsys.readouterr()
        codes[argv[0], code] += 1
        records.append(_round_floats(f"{code}\n{captured.out}{captured.err}"))
    assert len(records) == 29
    assert set(code for _, code in codes) == {0, 1, 2}
    digest = hashlib.sha256("\x00".join(records).encode()).hexdigest()
    assert digest == "94ebf65578caa298a0cfcb528c288966fc0256daa067ad6f1d7b18b3ddf65bd6"


def _run_stdin(argv, a):
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(format_matrix(a))), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@st.composite
def _integer_matrices(draw):
    """Raw integer matrices, or products of elementary letters (det 1) with an
    optional sign flip (det -1), n = 2..5."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        entries = st.integers(-4, 4)
        return IntMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])
    a = IntMatrix.diagonal([draw(st.sampled_from([-1, 1]))] + [1] * (n - 1))
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.permutations(range(1, n + 1)))[:2]
        a = a * elementary_matrix(n, i, j, draw(st.integers(-3, 3)))
    return a


def _brute_violations(a, k_class):
    if k_class == "hopf":
        return []
    bad = (lambda c: c % 2) if k_class == "odd_generic" else (lambda c: c != 0)
    return [
        ((j + 1, l + 1), s + 1)
        for j, l in combinations(range(a.n), 2)
        for s in range(a.n)
        if bad(a.rows[j][s] * a.rows[l][s])
    ]


@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_reasons_name_the_first_witness(a):
    code, payload = _run_stdin(["member", "-"], a)
    det = a.det()
    odd_pairs = [pair for pair, _ in _brute_violations(a, "odd_generic")]
    if det != 1:
        assert code == 1 and payload["reason"] == f"determinant is {det}, need 1"
    elif odd_pairs:
        j, l = min(odd_pairs)
        assert code == 1
        assert payload["reason"] == f"rows {j} and {l} have some odd componentwise product"
    else:
        assert code == 0
    if det in (1, -1):
        for k_class in ("hopf", "odd_generic", "even"):
            verdict = classify(a, k_class)
            assert list(verdict.violations) == _brute_violations(a, k_class)
            assert verdict.realizable == (not verdict.violations)


# ---------------------------------------------------------------------------
# error handling and determinism
# ---------------------------------------------------------------------------

def test_missing_file_is_input_error(capsys):
    assert main(["member", "/nonexistent/matrix.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_matrix_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 0\n0\n")
    assert main(["member", str(bad)]) == 2
    bad.write_text("banana\n")
    assert main(["member", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_file_without_a_matrix_is_input_error(tmp_path, capsys, text):
    empty = tmp_path / "empty.txt"
    empty.write_text(text)
    assert main(["member", str(empty)]) == 2
    assert capsys.readouterr().err == "error: no matrix found\n"


def test_json_output_is_deterministic(capsys, write_matrix):
    path = write_matrix([[3, 2], [4, 3]])
    main(["decompose", path])
    first = capsys.readouterr().out
    main(["decompose", path])
    second = capsys.readouterr().out
    assert first == second
    code, payload = run_json(
        capsys, ["degree", "--k", "1", "--map", "psi", "--samples", "1500", "--seed", "9"]
    )
    first_estimate = payload["estimate"]
    code, payload = run_json(
        capsys, ["degree", "--k", "1", "--map", "psi", "--samples", "1500", "--seed", "9"]
    )
    assert payload["estimate"] == first_estimate


def test_console_entry_point_runs():
    # the child interpreter gets this checkout's src on its path, as in test_imports
    src = str(Path(spheremat.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "spheremat.cli", "quat-witness"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["confirmed"] is True
