import hashlib
import os
import random
import re
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from spheremat.intmat import IntMatrix, elementary_matrix
from spheremat.permutation import Permutation
from spheremat.subgroups import in_congruence
import spheremat.words as words_module
from spheremat.cli import main
from spheremat.words import (
    E,
    GeneratorSymbol,
    GeneratorWord,
    J,
    JR,
    NEG,
    P,
    TAU,
    WordLengthError,
    congruence_generators,
    conjugate_rewrite,
    decompose_gamma2,
    decompose_gamma_n,
    decompose_sln,
    is_congruence_word,
    jrange_expand,
    parse_word,
    random_congruence_word,
    random_sln,
    rewrite_table_audit,
    symbol_matrix,
    word_to_matrix,
    word_to_str,
)
from spheremat.subgroups import NotInGroupError


# ---------------------------------------------------------------------------
# symbols and words
# ---------------------------------------------------------------------------

def test_symbol_matrix_examples():
    assert symbol_matrix(E(1, 2), 2) == IntMatrix([[1, 1], [0, 1]])
    assert symbol_matrix(J(1), 3) == IntMatrix.diagonal([-1, -1, 1])
    assert symbol_matrix(TAU, 3) == IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert symbol_matrix(NEG, 2) == IntMatrix.diagonal([-1, -1])
    assert symbol_matrix(JR(1, 3), 3) == IntMatrix.diagonal([-1, 1, -1])
    cyc = Permutation.from_cycles(3, [(1, 2, 3)])
    assert symbol_matrix(P(cyc), 3) == cyc.matrix()


def test_symbol_matrix_range_errors():
    with pytest.raises(ValueError):
        symbol_matrix(E(1, 3), 2)
    with pytest.raises(ValueError):
        symbol_matrix(J(3), 3)  # J(i) needs i < n
    with pytest.raises(ValueError):
        symbol_matrix(NEG, 3)
    with pytest.raises(ValueError):
        symbol_matrix(P(Permutation.identity(3)), 4)
    with pytest.raises(ValueError, match="does not fit"):
        symbol_matrix(JR(1, 4), 3)
    with pytest.raises(ValueError, match="tau requires"):
        GeneratorWord(1, ((TAU, -5),)).matrix()


def test_zero_exponent_letter_rejected():
    with pytest.raises(ValueError, match="nonzero exponent"):
        GeneratorWord(2, ((E(1, 2), 0),))


def test_odd_permutation_letters_rejected():
    with pytest.raises(ValueError, match="^P requires an even permutation$"):
        P(Permutation.transposition(3, 1, 2))


def test_symbol_rejects_equal_indices():
    with pytest.raises(ValueError):
        E(2, 2)
    with pytest.raises(ValueError):
        JR(1, 1)


def test_word_to_matrix_examples():
    assert word_to_matrix(GeneratorWord(3, ())) == IntMatrix.identity(3)
    assert word_to_matrix(GeneratorWord(2, ((E(1, 2), 2),))) == IntMatrix(
        [[1, 2], [0, 1]]
    )
    two_flips = GeneratorWord(3, ((J(1), 1), (J(2), 1)))
    assert word_to_matrix(two_flips) == IntMatrix.diagonal([-1, 1, -1])


def test_word_inverse():
    rng = random.Random(3)
    for n in (2, 3, 4):
        w = random_congruence_word(n, rng, max_letters=10)
        assert (w.matrix() * w.inverse().matrix()) == IntMatrix.identity(n)


def test_word_serialization_roundtrip():
    w = GeneratorWord(
        4,
        (
            (E(1, 2), 2),
            (J(3), 1),
            (JR(1, 4), 1),
            (E(4, 2), -6),
            (TAU, 1),
            (P(Permutation.from_cycles(4, [(1, 2, 3)])), 1),
        ),
    )
    text = word_to_str(w)
    assert parse_word(text, 4).matrix() == w.matrix()
    assert parse_word("<empty>", 3) == GeneratorWord(3, ())


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("E(1,2)^x", 2)
    with pytest.raises(ValueError, match="bad exponent in token 'E\\(1,2\\)\\^'"):
        parse_word("E(1,2)^ E(2,1)", 2)
    with pytest.raises(ValueError):
        parse_word("Q(1,2)", 2)


def test_parse_word_reuses_symbols_and_never_caches_an_error():
    text = "P[(1,2,3)] E(1,2)^2 P[(1,2,3)]^-1 E(1,2)"
    first, second = parse_word(text, 3), parse_word(text, 3)
    assert first == second
    assert first.letters[0][0] is first.letters[2][0] is second.letters[0][0]
    assert first.letters[0][0] == P(Permutation.from_cycles(3, [(1, 2, 3)]))
    # the same token in another dimension is parsed for that dimension
    assert parse_word("P[(1,2,3)]", 4).letters[0][0].sigma.n == 4
    for _ in range(2):
        with pytest.raises(ValueError, match="^P requires an even permutation$"):
            parse_word("P[(1,2)]", 3)
        with pytest.raises(ValueError, match="^cycle point 4 out of range 1..3$"):
            parse_word("P[(2,3,4)]", 3)
        with pytest.raises(ValueError, match="^unrecognized token 'Q\\(1,2\\)'$"):
            parse_word("Q(1,2)", 2)


@pytest.mark.parametrize(
    "token, what",
    [("E(1,x)", "index"), ("JR(x,2)", "index"), ("J(x)", "index"), ("P[(1,x)]", "cycle point")],
)
def test_a_bad_index_names_its_token(capsys, token, what):
    text = f"bad {what} in token {token!r}"
    cached = words_module._parse_symbol.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            parse_word(f"{token}^2", 2)
    assert words_module._parse_symbol.cache_info().currsize == cached
    assert main(["induced", "--n", "2", "--word", token]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {text}\n")


def test_is_congruence_word():
    assert is_congruence_word(GeneratorWord(3, ((E(1, 2), 2), (J(1), 1))))
    assert not is_congruence_word(GeneratorWord(3, ((E(1, 2), 1),)))
    assert not is_congruence_word(GeneratorWord(3, ((TAU, 1),)))
    assert is_congruence_word(GeneratorWord(2, ((NEG, 1),)))


# ---------------------------------------------------------------------------
# sign-pair expansion
# ---------------------------------------------------------------------------

def test_jrange_examples():
    assert jrange_expand(1, 2, 3).letters == ((J(1), 1),)
    assert jrange_expand(1, 3, 3).letters == ((J(1), 1), (J(2), 1))
    assert jrange_expand(2, 1, 3).letters == jrange_expand(1, 2, 3).letters
    assert jrange_expand(1, 3, 3).matrix() == IntMatrix.diagonal([-1, 1, -1])
    with pytest.raises(ValueError):
        jrange_expand(1, 1, 3)
    with pytest.raises(ValueError):
        jrange_expand(1, 5, 3)


def test_jrange_exhaustive_small():
    for n in range(2, 6):
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i == k:
                    continue
                got = jrange_expand(i, k, n).matrix()
                want = IntMatrix.diagonal(
                    [-1 if r + 1 in (i, k) else 1 for r in range(n)]
                )
                assert got == want


# ---------------------------------------------------------------------------
# conjugation rewrites
# ---------------------------------------------------------------------------

def test_rewrite_disjoint_indices_passes_through():
    w = conjugate_rewrite((E(1, 2), 1), (E(3, 4), 2), 4)
    assert w.letters == ((E(3, 4), 2),)


def test_rewrite_shared_column_case():
    w = conjugate_rewrite((E(1, 3), 1), (E(2, 1), 2), 3)
    assert w.letters == ((E(2, 1), 2), (E(2, 3), -2))
    lhs = (
        symbol_matrix(E(1, 3), 3)
        * symbol_matrix(E(2, 1), 3) ** 2
        * symbol_matrix(E(1, 3), 3) ** -1
    )
    assert w.matrix() == lhs


def test_rewrite_opposite_pair_case_planar_block():
    # fully overlapping indices produce the one case that needs a sign pair
    w = conjugate_rewrite((E(1, 2), 1), (E(2, 1), 2), 2)
    assert w.matrix() == IntMatrix([[3, -2], [2, -1]])


def test_rewrite_output_is_congruence_word():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.choice([3, 4, 5])
        indices = rng.sample(range(1, n + 1), 2)
        e_letter = (E(indices[0], indices[1]), rng.choice([1, -1]))
        if rng.random() < 0.5:
            k, l = rng.sample(range(1, n + 1), 2)
            g_letter = (E(k, l), 2)
        else:
            g_letter = (J(rng.randint(1, n - 1)), 1)
        w = conjugate_rewrite(e_letter, g_letter, n)
        assert is_congruence_word(w)
        e_mat = symbol_matrix(e_letter[0], n) ** e_letter[1]
        g_mat = symbol_matrix(g_letter[0], n) ** g_letter[1]
        assert w.matrix() == e_mat * g_mat * e_mat.inverse_unimodular()


@pytest.mark.parametrize(
    "e_letter, g_letter, error",
    [
        ((E(1, 2), 1), (E(2, 3), 2.0), "exponent 2.0 is not an integer"),
        ((E(1, 2), 1.0), (E(2, 3), 2), "exponent 1.0 is not an integer"),
        ((E(1, 2), 1), (E(2, 3), 2), None),
    ],
)
def test_rewrite_rejects_non_integer_exponents(e_letter, g_letter, error):
    if error is None:
        assert conjugate_rewrite(e_letter, g_letter, 3).letters == ((E(1, 3), 2), (E(2, 3), 2))
    else:
        with pytest.raises(ValueError) as info:
            conjugate_rewrite(e_letter, g_letter, 3)
        assert str(info.value) == error


def test_rewrite_table_audit_all_verified():
    for n, total in ((3, 96), (4, 360)):
        reports = rewrite_table_audit(n)
        assert len(reports) == 16
        assert all(not r.corrected for r in reports)
        assert all(r.status == "VERIFIED" for r in reports)
        assert sum(r.instances for r in reports) == total
    # n=3 leaves no room outside a 2x2 block, so full coverage needs n=4
    assert all(r.instances > 0 for r in rewrite_table_audit(4))


def test_rewrite_table_audit_rejects_small_n():
    with pytest.raises(ValueError):
        rewrite_table_audit(2)


def test_rewrite_tables_are_frozen():
    # digest of the family index and word of every rewrite E(i,j)^+-1 across
    # each E(k,l)^2 and J(k), and of every audit report, at n = 3..6, as the
    # separate case tables and case-index functions gave them
    parts = []
    for n in range(3, 7):
        for sign in (1, -1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for g in congruence_generators(n):
                        case, _ = words_module._table_rewrite((E(i, j), sign), g, n)
                        parts.append(f"{case} {conjugate_rewrite((E(i, j), sign), g, n)}")
        parts.extend(repr(report) for report in rewrite_table_audit(n))
    assert len(parts) == 3580
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "fd3acc07f59121a82a39eae54b9cc6ee20b5bae111b75d18f13cc923c920956e"


def test_wrong_table_entry_fails_loudly(monkeypatch, capsys):
    # family 5 is E(i,j)^-1 across E(k,l)^2 with j != k, i == l; give it the
    # sign +1 word, which is wrong there: nothing searches for a replacement
    table = words_module._table_rewrite

    def broken(e_letter, g_letter, n):
        case, letters = table(e_letter, g_letter, n)
        if case == 5:
            return case, table((e_letter[0], 1), g_letter, n)[1]
        return case, letters

    monkeypatch.setattr(words_module, "_table_rewrite", broken)
    with pytest.raises(AssertionError, match=r"^rewrite table family 5 \(E-1\.E2\.E\) is wrong"):
        conjugate_rewrite((E(1, 2), -1), (E(3, 1), 2), 3)
    with pytest.raises(AssertionError):
        rewrite_table_audit(3)
    assert main(["verify-identities", "-n", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")


# ---------------------------------------------------------------------------
# decomposition: dimension 2
# ---------------------------------------------------------------------------

def bfs_gamma2_reachable(target, max_len=8):
    """Independent oracle: BFS over right-multiplications by the generators."""
    gens = [
        elementary_matrix(2, 1, 2, 2),
        elementary_matrix(2, 1, 2, -2),
        elementary_matrix(2, 2, 1, 2),
        elementary_matrix(2, 2, 1, -2),
        -IntMatrix.identity(2),
    ]
    start = IntMatrix.identity(2)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        depth = seen[x]
        if x == target:
            return depth
        if depth == max_len:
            continue
        for g in gens:
            y = x * g
            if y not in seen:
                seen[y] = depth + 1
                queue.append(y)
    return None


def test_gamma2_frozen_examples():
    assert decompose_gamma2(IntMatrix([[1, 2], [0, 1]])).letters == ((E(1, 2), 2),)
    assert decompose_gamma2(-IntMatrix.identity(2)).letters == ((NEG, 1),)
    assert decompose_gamma2(IntMatrix.identity(2)).letters == ()


def test_gamma2_worked_example_reachable_and_decomposed():
    target = IntMatrix([[3, 2], [4, 3]])
    assert bfs_gamma2_reachable(target) is not None
    word = decompose_gamma2(target)
    assert word.matrix() == target
    # deterministic output, frozen after verification by re-multiplication
    assert word_to_str(word) == "NEG E(2,1)^2 E(1,2)^-2 E(2,1)^2"


def test_gamma2_rejects_non_members():
    with pytest.raises(NotInGroupError):
        decompose_gamma2(elementary_matrix(2, 1, 2))
    with pytest.raises(ValueError):
        decompose_gamma2(IntMatrix.identity(3))


def test_gamma2_random_roundtrip():
    rng = random.Random(20240815)
    for _ in range(200):
        a = random_congruence_word(2, rng, max_letters=20).matrix()
        word = decompose_gamma2(a)
        assert is_congruence_word(word)
        assert word.matrix() == a


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gamma2_roundtrip_property(seed):
    rng = random.Random(seed)
    a = random_congruence_word(2, rng, max_letters=15).matrix()
    assert decompose_gamma2(a).matrix() == a


# ---------------------------------------------------------------------------
# decomposition: dimension >= 3
# ---------------------------------------------------------------------------

def test_gamma_n_frozen_examples():
    assert decompose_gamma_n(IntMatrix.identity(3)).letters == ()
    j1 = IntMatrix.diagonal([-1, -1, 1])
    assert decompose_gamma_n(j1).letters == ((J(1), 1),)


def test_gamma_n_rejects():
    with pytest.raises(ValueError):
        decompose_gamma_n(IntMatrix.identity(2))
    with pytest.raises(NotInGroupError):
        decompose_gamma_n(elementary_matrix(3, 1, 2))


def test_gamma_n_random_roundtrip():
    rng = random.Random(31415)
    for _ in range(120):
        n = rng.choice([3, 4, 5])
        a = random_congruence_word(n, rng, max_letters=15).matrix()
        word = decompose_gamma_n(a)
        assert is_congruence_word(word)
        assert in_congruence(word.matrix(), 2)
        assert word.matrix() == a


def test_gamma_n_conjugate_closure_witness():
    # conjugating a generator by any unimodular matrix stays decomposable
    rng = random.Random(271828)
    for _ in range(40):
        n = rng.choice([3, 4])
        u = random_sln(n, rng, min_letters=5, max_letters=15)
        sym, exp = random.Random(rng.random()).choice(congruence_generators(n))
        g = symbol_matrix(sym, n) ** exp
        target = u * g * u.inverse_unimodular()
        assert decompose_gamma_n(target).matrix() == target


# ---------------------------------------------------------------------------
# decomposition: all of SL_n
# ---------------------------------------------------------------------------

def test_sln_frozen_examples():
    assert decompose_sln(elementary_matrix(2, 1, 2)).letters == ((E(1, 2), 1),)
    assert decompose_sln(IntMatrix.identity(3)).letters == ()


def test_sln_quarter_turn():
    target = IntMatrix([[0, -1], [1, 0]])
    word = decompose_sln(target)
    assert word.matrix() == target
    # the classic three-letter word for the quarter turn also multiplies back
    classic = GeneratorWord(2, ((E(2, 1), 1), (E(1, 2), -1), (E(2, 1), 1)))
    assert classic.matrix() == target


def test_sln_rejects_non_unit_det():
    with pytest.raises(NotInGroupError):
        decompose_sln(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(NotInGroupError):
        decompose_sln(IntMatrix.diagonal([-1, 1]))


def test_sln_random_roundtrip():
    rng = random.Random(606)
    for _ in range(120):
        n = rng.choice([2, 3, 4, 5])
        a = random_sln(n, rng, min_letters=10, max_letters=30)
        word = decompose_sln(a)
        assert all(sym.kind == "E" for sym, _ in word.letters)
        assert word.matrix() == a


def test_sln_handles_negative_diagonal_tail():
    # diag(-1,-1) needs the sign dance, not just pivoting
    a = IntMatrix.diagonal([-1, -1])
    assert decompose_sln(a).matrix() == a
    b = IntMatrix.diagonal([-1, 1, -1, 1, 1])
    assert decompose_sln(b).matrix() == b


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sln_roundtrip_property(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    a = random_sln(n, rng, min_letters=5, max_letters=25)
    assert decompose_sln(a).matrix() == a


# ---------------------------------------------------------------------------
# the shared elimination engine: frozen words and the letter cap
# ---------------------------------------------------------------------------

def _frozen_cases():
    """Seeded inputs with exponents up to +-1000.

    gamma2 mixes in NEG, gamma_n (n = 3..8) J flips for -1 pairs, and sln
    (n = 2..8) quarter turns for zero pivots and -1 pairs.
    """
    rng = random.Random(20261018)

    def elementary(n, even):
        i, j = rng.sample(range(1, n + 1), 2)
        t = rng.choice([-1, 1]) * rng.randint(1, 500 if even else 1000)
        return E(i, j), 2 * t if even else t

    def matrix(n, extra, even):
        letters = [
            extra(n) if rng.random() < 0.3 else elementary(n, even)
            for _ in range(rng.randint(1, 6))
        ]
        return GeneratorWord(n, tuple(letters)).matrix()

    for _ in range(150):
        yield decompose_gamma2, matrix(2, lambda n: (NEG, 1), True)
    for n in range(3, 9):
        for _ in range(40):
            yield decompose_gamma_n, matrix(n, lambda n: (J(rng.randint(1, n - 1)), 1), True)
    for n in range(2, 9):
        for _ in range(40):
            yield decompose_sln, matrix(n, lambda n: (TAU, rng.randint(1, 3)), False)


def test_decomposition_words_are_frozen():
    # digest of the 670 word strings as the separate per-decomposition
    # eliminations wrote them; the shared engine must reproduce every byte
    words = [word_to_str(decompose(a)) for decompose, a in _frozen_cases()]
    assert len(words) == 670
    digest = hashlib.sha256("\n".join(words).encode()).hexdigest()
    assert digest == "4c5fe5b3ffef5bff29ef46355027a0a0b96a307acbf06fc67be38d5e7df9d51a"


def _slow_gamma2(k):
    # even-quotient descent removes ~2 per step here: a word of ~2k letters
    return IntMatrix([[2 * k + 1, 2 * k], [2 * k + 2, 2 * k + 1]])


@pytest.mark.parametrize("k", [10**4, 10**30], ids=["k1e4", "k1e30"])
def test_letter_cap_is_read_per_call_and_bounds_the_loop(monkeypatch, k):
    # k = 10**30 stops only if the cap bounds the elimination loop itself;
    # storing every step before checking the cap never ends there
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 1000)
    with pytest.raises(WordLengthError, match="1000 letters"):
        decompose_gamma2(_slow_gamma2(k))
    monkeypatch.undo()
    if k == 10**4:
        assert len(decompose_gamma2(_slow_gamma2(k))) == 20001


def test_letter_cap_cannot_change_a_refusal(monkeypatch):
    # a refused input is refused with its own text whatever the cap, and a
    # member too long for the cap still raises WordLengthError
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 3)
    with pytest.raises(NotInGroupError, match="^determinant is 240, need 1$"):
        decompose_sln(IntMatrix([[7, 3, 5], [2, 9, 4], [6, 1, 8]]))
    k = 1000
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 100)
    outsider = IntMatrix([[2 * k + 1, 2 * k, 0], [2 * k + 2, 2 * k + 3, 0], [0, 0, 1]])
    assert outsider.det() == 4 * k + 3
    with pytest.raises(NotInGroupError, match="^determinant is 4003, need 1$"):
        decompose_gamma_n(outsider)
    member = IntMatrix([[2 * k + 1, 2 * k, 0], [2 * k + 2, 2 * k + 1, 0], [0, 0, 1]])
    with pytest.raises(WordLengthError, match="^word exceeded 100 letters$"):
        decompose_gamma_n(member)


def test_step_2_elimination_refuses_input_off_the_subgroup_itself():
    # without its own gate the engine spins on this input without a letter,
    # so it runs in a child interpreter that a timeout stops
    src = str(Path(words_module.__file__).resolve().parent.parent)
    code = (
        "from spheremat.intmat import IntMatrix\n"
        "from spheremat.subgroups import NotInGroupError\n"
        "from spheremat.words import _eliminate\n"
        "try:\n"
        "    _eliminate(IntMatrix([[2, 1], [1, 1]]), 2)\n"
        "except NotInGroupError as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=5, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "not congruent to the identity mod 2\n")


def test_letter_cap_counts_the_leading_neg(monkeypatch):
    # NEG goes in front of a dimension-2 word, and counts like any other letter
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 1)
    with pytest.raises(WordLengthError, match="^word exceeded 1 letters$"):
        decompose_gamma2(IntMatrix([[-1, 2], [0, -1]]))
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 0)
    with pytest.raises(WordLengthError, match="^word exceeded 0 letters$"):
        decompose_gamma2(IntMatrix([[-1, 0], [0, -1]]))
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 2)
    assert word_to_str(decompose_gamma2(IntMatrix([[-1, 2], [0, -1]]))) == "NEG E(1,2)^-2"
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 1)
    assert word_to_str(decompose_gamma2(IntMatrix([[-1, 0], [0, -1]]))) == "NEG"


def _sign_pair_cases():
    """A -1 pair times one or two letters E^+-1: the quarter turns that close
    such words merge with the letters before them, some to exponent zero."""
    rng = random.Random(20261020)
    for n in range(2, 6):
        for _ in range(40):
            signs = [1] * n
            for i in rng.sample(range(n), 2):
                signs[i] = -1
            letters = tuple(
                (E(*rng.sample(range(1, n + 1), 2)), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 2))
            )
            yield decompose_sln, IntMatrix.diagonal(signs) * GeneratorWord(n, letters).matrix()


def test_elimination_words_equal_validated_construction():
    # the elimination builds its words without re-checking each letter; what
    # it builds must be exactly what the validating constructor accepts
    for decompose, a in [*_frozen_cases(), *_sign_pair_cases()]:
        word = decompose(a)
        assert type(word.letters) is tuple
        assert GeneratorWord(word.n, word.letters) == word
        for letter in word.letters:
            sym, exp = letter
            assert type(letter) is tuple and type(exp) is int and exp != 0
            assert type(sym) is GeneratorSymbol
            if sym.kind == "E":
                i, j, n = sym.i, sym.j, word.n
                assert sym is words_module._e_symbols(n)[(i - 1) * n + j - 1]
                assert sym == E(i, j)


def test_elimination_leaves_cached_e_letters_in_place():
    # the elimination's per-n letters are built apart from `E`, so even a
    # dimension with more E letters than `E` caches evicts none of them
    words_module._e_symbols.cache_clear()
    e12 = E(1, 2)
    assert decompose_sln(IntMatrix.identity(40)).letters == ()
    assert E(1, 2) is e12


def test_letter_cap_outcomes_are_frozen(monkeypatch):
    # the word, or the cap's error text, at every cap from 0 to the word's
    # length: pins where the cap trips while letters merge, some to zero
    rng = random.Random(20261021)
    cases = [*_sign_pair_cases()]
    for _ in range(40):
        n = rng.randint(3, 6)
        word = random_congruence_word(n, rng, max_letters=12, min_letters=4)
        cases.append((decompose_gamma_n, word.matrix()))
    outcomes = []
    for decompose, a in cases:
        for cap in range(len(decompose(a)) + 1):
            with monkeypatch.context() as m:
                m.setattr(words_module, "WORD_LETTER_CAP", cap)
                try:
                    outcomes.append(word_to_str(decompose(a)))
                except WordLengthError as exc:
                    outcomes.append(str(exc))
    assert len(outcomes) == 1532
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "22495bb2b0b21ef877709541e1a3d1324331e71c7f9135f5eca01ae0fc6a6eab"


def _fraction_det(rows):
    """Independent determinant: Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@st.composite
def small_square_matrices(draw):
    """n = 2..5 with small entries: raw (often singular or of det != 1),
    built from elementary steps (det 1), or built and then nudged."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(("raw", "built", "nudged")))
    if kind == "raw":
        return draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for dst, src, t in draw(st.lists(steps, max_size=8)):
        if dst != src:
            rows[dst] = [x + t * y for x, y in zip(rows[dst], rows[src])]
    if kind == "nudged":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(
            st.sampled_from((-2, -1, 1, 2))
        )
    return rows


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(small_square_matrices())
def test_sln_refuses_exactly_when_the_determinant_is_not_one(rows):
    a = IntMatrix(rows)
    det = _fraction_det(rows)
    if det != 1:
        with pytest.raises(NotInGroupError, match=f"^determinant is {det}, need 1$"):
            decompose_sln(a)
    else:
        assert _dense_word(decompose_sln(a)) == a


def test_exact_checks_build_no_intmatrix(monkeypatch):
    # every word check compares evaluated rows; only a gate may validate a matrix
    import spheremat.intmat as intmat

    cases = [
        (decompose_gamma2, IntMatrix([[3, 2], [4, 3]]), lambda a: in_congruence(a, 2)),
        # ends on a -1 pair, so the word carries a jrange_expand flip
        (decompose_gamma_n, IntMatrix([[-1, 0, 2], [0, -1, 0], [0, 0, 1]]),
         lambda a: in_congruence(a, 2)),
        (decompose_sln, IntMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]), lambda a: a.det()),
    ]
    calls = []
    square_rows = intmat._square_rows

    def counted(rows):
        calls.append(1)
        return square_rows(rows)

    monkeypatch.setattr(intmat, "_square_rows", counted)
    assert all(r.status == "VERIFIED" for r in rewrite_table_audit(4))
    assert jrange_expand(1, 4, 4).letters == ((J(1), 1), (J(2), 1), (J(3), 1))
    assert calls == []
    for decompose, a, gate in cases:
        calls.clear()
        gate(a)
        gated = len(calls)
        calls.clear()
        decompose(a)
        assert len(calls) == gated, decompose.__name__


# ---------------------------------------------------------------------------
# the column-operation evaluator against dense products
# ---------------------------------------------------------------------------

def _dense_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _dense_letter(sym, exp, n):
    """Matrix of one letter raised to exp, built densely and independently."""
    out = [[int(r == c) for c in range(n)] for r in range(n)]
    if sym.kind == "E":
        out[sym.i - 1][sym.j - 1] = exp  # (I + e_ij)^t = I + t e_ij as e_ij^2 = 0
        return out
    if sym.kind in ("J", "JR", "NEG"):
        flips = {"J": (sym.i, sym.i + 1), "JR": (sym.i, sym.j), "NEG": (1, 2)}[sym.kind]
        for f in flips:
            out[f - 1][f - 1] = -1 if exp % 2 else 1
        return out
    if sym.kind == "TAU":
        base = [[int(r == c) for c in range(n)] for r in range(n)]
        base[0][:2], base[1][:2] = [0, -1], [1, 0]
        count = exp % 4
    else:
        base = [[int(c + 1 == sym.sigma.images[r]) for c in range(n)] for r in range(n)]
        count = exp % 60  # the order of a permutation of at most 6 points divides 60
    for _ in range(count):
        out = _dense_mul(out, base)
    return out


def _dense_word(word):
    out = [[int(r == c) for c in range(word.n)] for r in range(word.n)]
    for sym, exp in word.letters:
        out = _dense_mul(out, _dense_letter(sym, exp, word.n))
    return IntMatrix(out)


_exponents = st.one_of(
    st.integers(-5, 5), st.integers(-(10**20), 10**20)
).filter(lambda e: e != 0)


@st.composite
def mixed_words(draw):
    n = draw(st.integers(2, 6))
    kinds = ["E", "J", "JR", "TAU", "P"] + (["NEG"] if n == 2 else [])
    letters = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("E", "JR"):
            i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
            sym = E(i, j) if kind == "E" else JR(i, j)
        elif kind == "J":
            sym = J(draw(st.integers(1, n - 1)))
        elif kind == "TAU":
            sym = TAU
        elif kind == "NEG":
            sym = NEG
        else:
            images = draw(st.permutations(range(1, n + 1)))
            if not Permutation(images).is_even:
                images[0], images[1] = images[1], images[0]
            sym = P(Permutation(images))
        letters.append((sym, draw(_exponents)))
    return GeneratorWord(n, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(mixed_words(), st.integers(0, 35), st.sampled_from((1, -1)))
def test_word_matrix_matches_dense_product(word, entry, delta):
    rows = words_module._word_rows(word.n, word.letters)
    assert rows == word.matrix().rows == _dense_word(word).rows
    # the decompositions' check rejects a target one entry off
    r, c = divmod(entry % word.n**2, word.n)
    off = [list(row) for row in rows]
    off[r][c] += delta
    with pytest.raises(AssertionError, match="^elementary decomposition failed"):
        words_module._verified(word, IntMatrix(off), "elementary")
    assert words_module._verified(word, word.matrix(), "elementary") is word


def test_word_matrix_all_letter_kinds_large_exponents():
    cyc3 = Permutation.from_cycles(3, [(1, 2, 3)])
    words = [
        GeneratorWord(2, (
            (E(1, 2), 10**25), (TAU, -7), (J(1), -3), (NEG, 5), (JR(2, 1), 2),
            (P(Permutation.identity(2)), -9), (E(2, 1), -(10**18)), (TAU, 10**9 + 1),
        )),
        GeneratorWord(3, (
            (P(cyc3), -(10**12) - 1), (E(3, 1), -4), (TAU, 3), (JR(1, 3), -1),
            (E(1, 2), 7 * 10**22), (J(2), 10**15 + 1), (P(cyc3), 2),
        )),
    ]
    for word in words:
        assert word.matrix() == _dense_word(word)
        assert word.matrix() * word.inverse().matrix() == IntMatrix.identity(word.n)


def test_evaluation_leaves_the_cached_identity_untouched():
    # columns are added in place, so each evaluation must start from fresh
    # copies of the cached identity, never from the cache itself
    for n in range(2, 6):
        identity = IntMatrix.identity(n).rows
        cyc = Permutation.from_cycles(n, [(1, 2, 3)] if n > 2 else [])
        letters = (
            (E(1, 2), 5), (TAU, 1), (E(2, 1), -3), (P(cyc), 1), (E(n, 1), 7),
            (J(1), 1), (JR(1, n), 1), (E(1, n), 2), (TAU, 3), (E(2, 1), 4),
        )
        if n == 2:
            letters += ((NEG, 1), (E(1, 2), -9))
        for _ in range(3):
            assert words_module._word_rows(n, letters) == _dense_word(GeneratorWord(n, letters)).rows
            assert words_module._word_rows(n, ()) == identity
            assert GeneratorWord(n, ()).matrix().rows == identity


def test_random_sln_outputs_are_frozen():
    # digest of random_sln's rows for n = 2..8 at seeds 0..19, as the
    # evaluator wrote them before it added columns in place
    parts = [repr(random_sln(n, random.Random(seed)).rows) for n in range(2, 9) for seed in range(20)]
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "0bf9e026ffbf626674096d281dbb2dc54c68963adeddc94a060315050afb1621"
