import hashlib
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from spheremat.intmat import IntMatrix, elementary_matrix
from spheremat.permutation import Permutation
from spheremat.subgroups import in_congruence, random_sln
import spheremat.words as words_module
from spheremat.words import (
    E,
    GeneratorWord,
    J,
    JR,
    NEG,
    P,
    TAU,
    WordLengthError,
    _Builder,
    congruence_generators,
    conjugate_rewrite,
    decompose_gamma2,
    decompose_gamma_n,
    decompose_sln,
    is_congruence_word,
    jrange_expand,
    parse_word,
    random_congruence_word,
    rewrite_table_audit,
    search_congruence_word,
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        parse_word("Q(1,2)", 2)


def test_is_congruence_word():
    assert is_congruence_word(GeneratorWord(3, ((E(1, 2), 2), (J(1), 1))))
    assert not is_congruence_word(GeneratorWord(3, ((E(1, 2), 1),)))
    assert not is_congruence_word(GeneratorWord(3, ((TAU, 1),)))
    assert is_congruence_word(GeneratorWord(2, ((NEG, 1),)))


def test_builder_merges_and_caps(monkeypatch):
    b = _Builder(2)
    b.push(E(1, 2), 2)
    b.push(E(1, 2), 2)
    b.push(E(1, 2), -4)
    assert b.word().letters == ()
    monkeypatch.setattr(words_module, "WORD_LETTER_CAP", 2)
    small = _Builder(3)
    small.push(E(1, 2), 2)
    small.push(E(2, 1), 2)
    with pytest.raises(WordLengthError):
        small.push(E(1, 3), 2)


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


def test_wrong_table_entry_is_repaired_and_reported(monkeypatch):
    # family 5 is E(i,j)^-1 across E(k,l)^2 with j != k, i == l; give it the
    # sign +1 word, which is wrong there, and let the search repair it
    table = words_module._table_rewrite

    def broken(e_letter, g_letter, n):
        case, letters = table(e_letter, g_letter, n)
        if case == 5:
            return case, table((e_letter[0], 1), g_letter, n)[1]
        return case, letters

    monkeypatch.setattr(words_module, "_table_rewrite", broken)
    n = 3
    reports = rewrite_table_audit(n)
    assert [r.status == "VERIFIED" for r in reports] == [idx != 5 for idx in range(16)]
    family = reports[5]
    assert (family.sign, family.generator_kind, family.condition) == (-1, "E", "j!=k, i==l")
    assert family.status == "CORRECTED(" + "; ".join(family.corrected) + ")"
    assert len(family.corrected) == family.instances == 6
    for entry in family.corrected:
        head, word_text = entry.split(" -> ")
        e_text, g_text = head.split(" on ")
        e_word, g_word = parse_word(e_text, n), parse_word(g_text, n)
        assert e_text.endswith("^-1") and g_text.endswith("^2")
        repaired = parse_word(word_text, n)
        assert is_congruence_word(repaired)
        assert repaired.matrix() == (e_word.matrix() * g_word.matrix()
                                     * e_word.inverse().matrix())
    w = conjugate_rewrite((E(1, 2), -1), (E(3, 1), 2), n)
    e_mat = symbol_matrix(E(1, 2), n)
    assert w.matrix() == e_mat.inverse_unimodular() * symbol_matrix(E(3, 1), n) ** 2 * e_mat


def test_search_congruence_word_finds_short_targets():
    target = elementary_matrix(3, 1, 2, 2)
    w = search_congruence_word(target)
    assert w is not None and w.matrix() == target
    assert search_congruence_word(IntMatrix.identity(3)).letters == ()


def _search_targets():
    """Seeded targets at n = 3..5: congruence words of 0 to 6 letters, some
    out of reach of a 3-letter search, and one non-congruence E(i,n)."""
    rng = random.Random(20261020)
    for n in (3, 4, 5):
        gens = congruence_generators(n)
        for length in (0, 1, 2, 3, 3, 4, 6):
            letters = []
            for _ in range(length):
                sym, exp = rng.choice(gens)
                letters.append((sym, rng.choice([exp, -exp])))
            yield GeneratorWord(n, tuple(letters)).matrix()
        yield elementary_matrix(n, rng.randint(1, n - 1), n, 1)


def test_search_congruence_words_are_frozen():
    # digest of the words (or None) found for 24 targets, 8 of them
    # unreachable, as the search over dense matrix products gave them
    found = [search_congruence_word(target) for target in _search_targets()]
    assert len(found) == 24 and found.count(None) == 8
    for target, word in zip(_search_targets(), found):
        assert word is None or (is_congruence_word(word) and word.matrix() == target)
    digest = hashlib.sha256("\n".join(map(str, found)).encode()).hexdigest()
    assert digest == "51c0ff90ca168aa72b11cbf8d6014250dbb0be1b2b69594dfc4c921e34232e6c"


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
