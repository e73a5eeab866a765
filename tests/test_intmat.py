import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spheremat.intmat import (
    IntMatrix,
    MatrixFormatError,
    ResidueMatrix,
    _det_bareiss,
    _square_and_multiply,
    elementary_matrix,
    format_matrix,
    hyperbolic_check,
    parse_matrices,
    parse_matrix,
    tau_matrix,
)


def det_by_permanent_expansion(rows):
    """Independent determinant oracle: Leibniz sum over permutations."""
    import itertools

    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def rand_matrix_strategy(n, lo=-10, hi=10):
    row = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(IntMatrix)


def test_identity_and_diagonal():
    assert IntMatrix.identity(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert IntMatrix.diagonal([1, -1]).rows == ((1, 0), (0, -1))


def test_det_frozen_examples():
    assert IntMatrix.identity(3).det() == 1
    assert tau_matrix(3).det() == 1
    assert IntMatrix([[3, 2], [4, 3]]).det() == 1


def test_mul_frozen_example():
    # E21 * E12^-1 * E21 is the quarter turn
    e21 = elementary_matrix(2, 2, 1)
    e12_inv = elementary_matrix(2, 1, 2, -1)
    assert (e21 * e12_inv * e21).rows == ((0, -1), (1, 0))


def test_mul_identity_and_nilpotent_square():
    a = IntMatrix([[3, 2], [4, 3]])
    assert IntMatrix.identity(2) * a == a
    e12 = elementary_matrix(2, 1, 2)
    assert (e12 * e12) == elementary_matrix(2, 1, 2, 2)


def test_inverse_unimodular_examples():
    assert IntMatrix.identity(4).inverse_unimodular() == IntMatrix.identity(4)
    e = elementary_matrix(3, 1, 2, 2)
    assert e.inverse_unimodular() == elementary_matrix(3, 1, 2, -2)
    tau = tau_matrix(3)
    assert tau.inverse_unimodular() == IntMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert tau * tau.inverse_unimodular() == IntMatrix.identity(3)


def test_inverse_unimodular_rejects():
    with pytest.raises(ValueError):
        IntMatrix([[2, 0], [0, 1]]).inverse_unimodular()


def test_pow_negative_and_zero():
    e = elementary_matrix(2, 1, 2)
    assert e**0 == IntMatrix.identity(2)
    assert e**3 == elementary_matrix(2, 1, 2, 3)
    assert e**-2 == elementary_matrix(2, 1, 2, -2)


def test_square_and_multiply_forms_only_used_products():
    class Counted:
        squarings = multiplications = 0

        def __init__(self, value):
            self.value = value

        def __mul__(self, other):
            if self is other:
                Counted.squarings += 1
            else:
                Counted.multiplications += 1
            return Counted(self.value * other.value)

    for e in (*range(1, 18), 255, 256, 12345, 65536):
        Counted.squarings = Counted.multiplications = 0
        assert _square_and_multiply(Counted(3), e, Counted(1)).value == 3**e
        assert Counted.squarings == e.bit_length() - 1
        assert Counted.multiplications == bin(e).count("1")
    Counted.squarings = Counted.multiplications = 0
    assert _square_and_multiply(Counted(3), 0, Counted(1)).value == 1
    assert Counted.squarings == Counted.multiplications == 0


def test_powers_match_repeated_products():
    a = IntMatrix([[2, 1], [1, 1]])
    r = ResidueMatrix([[2, 1, 0], [1, 1, 3], [0, 4, 1]], 7)
    want_a, want_r = IntMatrix.identity(2), ResidueMatrix.identity(3, 7)
    for e in range(40):
        assert a**e == want_a and r**e == want_r
        want_a, want_r = want_a * a, want_r * r


def test_integer_powers_start_from_the_base(monkeypatch):
    # x ** t for t >= 1 starts from x rather than multiplying the identity
    # in first, so it forms one product fewer; x ** 0 forms none
    a = IntMatrix([[2, 1], [1, 1]])
    r = ResidueMatrix([[2, 1, 0], [1, 1, 3], [0, 4, 1]], 7)
    for x, one, inv in (
        (a, IntMatrix.identity(2), a.inverse_unimodular()),
        (r, ResidueMatrix.identity(3, 7), r.inverse()),
    ):
        want = want_inv = one
        for t in range(10):
            assert x**t == want and x**-t == want_inv
            want, want_inv = want * x, want_inv * inv
        cls, mul, calls = type(x), type(x).__mul__, []
        monkeypatch.setattr(cls, "__mul__", lambda s, o: calls.append(o) or mul(s, o))
        for t in range(40):
            calls.clear()
            x**t
            # t.bit_length() - 1 squarings, one product per further set bit
            assert len(calls) == (t.bit_length() + bin(t).count("1") - 2 if t else 0)
        monkeypatch.undo()


def test_reduce_mod_examples():
    assert elementary_matrix(2, 1, 2, 2).reduce_mod(2).is_identity()
    assert tau_matrix(2).reduce_mod(2).rows == ((0, 1), (1, 0))
    assert IntMatrix([[3, 2], [4, 3]]).reduce_mod(2).is_identity()
    with pytest.raises(ValueError):
        IntMatrix.identity(2).reduce_mod(1)


def test_residue_inverse_and_det():
    r = IntMatrix([[3, 2], [4, 3]]).reduce_mod(5)
    assert (r * r.inverse()).is_identity()
    assert r.det() == (3 * 3 - 2 * 4) % 5


def test_hyperbolic_examples():
    assert hyperbolic_check(IntMatrix([[1, 2], [2, 5]]))
    assert not hyperbolic_check(IntMatrix.identity(2))
    assert not hyperbolic_check(IntMatrix([[0, -1], [1, 0]]))
    with pytest.raises(ValueError):
        hyperbolic_check(IntMatrix.identity(3))
    with pytest.raises(ValueError):
        hyperbolic_check(IntMatrix([[1, 0], [0, -1]]))


def test_bareiss_agrees_with_leibniz_oracle():
    # n = 5 exercises the Bareiss path; Leibniz expansion is independent
    import random

    rng = random.Random(13)
    for _ in range(20):
        rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(5)]
        assert IntMatrix(rows).det() == det_by_permanent_expansion(rows)


@settings(max_examples=60, deadline=None)
@given(rand_matrix_strategy(3), rand_matrix_strategy(3))
def test_det_multiplicative_3x3(a, b):
    assert (a * b).det() == a.det() * b.det()


@settings(max_examples=30, deadline=None)
@given(rand_matrix_strategy(4), rand_matrix_strategy(4))
def test_det_multiplicative_4x4(a, b):
    assert (a * b).det() == a.det() * b.det()


@settings(max_examples=40, deadline=None)
@given(rand_matrix_strategy(3), rand_matrix_strategy(3), st.integers(2, 12))
def test_reduce_mod_is_ring_hom(a, b, m):
    assert (a * b).reduce_mod(m) == a.reduce_mod(m) * b.reduce_mod(m)


def test_matrix_text_roundtrip():
    a = IntMatrix([[3, -2, 0], [4, 3, -1], [0, 0, 1]])
    assert parse_matrix(format_matrix(a)) == a


def test_parse_matrix_rejects_malformed():
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1 0\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1 0\n0 1 7\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("x\n1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("1\n1\nextra")


@pytest.mark.parametrize("text", ["", "\n", " \n\t\n\n"])
def test_parse_matrix_rejects_text_without_a_matrix(text):
    with pytest.raises(MatrixFormatError, match="no matrix found"):
        parse_matrix(text)


def test_parse_matrix_ignores_trailing_blank_lines():
    want = IntMatrix.identity(2)
    assert parse_matrix("2\n1 0\n0 1\n\n") == want
    assert parse_matrix("\n2\n1 0\n\n0 1\n \n\t\n\n") == want
    with pytest.raises(MatrixFormatError, match="trailing content after matrix block"):
        parse_matrix("2\n1 0\n0 1\n\n7\n")


def test_parse_matrices_multiple_blocks():
    text = "2\n1 2\n0 1\n\n2\n1 0\n2 1\n"
    mats = parse_matrices(text)
    assert len(mats) == 2
    assert mats[0] == elementary_matrix(2, 1, 2, 2)
    assert mats[1] == elementary_matrix(2, 2, 1, 2)


def test_constructors_coerce_entries_to_int():
    import numpy as np

    rows = [[True, Fraction(6, 3)], [np.int64(-7), False]]
    for got in (IntMatrix(rows), ResidueMatrix(rows, 5), IntMatrix(rows).reduce_mod(5)):
        assert all(type(x) is int for row in got.rows for x in row)
        assert all(type(row) is tuple for row in got.rows) and type(got.rows) is tuple
    assert IntMatrix(rows).rows == ((1, 2), (-7, 0))
    assert ResidueMatrix(rows, 5).rows == ((1, 2), (3, 0))


def test_constructors_reject_non_integral_entries():
    for make in (IntMatrix, lambda rows: ResidueMatrix(rows, 5)):
        for rows, bad in (
            ([[Fraction(3, 2), 0], [0, 1]], "Fraction(3, 2)"),
            ([[1, 0], [0, 1.9]], "1.9"),
            ([[2.5, 0], [0, 1]], "2.5"),
        ):
            with pytest.raises(ValueError, match=f"^matrix entry {re.escape(bad)} is not an integer$"):
                make(rows)
    # rows may be one-shot iterators: each is read once
    assert IntMatrix((iter(row) for row in [[2, 1], [1, 1]])).rows == ((2, 1), (1, 1))
    assert ResidueMatrix([iter([7, 1]), iter([Fraction(9, 3), 1])], 5).rows == ((2, 1), (3, 1))


def test_constructors_reject_bad_shapes_and_moduli():
    for make in (IntMatrix, lambda rows: ResidueMatrix(rows, 3)):
        for empty in ([], (), iter([])):
            with pytest.raises(ValueError, match="^dimension must be at least 1$"):
                make(empty)
        for ragged in ([[1, 0], [0]], [[1, 0]], [[1], [0]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
            with pytest.raises(ValueError, match="^matrix must be square$"):
                make(ragged)
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            ResidueMatrix([[1]], m)
        with pytest.raises(ValueError, match="^modulus must be at least 2$"):
            IntMatrix.identity(2).reduce_mod(m)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        IntMatrix.identity(2) * IntMatrix.identity(3)


def test_tau_matrix_block_shape():
    assert tau_matrix(4) == IntMatrix(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(ValueError):
        tau_matrix(1)


# ---------------------------------------------------------------------------
# det and inverses against elimination over the rationals
# ---------------------------------------------------------------------------

def fraction_det_inverse(rows):
    """Independent oracle: Gauss-Jordan over Fraction; (det, inverse or None)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        p = a[k][k]
        det *= p
        a[k] = [x / p for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det, [row[n:] for row in a]


_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**30) - 5, -(10**30) + 5),
    st.integers(10**30 - 5, 10**30 + 5),
    st.integers(-(10**31), 10**31),
)


@st.composite
def integer_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[0][0] = 0  # the first pivot needs a row swap
    return rows


@st.composite
def unimodular_matrices(draw):
    """Signed permutation matrix times row and column additions.

    With `zero_pivot`, row 0 and column 0 are never the target of an
    addition, so the (1,1) entry of a permutation moving 1 stays zero.
    """
    n = draw(st.integers(2, 6))
    images = draw(st.permutations(range(n)))
    zero_pivot = draw(st.booleans())
    if zero_pivot and images[0] == 0:
        images[0], images[1] = images[1], images[0]
    rows = [[int(c == images[r]) for c in range(n)] for r in range(n)]
    if draw(st.booleans()):
        rows[n - 1] = [-x for x in rows[n - 1]]
    steps = st.tuples(
        st.booleans(),
        st.integers(1 if zero_pivot else 0, n - 1),
        st.integers(0, n - 1),
        st.one_of(st.integers(-(10**15), 10**15), st.sampled_from([10**30, -(10**30)])),
    )
    for on_rows, dst, src, t in draw(st.lists(steps, max_size=12)):
        if dst == src:
            continue
        if on_rows:
            rows[dst] = [x + t * y for x, y in zip(rows[dst], rows[src])]
        else:
            for row in rows:
                row[dst] += t * row[src]
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_det_paths_match_fraction_elimination(rows):
    want, _ = fraction_det_inverse(rows)
    assert IntMatrix(rows).det() == want
    assert _det_bareiss(rows) == want


@settings(max_examples=200, deadline=None)
@given(unimodular_matrices())
def test_inverse_unimodular_matches_fraction_elimination(rows):
    det, inv = fraction_det_inverse(rows)
    assert det in (1, -1)
    assert IntMatrix(rows).inverse_unimodular() == IntMatrix(inv)


@settings(max_examples=100, deadline=None)
@given(integer_matrices())
def test_inverse_unimodular_rejects_other_determinants(rows):
    det, inv = fraction_det_inverse(rows)
    if det in (1, -1):
        assert IntMatrix(rows).inverse_unimodular() == IntMatrix(inv)
    else:
        with pytest.raises(ValueError, match=f"det={det}\\)"):
            IntMatrix(rows).inverse_unimodular()


@settings(max_examples=150, deadline=None)
@given(integer_matrices(max_n=5), st.integers(2, 40))
def test_residue_inverse_matches_fraction_elimination(rows, m):
    det, inv = fraction_det_inverse(rows)
    r = ResidueMatrix(rows, m)
    if math.gcd(int(det), m) != 1:
        with pytest.raises(ValueError, match="not a unit"):
            r.inverse()
        return
    # adj(A) = det(A) * inverse(A) is integral; inverse mod m = adj * det^-1
    dinv = pow(int(det), -1, m)
    want = [[int(det * x) * dinv for x in row] for row in inv]
    assert r.inverse() == ResidueMatrix(want, m)


def dense_product(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 5))
    square = st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(), st.integers(2, 10**12))
def test_products_equal_validated_construction(pair, m):
    a, b = pair
    got = IntMatrix(a) * IntMatrix(b)
    want = IntMatrix(dense_product(a, b))
    assert got == want and hash(got) == hash(want)
    assert (got.n, got.rows) == (want.n, want.rows)
    assert all(type(x) is int for row in got.rows for x in row)
    got = ResidueMatrix(a, m) * ResidueMatrix(b, m)
    want = ResidueMatrix(dense_product(a, b), m)
    assert got == want and hash(got) == hash(want)
    assert (got.n, got.m, got.rows) == (want.n, want.m, want.rows)
    assert all(type(x) is int for row in got.rows for x in row)
