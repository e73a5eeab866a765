"""Exact integer and residue matrices.

Everything in this module is integer arithmetic on plain Python ints, so
entries never overflow and determinants of huge conjugates stay exact.
Matrices are immutable (tuples of tuples) and hashable.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence


class MatrixFormatError(ValueError):
    """Raised when matrix text cannot be parsed."""


# The two size guards' errors, and the group-size cap's default, live here,
# in the module every CLI call loads, so the CLI maps the errors to exit
# code 2 and sets its `--max-size` defaults without importing the layers
# that raise them; `words` and `finitegrp` re-export them.
class WordLengthError(RuntimeError):
    """Raised when a decomposition would exceed the letter cap."""


class GroupSizeLimitError(RuntimeError):
    """Enumeration exceeded the configured element cap."""


# What the cap allows, from `enumerate_group` on SL_3(Z_4) (order 43 008) and
# SL_3(Z_5) (order 372 000), Python 3.11 on a shared 2-vCPU VM: 1.5-3.0 and
# 2.6-4.2 us per element; ~170 B per element kept (tracemalloc), ~240 B at the
# peak, 240-290 B of peak RSS. So 10^7 elements take about 30-40 s and 3 GB.
DEFAULT_MAX_SIZE = 10**7


def _square_rows(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Rows as a nonempty square tuple of tuples of plain ints.

    Entries go through int(), so bools, integral Fractions and numpy
    integers come out as Python ints; an entry that int() would change, such
    as 3/2 or 1.9, raises instead of being truncated.
    """
    frozen = []
    for row in rows:
        row = tuple(row)  # a row may be a generator: read it once
        ints = tuple(map(int, row))
        if ints != row:
            bad = next(x for x, i in zip(row, ints) if x != i)
            raise ValueError(f"matrix entry {bad!r} is not an integer")
        frozen.append(ints)
    frozen = tuple(frozen)
    n = len(frozen)
    if n == 0:
        raise ValueError("dimension must be at least 1")
    for row in frozen:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return frozen


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity as row tuples, unchecked."""
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(n))


def _square_and_multiply(base, exponent: int, one):
    """base**exponent for exponent >= 0, multiplying onto `one` from the right.

    Shared by the integer, residue and algebra-element powers, and by the
    monomial torus maps on arrays of unit complex numbers.
    """
    result = one
    while True:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if not exponent:
            return result
        base = base * base


class IntMatrix:
    """Immutable square matrix over the integers."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = _square_rows(rows)
        self.n = len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(_identity_rows(n))

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        cols = tuple(zip(*other.rows))
        return IntMatrix([[sum(map(operator.mul, row, col)) for col in cols] for row in self.rows])

    def __pow__(self, exponent: int) -> "IntMatrix":
        if exponent < 0:
            return self.inverse_unimodular() ** (-exponent)
        return _square_and_multiply(self, exponent, IntMatrix.identity(self.n))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.rows))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))})"

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def det(self) -> int:
        """Exact determinant: the 2x2 closed form for n = 2, fraction-free
        Bareiss elimination for every other n (faster than cofactor
        expansion from n = 3 on)."""
        r = self.rows
        if self.n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return _det_bareiss(r)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a determinant +-1 matrix, re-verified by multiplication."""
        d, adj = _det_adjugate(self.rows)
        if d not in (1, -1):
            raise ValueError(f"matrix is not unimodular (det={d})")
        inv = IntMatrix([[d * x for x in row] for row in adj])
        if self * inv != IntMatrix.identity(self.n):
            raise AssertionError("unimodular inverse failed re-multiplication")
        return inv

    def reduce_mod(self, m: int) -> "ResidueMatrix":
        return ResidueMatrix(self.rows, m)


def _det_bareiss(rows) -> int:
    """Fraction-free Gaussian elimination; all divisions are exact."""
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _det_adjugate(rows) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate by fraction-free Gauss-Jordan on [A | I].

    Bareiss (1968): after step k the first k+1 columns of the left block are
    p_k times the identity, p_k being the current pivot, and each update
    divides exactly by the previous pivot. The last pivot is det(A) up to
    the sign of the row swaps, and the right block is then adj(A) up to the
    same sign. A singular matrix gives (0, []).
    """
    n = len(rows)
    a = [list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0, []
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


class ResidueMatrix:
    """Square matrix over Z_m, entries stored reduced to 0..m-1."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], m: int):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.rows = tuple(tuple(x % m for x in row) for row in _square_rows(rows))
        self.n = len(self.rows)
        self.m = m

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], m: int) -> "ResidueMatrix":
        """Wrap a nonempty square tuple of int tuples, already reduced to
        0..m-1, as is: no checks, no copy, so the row tuples stay shared.

        `finitegrp` keeps every group element as a tuple of row tuples shared
        with other elements; copying them on the way out would undo that.
        """
        self = object.__new__(cls)
        self.n = len(rows)
        self.m = m
        self.rows = rows
        return self

    @classmethod
    def identity(cls, n: int, m: int) -> "ResidueMatrix":
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if m < 2:
            raise ValueError("modulus must be at least 2")
        return cls._trusted(_identity_rows(n), m)

    def lift(self) -> IntMatrix:
        """Integer matrix with entries in 0..m-1."""
        return IntMatrix(self.rows)

    def det(self) -> int:
        return self.lift().det() % self.m

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        if not isinstance(other, ResidueMatrix):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            raise ValueError("dimension or modulus mismatch")
        m = self.m
        cols = tuple(zip(*other.rows))
        return ResidueMatrix._trusted(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % m for col in cols)
                for row in self.rows
            ),
            m,
        )

    def inverse(self) -> "ResidueMatrix":
        """Inverse mod m; the determinant must be a unit."""
        d, adj = _det_adjugate(self.rows)
        if math.gcd(d, self.m) != 1:
            raise ValueError(f"determinant {d % self.m} is not a unit mod {self.m}")
        dinv = pow(d, -1, self.m)
        return ResidueMatrix([[x * dinv for x in row] for row in adj], self.m)

    def __pow__(self, exponent: int) -> "ResidueMatrix":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _square_and_multiply(self, exponent, ResidueMatrix.identity(self.n, self.m))

    def is_identity(self) -> bool:
        return self.rows == _identity_rows(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ResidueMatrix)
            and self.m == other.m
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.m, self.rows))

    def __repr__(self) -> str:
        return f"ResidueMatrix({list(map(list, self.rows))}, m={self.m})"


def elementary_matrix(n: int, i: int, j: int, t: int = 1) -> IntMatrix:
    """Identity plus t in position (i, j); indices are 1-based, i != j."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i},{j}) out of range for n={n}")
    if i == j:
        raise ValueError("elementary matrix requires i != j")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] = t
    return IntMatrix(rows)


def tau_matrix(n: int) -> IntMatrix:
    """Rotation by a quarter turn in the first two coordinates, identity elsewhere."""
    if n < 2:
        raise ValueError("tau requires n >= 2")
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[0][0] = 0
    rows[0][1] = -1
    rows[1][0] = 1
    rows[1][1] = 0
    return IntMatrix(rows)


def hyperbolic_check(a: IntMatrix) -> bool:
    """True iff a 2x2 determinant-one matrix has no eigenvalue on the unit circle.

    Equivalent to |trace| > 2: the characteristic roots are then a real pair
    (lambda, 1/lambda) with |lambda| > 1.
    """
    if a.n != 2:
        raise ValueError("hyperbolicity test is for 2x2 matrices")
    if a.det() != 1:
        raise ValueError("input must have determinant 1")
    return abs(a.trace()) > 2


def format_matrix(a: IntMatrix) -> str:
    """Text form: first line n, then n rows of space-separated integers."""
    lines = [str(a.n)]
    lines.extend(" ".join(str(x) for x in row) for row in a.rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntMatrix:
    """Inverse of format_matrix; raises MatrixFormatError on malformed input."""
    mats, rest = _parse_matrix_block(text.splitlines())
    if any(line.strip() for line in rest):
        raise MatrixFormatError("trailing content after matrix block")
    return mats


def parse_matrices(text: str) -> list[IntMatrix]:
    """Parse one or more concatenated matrix blocks."""
    lines = text.splitlines()
    out = []
    while any(line.strip() for line in lines):
        mat, lines = _parse_matrix_block(lines)
        out.append(mat)
    if not out:
        raise MatrixFormatError("no matrix found")
    return out


def _parse_matrix_block(lines: list[str]) -> tuple[IntMatrix, list[str]]:
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise MatrixFormatError("no matrix found")
    header = lines[idx].split()
    if len(header) != 1:
        raise MatrixFormatError(f"expected dimension line, got {lines[idx]!r}")
    try:
        n = int(header[0])
    except ValueError as exc:
        raise MatrixFormatError(f"bad dimension line {lines[idx]!r}") from exc
    if n < 1:
        raise MatrixFormatError("dimension must be at least 1")
    rows = []
    idx += 1
    for _ in range(n):
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise MatrixFormatError(f"expected {n} rows")
        parts = lines[idx].split()
        if len(parts) != n:
            raise MatrixFormatError(f"row {lines[idx]!r} does not have {n} entries")
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"non-integer entry in row {lines[idx]!r}") from exc
        idx += 1
    return IntMatrix(rows), lines[idx:]
