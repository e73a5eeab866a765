"""Membership tests, coset certificates and realizability verdicts.

Three nested groups appear throughout:

* the level-m congruence subgroup of SL_n(Z), i.e. matrices that reduce to
  the identity mod m;
* for m = 2, the larger group of determinant-one matrices whose distinct
  rows have componentwise-even products (equivalently: matrices that reduce
  mod 2 to a permutation matrix);
* GL_n(Z) filtered by which sphere dimension the matrix should be realized
  on (`hR_member`, `classify`).

The last is the commutator obstruction. A self-map of the n-fold product of
k-spheres with induced matrix A must kill the image of every basic
commutator. Expanding f_*[i_j, i_l] by bilinearity leaves cross terms with
coefficients a_js a_lt - a_jt a_ls (the 2x2 minors of the row pair) and
diagonal terms with coefficients a_js a_ls on the self-commutators. Cross
terms always vanish; the diagonal ones live in a group that depends on k:

* k in {1, 3, 7}: the self-commutator is zero, no constraint;
* other odd k:    it has order two, so every a_js a_ls must be even;
* even k:         it has infinite order, so every a_js a_ls must vanish:
                  a unimodular matrix passes iff it is a signed permutation.

Each verdict has one home, and each `_failure` helper names its first
failing witness. `_row_pair_violations` is the one scan of the commutator
rule, read by `_w2_failure` (hence `in_W2`), `hR_member` and `classify`;
`_unimodular_failure` is the det = +-1 rule of `hR_member` and `classify`;
`_congruence_failure` decides `in_congruence`. `is_signed_permutation` is
only the reference the even-k verdict is tested against.
`_class_representative` is the one coset-representative rule, read by
`coset_certificate` and `coset_representatives`.

A representative (tau if used, else I) * P_sigma is a signed permutation
matrix, written row by row from `_representative_entries`. So the residual
R^T * a of a coset certificate is a signed row permutation of `a`, formed
without a product; `CosetCertificate.verify` still checks the residual's
determinant and residue and re-multiplies R * residual == a on every call.

Of the package, this module imports `intmat` and `permutation` only, at the
top; `words` imports it, and builds the random SL_n(Z) elements.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from ._record import record
from .intmat import IntMatrix, _int_tuple
from .permutation import Permutation

K_HOPF = "hopf"
K_ODD = "odd_generic"
K_EVEN = "even"
K_CLASSES = (K_HOPF, K_ODD, K_EVEN)


class NotInGroupError(ValueError):
    """Raised when an operation requires membership that does not hold."""


def pre_dot(v: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """Componentwise product of two integer vectors (the dot product before summation)."""
    if len(v) != len(w):
        raise ValueError("length mismatch")
    return tuple(a * b for a, b in zip(_int_tuple(v, "vector entry"), _int_tuple(w, "vector entry")))


def _congruence_failure(a: IntMatrix, m: int) -> Optional[str]:
    """Why `in_congruence` fails (determinant first, then residue), or None."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    det = a.det()
    if det != 1:
        return f"determinant is {det}, need 1"
    if any((x - (r == c)) % m for r, row in enumerate(a.rows) for c, x in enumerate(row)):
        return f"not congruent to the identity mod {m}"
    return None


def in_congruence(a: IntMatrix, m: int) -> bool:
    """True iff det(a) == 1 and a reduces to the identity mod m."""
    return _congruence_failure(a, m) is None


def _row_pair_violations(a: IntMatrix, k_class: str) -> Iterator[tuple[tuple[int, int], int]]:
    """Lazily yield ((j, l), s), 1-based, for each a_js * a_ls that obstructs `a`.

    The module's commutator rule: no constraint for k in {1, 3, 7}, an odd
    coefficient for other odd k, a nonzero one for even k. Triples come
    ordered by j < l, then s. Each row's column mask is formed when the
    pairs first reach that row, so an early witness leaves later rows unread.
    """
    if k_class == K_HOPF:
        return
    # a product is odd (nonzero) iff both factors are: one column mask per row
    odd = k_class == K_ODD
    rows = a.rows
    masks: list[int] = []
    for j, l in itertools.combinations(range(a.n), 2):
        while len(masks) <= l:  # rows are reached in order: 0 and 1, then 2, ...
            row = rows[len(masks)]
            masks.append(sum(1 << s for s, x in enumerate(row) if (x % 2 if odd else x)))
        both = masks[j] & masks[l]
        if both:
            for s in range(a.n):
                if both >> s & 1:
                    yield (j + 1, l + 1), s + 1


def _w2_failure(a: IntMatrix) -> Optional[str]:
    """Why `in_W2` fails (determinant first, then the first odd row pair), or None."""
    det = a.det()
    if det != 1:
        return f"determinant is {det}, need 1"
    for (j, l), _ in _row_pair_violations(a, K_ODD):
        return f"rows {j} and {l} have some odd componentwise product"
    return None


def in_W2(a: IntMatrix) -> bool:
    """True iff det(a) == 1 and every pair of distinct rows has an all-even pre-dot.

    Determinant one plus the even-products condition is equivalent to
    reducing mod 2 to a permutation matrix.
    """
    return _w2_failure(a) is None


def mod2_class(a: IntMatrix) -> Optional[Permutation]:
    """The permutation sigma with a == P_sigma mod 2, or None if there is none."""
    n = a.n
    images = []
    for i in range(n):
        odd_cols = [j + 1 for j in range(n) if a.rows[i][j] % 2]
        if len(odd_cols) != 1:
            return None
        images.append(odd_cols[0])
    if sorted(images) != list(range(1, n + 1)):
        return None
    return Permutation(images)


@record
class CosetCertificate:
    """Factorization a = (tau if uses_tau else I) * P_sigma * residual.

    `sigma` is always even and `residual` lies in the level-2 congruence
    subgroup, so the certificate pins down the coset of `a`.
    """

    uses_tau: bool
    sigma: Permutation
    residual: IntMatrix

    def reconstruct(self) -> IntMatrix:
        return representative_matrix(self.uses_tau, self.sigma) * self.residual

    def verify(self, a: IntMatrix) -> bool:
        return (
            self.sigma.is_even
            and in_congruence(self.residual, 2)
            and self.reconstruct() == a
        )


def _class_representative(cls: Permutation) -> tuple[bool, Permutation]:
    """(uses_tau, sigma) of the representative of the mod-2 class `cls`.

    An even class c is represented by P_c, an odd one by tau * P_{c o (1 2)}.
    """
    if cls.is_even:
        return False, cls
    return True, cls * Permutation.transposition(cls.n, 1, 2)


def coset_representatives(n: int) -> list[tuple[bool, Permutation]]:
    """One integer representative per mod-2 class: even sigmas plus tau-led ones."""
    return [
        _class_representative(Permutation(images))
        for images in itertools.permutations(range(1, n + 1))
    ]


def _representative_entries(uses_tau: bool, sigma: Permutation) -> list[tuple[int, int]]:
    """(column, sign), 0-based, of the one nonzero entry in each row of the
    representative (tau if uses_tau else I) * P_sigma.

    Row i of P_sigma has its 1 in column sigma(i); tau's rows are -e_2, e_1,
    e_3, .., so it swaps the first two rows and negates the new first one.
    """
    entries = [(x - 1, 1) for x in sigma.images]
    if uses_tau:
        if sigma.n < 2:
            raise ValueError("tau requires n >= 2")
        (c0, _), (c1, _) = entries[0], entries[1]
        entries[0], entries[1] = (c1, -1), (c0, 1)
    return entries


def representative_matrix(uses_tau: bool, sigma: Permutation) -> IntMatrix:
    n = sigma.n
    rows = []
    for c, s in _representative_entries(uses_tau, sigma):
        row = [0] * n
        row[c] = s
        rows.append(tuple(row))
    return IntMatrix._trusted(tuple(rows))


def coset_certificate(a: IntMatrix) -> CosetCertificate:
    """Certificate locating `a` in its coset over the level-2 congruence subgroup.

    Raises NotInGroupError unless `a` passes in_W2. With P_sigma P_pi =
    P_{pi o sigma} for the row convention used here, an odd mod-2 class c
    forces sigma = c o (1 2), which is even; the residual is recovered
    exactly and re-verified before returning.
    """
    if not in_W2(a):
        raise NotInGroupError("matrix is not in the even-products group")
    cls = mod2_class(a)
    assert cls is not None  # in_W2 guarantees a permutation class
    uses_tau, sigma = _class_representative(cls)
    # the representative R is a signed permutation, so R^-1 = R^T, and R^T * a
    # puts s times row i of `a` in row c, for the entry (c, s) of R's row i
    rows: list = [None] * a.n
    for (c, s), row in zip(_representative_entries(uses_tau, sigma), a.rows):
        rows[c] = row if s == 1 else tuple(-x for x in row)
    residual = IntMatrix._trusted(tuple(rows))
    cert = CosetCertificate(uses_tau=uses_tau, sigma=sigma, residual=residual)
    if not cert.verify(a):
        raise AssertionError("coset certificate failed self-verification")
    return cert


def is_signed_permutation(a: IntMatrix) -> bool:
    """Exactly one nonzero entry per row and column, each equal to +-1."""
    n = a.n
    used_cols = set()
    for row in a.rows:
        nz = [j for j, x in enumerate(row) if x != 0]
        if len(nz) != 1 or abs(row[nz[0]]) != 1:
            return False
        used_cols.add(nz[0])
    return len(used_cols) == n


@record
class MembershipCheck:
    member: bool
    reason: str


def _unimodular_failure(a: IntMatrix) -> Optional[str]:
    """Why det(a) is not +-1, or None."""
    det = a.det()
    return None if det in (1, -1) else f"determinant {det} is not +-1"


def hR_member(a: IntMatrix, k_class: str) -> MembershipCheck:
    """Can `a` be induced by a self-map of an n-fold product of k-spheres?

    `k_class` is `hopf` (k in {1,3,7}), `odd_generic` (other odd k) or `even`.
    """
    if k_class == K_EVEN:
        if next(_row_pair_violations(a, K_EVEN), None) is None and not _unimodular_failure(a):
            return MembershipCheck(True, "signed permutation matrix")
        return MembershipCheck(False, "not a signed permutation matrix")
    if k_class not in (K_HOPF, K_ODD):
        raise ValueError(f"unknown k class {k_class!r}")
    if failure := _unimodular_failure(a):
        return MembershipCheck(False, failure)
    if k_class == K_HOPF:
        return MembershipCheck(True, "determinant is +-1")
    # with an odd determinant, no odd pair product means a permutation mod 2
    if next(_row_pair_violations(a, K_ODD), None) is not None:
        return MembershipCheck(False, "mod-2 reduction is not a permutation matrix")
    return MembershipCheck(True, "unimodular and a permutation matrix mod 2")


@record
class ObstructionReport:
    """Expansion coefficients for one row pair (j, l), 1-based indices."""

    n: int
    pair: tuple[int, int]
    cross: dict[tuple[int, int], int]
    diag: tuple[int, ...]


def whitehead_coeffs(a: IntMatrix, j: int, l: int) -> ObstructionReport:
    """Cross and diagonal coefficients of the commutator expansion for rows j, l."""
    n = a.n
    if not (1 <= j <= n and 1 <= l <= n) or j == l:
        raise ValueError(f"need two distinct row indices in 1..{n}, got ({j},{l})")
    rj, rl = a.rows[j - 1], a.rows[l - 1]
    cross = {
        (s, t): rj[s - 1] * rl[t - 1] - rj[t - 1] * rl[s - 1]
        for s in range(1, n + 1)
        for t in range(s + 1, n + 1)
    }
    diag = tuple(rj[s] * rl[s] for s in range(n))
    return ObstructionReport(n=n, pair=(j, l), cross=cross, diag=diag)


def cross_consistency(a: IntMatrix, j: int, l: int) -> bool:
    """Check the cross coefficients against independently computed 2x2 minors."""
    cross = whitehead_coeffs(a, j, l).cross  # validates j and l
    rj, rl = a.rows[j - 1], a.rows[l - 1]
    return all(
        IntMatrix(((rj[s - 1], rj[t - 1]), (rl[s - 1], rl[t - 1]))).det() == value
        for (s, t), value in cross.items()
    )


@record
class ObstructionVerdict:
    k_class: str
    realizable: bool
    violations: tuple[tuple[tuple[int, int], int], ...]
    """Violations are ((j, l), s) pairs naming the offending diagonal coefficient."""


def classify(a: IntMatrix, k_class: str) -> ObstructionVerdict:
    """Obstruction verdict for a unimodular `a`: every violation, in scan order."""
    if k_class not in K_CLASSES:
        raise ValueError(f"unknown k class {k_class!r}")
    if failure := _unimodular_failure(a):
        raise ValueError(failure)
    # a list first: tuple(generator) reallocates as it grows, fragmenting the heap
    violations = list(_row_pair_violations(a, k_class))
    return ObstructionVerdict(k_class, not violations, tuple(violations))


def k_to_class(k: int) -> str:
    if k < 1:
        raise ValueError("sphere dimension must be at least 1")
    if k in (1, 3, 7):
        return K_HOPF
    return K_ODD if k % 2 else K_EVEN


def count_hR_even(n: int) -> int:
    """Number of realizable matrices for even k: signed permutations, 2^n * n!."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (2 ** n) * math.factorial(n)

