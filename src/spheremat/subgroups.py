"""Membership tests and coset certificates for arithmetic matrix groups.

Three nested groups appear throughout:

* the level-m congruence subgroup of SL_n(Z), i.e. matrices that reduce to
  the identity mod m;
* for m = 2, the larger group of determinant-one matrices whose distinct
  rows have componentwise-even products (equivalently: matrices that reduce
  mod 2 to a permutation matrix);
* GL_n(Z) filtered by which sphere dimension the matrix should be realized
  on (`hR_member`).
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from ._record import record
from .intmat import IntMatrix, tau_matrix
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
    return tuple(int(a) * int(b) for a, b in zip(v, w))


def in_congruence(a: IntMatrix, m: int) -> bool:
    """True iff det(a) == 1 and a reduces to the identity mod m."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if a.det() != 1:
        return False
    return a.reduce_mod(m).is_identity()


def in_W2(a: IntMatrix) -> bool:
    """True iff det(a) == 1 and every pair of distinct rows has an all-even pre-dot.

    Determinant one plus the even-products condition is equivalent to
    reducing mod 2 to a permutation matrix.
    """
    if a.det() != 1:
        return False
    for i in range(a.n):
        for j in range(i + 1, a.n):
            if any(x % 2 for x in pre_dot(a.rows[i], a.rows[j])):
                return False
    return True


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
        n = self.sigma.n
        lead = tau_matrix(n) if self.uses_tau else IntMatrix.identity(n)
        return lead * self.sigma.matrix() * self.residual

    def verify(self, a: IntMatrix) -> bool:
        return (
            self.sigma.is_even
            and in_congruence(self.residual, 2)
            and self.reconstruct() == a
        )


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
    n = a.n
    if cls.is_even:
        uses_tau = False
        sigma = cls
        lead = IntMatrix.identity(n)
    else:
        uses_tau = True
        swap = Permutation.transposition(n, 1, 2)
        sigma = cls * swap
        lead = tau_matrix(n)
    # both factors are orthogonal: P_sigma^-1 = P_sigma^T and tau^-1 = tau^T = tau^3
    residual = sigma.matrix().transpose() * lead.transpose() * a
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


def hR_member(a: IntMatrix, k_class: str) -> MembershipCheck:
    """Can `a` be induced by a self-map of an n-fold product of k-spheres?

    The answer depends only on which of three classes k falls in:
    `hopf` (k in {1,3,7}), `odd_generic` (other odd k), `even`.
    """
    det = a.det()
    if k_class == K_HOPF:
        if det in (1, -1):
            return MembershipCheck(True, "determinant is +-1")
        return MembershipCheck(False, f"determinant {det} is not +-1")
    if k_class == K_ODD:
        if det not in (1, -1):
            return MembershipCheck(False, f"determinant {det} is not +-1")
        if mod2_class(a) is None:
            return MembershipCheck(False, "mod-2 reduction is not a permutation matrix")
        return MembershipCheck(True, "unimodular and a permutation matrix mod 2")
    if k_class == K_EVEN:
        if is_signed_permutation(a):
            return MembershipCheck(True, "signed permutation matrix")
        return MembershipCheck(False, "not a signed permutation matrix")
    raise ValueError(f"unknown k class {k_class!r}")


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


def random_sln(n: int, rng: random.Random, min_letters: int = 20, max_letters: int = 50) -> IntMatrix:
    """Random element of SL_n(Z): a product of 20..50 uniform elementary matrices.

    Each letter multiplies on the right, i.e. adds +-1 times one column to
    another, so sampling is O(n) per letter. Pass a seeded random.Random for
    reproducibility.
    """
    if n < 2:
        return IntMatrix.identity(max(n, 1))
    cols = [[1 if r == c else 0 for r in range(n)] for c in range(n)]
    length = rng.randint(min_letters, max_letters)
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        s = rng.choice((1, -1))
        # right-multiplying by E_ij^s adds s * column i to column j
        ci, cj = cols[i], cols[j]
        for r in range(n):
            cj[r] += s * ci[r]
    return IntMatrix(tuple(zip(*cols)))
