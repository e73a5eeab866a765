"""Commutator obstructions for inducing an integer matrix on a sphere product.

A candidate self-map with induced matrix A must kill the image of every
basic commutator. Expanding f_*[i_j, i_l] by bilinearity leaves cross terms
with coefficients a_js a_lt - a_jt a_ls (the 2x2 minors of the row pair)
and diagonal terms with coefficients a_js a_ls on the self-commutators.
Cross terms always vanish; the diagonal ones live in a group that depends
on the sphere dimension k:

* k in {1, 3, 7}: the self-commutator is zero, no constraint;
* other odd k:    it has order two, so every a_js a_ls must be even;
* even k:         it has infinite order, so every a_js a_ls must vanish.
"""

from __future__ import annotations

from ._record import record
from .intmat import IntMatrix
from .subgroups import K_CLASSES, K_EVEN, K_HOPF, K_ODD, k_to_class


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
    rj = a.rows[j - 1]
    rl = a.rows[l - 1]
    cross = {
        (s, t): rj[s - 1] * rl[t - 1] - rj[t - 1] * rl[s - 1]
        for s in range(1, n + 1)
        for t in range(s + 1, n + 1)
    }
    diag = tuple(rj[s] * rl[s] for s in range(n))
    return ObstructionReport(n=n, pair=(j, l), cross=cross, diag=diag)


def cross_consistency(a: IntMatrix, j: int, l: int) -> bool:
    """Check the cross coefficients against independently computed 2x2 minors."""
    report = whitehead_coeffs(a, j, l)
    for (s, t), value in report.cross.items():
        sub = IntMatrix(
            (
                (a.rows[j - 1][s - 1], a.rows[j - 1][t - 1]),
                (a.rows[l - 1][s - 1], a.rows[l - 1][t - 1]),
            )
        )
        if sub.det() != value:
            return False
    return True


@record
class ObstructionVerdict:
    k_class: str
    realizable: bool
    violations: tuple[tuple[tuple[int, int], int], ...]
    """Violations are ((j, l), s) pairs naming the offending diagonal coefficient."""


def classify(a: IntMatrix, k_class: str) -> ObstructionVerdict:
    """Full obstruction verdict for a unimodular matrix in the given k class.

    Scans diagonal coefficients over all row pairs j < l; columns with
    violations are reported 1-based in deterministic order.
    """
    if k_class not in K_CLASSES:
        raise ValueError(f"unknown k class {k_class!r}")
    if a.det() not in (1, -1):
        raise ValueError("matrix must be unimodular")
    if k_class == K_HOPF:
        return ObstructionVerdict(k_class, True, ())
    violations = []
    for j in range(1, a.n + 1):
        for l in range(j + 1, a.n + 1):
            report = whitehead_coeffs(a, j, l)
            for s, coeff in enumerate(report.diag, start=1):
                if k_class == K_ODD and coeff % 2 != 0:
                    violations.append(((j, l), s))
                elif k_class == K_EVEN and coeff != 0:
                    violations.append(((j, l), s))
    return ObstructionVerdict(k_class, not violations, tuple(violations))


__all__ = [
    "ObstructionReport",
    "ObstructionVerdict",
    "classify",
    "cross_consistency",
    "k_to_class",
    "whitehead_coeffs",
]
