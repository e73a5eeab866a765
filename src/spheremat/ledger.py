"""A ledger of identities the package relies on, each re-checkable on demand.

Several formulas in this package are easy to state slightly wrong (an index
range off by one, a missing factor of two, a reflection hiding inside a
shear). Every such identity lives here as a LedgerEntry whose check runs
the exact computation from scratch, so `spheremat ledger` can re-verify the
whole list at any time. Checks are deterministic; anything randomized uses
a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

import numpy as np

from ._record import record
from .intmat import IntMatrix, elementary_matrix, tau_matrix
from .permutation import Permutation
from .subgroups import (
    K_EVEN,
    coset_certificate,
    count_hR_even,
    hR_member,
    in_congruence,
    in_W2,
    is_signed_permutation,
)
from .words import (
    GeneratorWord,
    J,
    JR,
    decompose_gamma2,
    jrange_expand,
    random_congruence_word,
    rewrite_table_audit,
    symbol_matrix,
    word_to_matrix,
)
from .spheres import (
    AlgebraElement,
    compose_maps,
    induced_matrix_on_torus,
    octonion_unit,
    quaternion_collision_witness,
    reflection_shear_torus_map,
    slot_conjugation_torus_map,
)


@record
class LedgerEntry:
    key: str
    claim: str
    check: Callable[[], tuple[bool, str]]


@record
class LedgerResult:
    key: str
    claim: str
    ok: bool
    detail: str


def _check_jr_expansion() -> tuple[bool, str]:
    pairs = 0
    for n in range(3, 7):
        for i in range(1, n):
            for k in range(i + 1, n + 1):
                expanded = jrange_expand(i, k, n).matrix()
                target = symbol_matrix(JR(i, k), n)
                if expanded != target:
                    return False, f"expansion mismatch at n={n}, (i,k)=({i},{k})"
                # the product one factor longer lands on the wrong pair
                if k < n:
                    longer = GeneratorWord(
                        n, [(J(t), 1) for t in range(i, k + 1)]
                    ).matrix()
                    if longer == target:
                        return False, f"over-long product unexpectedly matched at n={n}"
                pairs += 1
    return True, f"checked {pairs} (i,k) pairs for n=3..6, with over-long variants rejected"


def _check_sign_pair_form() -> tuple[bool, str]:
    for n in range(2, 7):
        for i in range(1, n):
            jm = symbol_matrix(J(i), n)
            if jm * jm != IntMatrix.identity(n):
                return False, f"J({i}) is not an involution at n={n}"
            for k in range(i + 1, n + 1):
                m = symbol_matrix(JR(i, k), n)
                want = IntMatrix.diagonal(
                    [-1 if t + 1 in (i, k) else 1 for t in range(n)]
                )
                if m != want or m.det() != 1 or not in_W2(m):
                    return False, f"JR({i},{k}) wrong at n={n}"
    return True, "JR(i,k) is the diagonal sign pair at rows i,k; unit det; J(i)^2 = I"


def _check_rewrite_tables() -> tuple[bool, str]:
    reports = rewrite_table_audit(4)  # a wrong table entry raises AssertionError
    total = sum(r.instances for r in reports)
    if len(reports) != 16:
        return False, f"expected 16 case families, audited {len(reports)}"
    return True, f"16 case families, {total} instances at n=4, zero repairs"


def _check_gamma2_generators() -> tuple[bool, str]:
    gens = [
        elementary_matrix(2, 1, 2, 2),
        elementary_matrix(2, 2, 1, 2),
        -IntMatrix.identity(2),
    ]
    steps = gens + [g.inverse_unimodular() for g in gens]
    seen = {IntMatrix.identity(2)}
    frontier = [IntMatrix.identity(2)]
    for _ in range(3):
        nxt = []
        for m in frontier:
            for g in steps:
                prod = m * g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    for m in seen:
        if not in_congruence(m, 2):
            return False, f"generated element outside the group: {m.rows}"
    rng = random.Random(11)
    for _ in range(25):
        word = random_congruence_word(2, rng, max_letters=12)
        target = word.matrix()
        back = word_to_matrix(decompose_gamma2(target))
        if back != target:
            return False, "round trip failed"
    return True, f"{len(seen)} short products all members; 25 seeded round trips"


def _check_coset_reconstruction() -> tuple[bool, str]:
    rng = random.Random(7)
    n = 3
    tau = tau_matrix(n)
    swap = Permutation.transposition(n, 1, 2)
    count = 0
    for _ in range(40):
        sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        if not sigma.is_even:
            sigma = sigma * swap
        uses_tau = rng.random() < 0.5
        lead = tau * sigma.matrix() if uses_tau else sigma.matrix()
        member = lead * random_congruence_word(n, rng, max_letters=8).matrix()
        if not in_W2(member):
            return False, "constructed element fell outside the group"
        cert = coset_certificate(member)
        if not cert.verify(member):
            return False, f"certificate failed to verify for {member.rows}"
        if cert.uses_tau != uses_tau:
            return False, "tau usage disagrees with the construction"
        count += 1
    return True, f"{count} seeded members reconstructed from certificates"


def _check_octonion_nonassociative() -> tuple[bool, str]:
    e1, e2, e4 = octonion_unit(1), octonion_unit(2), octonion_unit(4)
    left = (e1 * e2) * e4
    right = e1 * (e2 * e4)
    if not left.allclose(octonion_unit(7)):
        return False, "(e1 e2) e4 is not e7"
    if not right.allclose(-octonion_unit(7)):
        return False, "e1 (e2 e4) is not -e7"
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = AlgebraElement(rng.standard_normal(8))
        y = AlgebraElement(rng.standard_normal(8))
        if abs((x * y).norm() - x.norm() * y.norm()) > 1e-9:
            return False, "octonion norm is not multiplicative"
    return True, "(e1 e2) e4 = e7 = -e1 (e2 e4); norms multiplicative on 50 samples"


def _check_quaternion_collision() -> tuple[bool, str]:
    w = quaternion_collision_witness()
    if not w.confirmed:
        return False, f"max error {w.max_error}, separation {w.input_separation}"
    return (
        True,
        f"two inputs {w.input_separation:.3f} apart share an image "
        f"(error {w.max_error:.2e}) under a unit-determinant matrix",
    )


def _check_reflection_shear() -> tuple[bool, str]:
    raw = induced_matrix_on_torus(reflection_shear_torus_map(2), 2)
    if raw != IntMatrix([[-1, 2], [0, 1]]):
        return False, f"raw shear measured {raw.rows}"
    fixed = induced_matrix_on_torus(
        compose_maps(reflection_shear_torus_map(2), slot_conjugation_torus_map(1, 2)),
        2,
    )
    if fixed != elementary_matrix(2, 1, 2, 2):
        return False, f"conjugated shear measured {fixed.rows}"
    return (
        True,
        "shear construction measures [[-1,2],[0,1]]; precomposing conjugation "
        "in slot 1 lands exactly on E(1,2)^2",
    )


def _check_psi_circle() -> tuple[bool, str]:
    # on the circle, x - 2<x,y>y at x = 1 is -y^2
    def circle_map(z: np.ndarray) -> np.ndarray:
        out = np.asarray(z, dtype=complex).copy()
        y = out[..., 0]
        inner = np.real(np.conj(y))
        out[..., 0] = 1.0 - 2.0 * inner * y
        return out

    measured = induced_matrix_on_torus(circle_map, 1)
    if measured != IntMatrix([[2]]):
        return False, f"circle reflection wound {measured.rows}"
    thetas = np.linspace(0.0, 2.0 * np.pi, 97)
    ys = np.exp(1j * thetas)
    got = circle_map(ys[:, None])[:, 0]
    want = -np.exp(2j * thetas)
    if float(np.max(np.abs(got - want))) > 1e-12:
        return False, "closed form -e^{2i beta} does not match"
    return True, "y -> x - 2<x,y>y at x=1 is -y^2 on the circle: winding 2"


def _check_even_class_count() -> tuple[bool, str]:
    # all 6^3 = 216 matrices with one +-1 per row, decided for even k
    n = 3
    rows = [tuple(sign * (c == col) for c in range(n)) for col in range(n) for sign in (1, -1)]
    count = 0
    for cand in map(IntMatrix, itertools.product(rows, repeat=n)):
        member = hR_member(cand, K_EVEN).member
        if member != is_signed_permutation(cand):
            return False, f"hR_member and is_signed_permutation disagree on {cand.rows}"
        count += member
    if count != count_hR_even(n):
        return False, f"enumerated {count}, formula gives {count_hR_even(n)}"
    return True, f"signed permutations at n=3: {count} = 2^3 * 3!"


def all_entries() -> tuple[LedgerEntry, ...]:
    return (
        LedgerEntry(
            "jr-expansion",
            "JR(i,k) expands as the product J(i) J(i+1) ... J(k-1)",
            _check_jr_expansion,
        ),
        LedgerEntry(
            "sign-pair-form",
            "JR(i,k) is the identity with rows i and k negated",
            _check_sign_pair_form,
        ),
        LedgerEntry(
            "rewrite-tables",
            "all 16 conjugation rewrite case families verify exactly",
            _check_rewrite_tables,
        ),
        LedgerEntry(
            "gamma2-generators",
            "E(1,2)^2, E(2,1)^2 and -I generate inside the level-2 group, "
            "and the planar decomposition round-trips",
            _check_gamma2_generators,
        ),
        LedgerEntry(
            "coset-reconstruction",
            "coset certificates reconstruct their member exactly",
            _check_coset_reconstruction,
        ),
        LedgerEntry(
            "octonion-nonassociative",
            "octonion multiplication is not associative but preserves norms",
            _check_octonion_nonassociative,
        ),
        LedgerEntry(
            "quaternion-collision",
            "a unit-determinant power product on quaternion pairs can collide",
            _check_quaternion_collision,
        ),
        LedgerEntry(
            "reflection-shear",
            "the two-sphere-factor shear construction hides a reflection; "
            "conjugating one factor removes it",
            _check_reflection_shear,
        ),
        LedgerEntry(
            "psi-circle",
            "the circle reflection x - 2<x,y>y has winding 2 in y",
            _check_psi_circle,
        ),
        LedgerEntry(
            "even-class-count",
            "signed permutation matrices at n=3 number 2^n n! = 48",
            _check_even_class_count,
        ),
    )


def run_ledger() -> list[LedgerResult]:
    results = []
    for entry in all_entries():
        ok, detail = entry.check()
        results.append(LedgerResult(entry.key, entry.claim, ok, detail))
    return results
