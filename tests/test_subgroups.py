import itertools
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from spheremat.intmat import IntMatrix, elementary_matrix, tau_matrix
from spheremat.permutation import Permutation
from spheremat.subgroups import (
    K_EVEN,
    K_HOPF,
    K_ODD,
    NotInGroupError,
    _congruence_failure,
    _row_pair_violations,
    coset_certificate,
    count_hR_even,
    hR_member,
    in_W2,
    in_congruence,
    is_signed_permutation,
    k_to_class,
    mod2_class,
    pre_dot,
    representative_matrix,
)
from spheremat.words import random_congruence_word, random_sln


def test_pre_dot_examples():
    assert pre_dot((1, 0, 0), (0, 1, 0)) == (0, 0, 0)
    # rows 1, 2 of tau
    assert pre_dot((0, -1, 0), (1, 0, 0)) == (0, 0, 0)
    assert pre_dot((1, 1), (0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        pre_dot((1, 2), (1, 2, 3))


def test_pre_dot_refuses_non_integral_entries():
    assert pre_dot((True, 2.0), (3, Fraction(4, 2))) == (3, 4)
    for bad in (1.5, Fraction(3, 2), "2"):
        message = f"^vector entry {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            pre_dot((bad, 2), (2, 2))
        with pytest.raises(ValueError, match=message):
            pre_dot((2, 2), (2, bad))


def test_in_congruence_examples():
    assert in_congruence(elementary_matrix(2, 1, 2, 2), 2)
    assert not in_congruence(elementary_matrix(2, 1, 2), 2)
    assert in_congruence(-IntMatrix.identity(2), 2)
    # -I is congruent mod 2 but not mod 3
    assert not in_congruence(-IntMatrix.identity(2), 3)
    with pytest.raises(ValueError):
        in_congruence(IntMatrix.identity(2), 1)


def test_congruence_is_read_from_the_rows(monkeypatch):
    rng = random.Random(23)
    cases = [(random_sln(n, rng), m) for n in (2, 3, 4) for m in (2, 3, 4) for _ in range(10)]
    cases += [(IntMatrix([[1 + m * x for x in (1, 0)], [0, 1]]), m) for m in (2, 3, 5)]
    cases += [(-IntMatrix.identity(2), m) for m in (2, 3)]
    want = [a.det() == 1 and a.reduce_mod(m).is_identity() for a, m in cases]
    assert 0 < sum(want) < len(want)

    def refuse(self, m):
        raise AssertionError("the congruence check built a ResidueMatrix")

    monkeypatch.setattr(IntMatrix, "reduce_mod", refuse)
    for (a, m), member in zip(cases, want):
        reason = _congruence_failure(a, m)
        assert (reason is None) == member
        if a.det() == 1 and not member:
            assert reason == f"not congruent to the identity mod {m}"


def test_in_w2_examples():
    assert in_W2(IntMatrix.identity(4))
    assert in_W2(tau_matrix(3))
    assert not in_W2(elementary_matrix(2, 1, 2))
    # determinant -1 permutation matrix fails despite even pre-dots
    assert not in_W2(Permutation.transposition(2, 1, 2).matrix())


def test_mod2_class_examples():
    assert mod2_class(elementary_matrix(2, 1, 2, 2)) == Permutation.identity(2)
    assert mod2_class(tau_matrix(3)) == Permutation.transposition(3, 1, 2)
    assert mod2_class(elementary_matrix(2, 1, 2)) is None


def test_coset_certificate_identity_and_tau():
    cert = coset_certificate(IntMatrix.identity(3))
    assert (cert.uses_tau, cert.sigma, cert.residual) == (
        False,
        Permutation.identity(3),
        IntMatrix.identity(3),
    )
    cert = coset_certificate(tau_matrix(3))
    assert cert.uses_tau and cert.sigma == Permutation.identity(3)
    assert cert.residual == IntMatrix.identity(3)


def test_coset_certificate_tau_times_generator():
    e = elementary_matrix(3, 1, 2, 2)
    cert = coset_certificate(tau_matrix(3) * e)
    assert cert.uses_tau
    assert cert.sigma == Permutation.identity(3)
    assert cert.residual == e
    assert cert.verify(tau_matrix(3) * e)


def test_coset_certificate_verify_rejects_another_matrix():
    # b lies in the coset of a: sigma and the residual pass, the product does not
    e = elementary_matrix(3, 1, 2, 2)
    a, b = tau_matrix(3) * e, tau_matrix(3) * e * e
    assert in_W2(a) and in_W2(b)
    cert = coset_certificate(a)
    assert cert.verify(a)
    assert not cert.verify(b)


def test_coset_certificate_rejects_non_member():
    with pytest.raises(NotInGroupError):
        coset_certificate(elementary_matrix(2, 1, 2))


def test_coset_certificate_random_roundtrip():
    rng = random.Random(1234)
    tau = tau_matrix(4)
    swap = Permutation.transposition(4, 1, 2)
    for _ in range(60):
        sigma = Permutation(tuple(rng.sample(range(1, 5), 4)))
        if not sigma.is_even:
            sigma = sigma * swap
        lead = sigma.matrix()
        if rng.random() < 0.5:
            lead = tau * lead
        member = lead * random_congruence_word(4, rng, max_letters=8).matrix()
        cert = coset_certificate(member)
        assert cert.sigma.is_even
        assert in_congruence(cert.residual, 2)
        assert cert.reconstruct() == member


def test_representative_matrix_equals_the_dense_product():
    # the representative is written row by row; it must be the product of
    # the quarter turn (or the identity) with the permutation matrix
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(images)
            assert representative_matrix(False, sigma) == IntMatrix.identity(n) * sigma.matrix()
            if n == 1:
                with pytest.raises(ValueError, match="^tau requires n >= 2$"):
                    representative_matrix(True, sigma)
            else:
                assert representative_matrix(True, sigma) == tau_matrix(n) * sigma.matrix()


def test_coset_residual_is_the_transposed_representative_times_a():
    rng = random.Random(2029)
    swap = {n: Permutation.transposition(n, 1, 2) for n in range(2, 9)}
    for n in range(2, 9):
        for _ in range(25):
            sigma = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            if not sigma.is_even:
                sigma = sigma * swap[n]
            lead = sigma.matrix()
            if rng.random() < 0.5:
                lead = tau_matrix(n) * lead
            a = lead * random_congruence_word(n, rng, max_letters=8).matrix()
            cert = coset_certificate(a)
            rep = representative_matrix(cert.uses_tau, cert.sigma)
            assert cert.residual == rep.transpose() * a


def test_w2_closure_under_product_and_inverse():
    rng = random.Random(77)
    tau = tau_matrix(3)
    members = []
    swap = Permutation.transposition(3, 1, 2)
    for _ in range(20):
        sigma = Permutation(tuple(rng.sample(range(1, 4), 3)))
        if not sigma.is_even:
            sigma = sigma * swap
        lead = tau * sigma.matrix() if rng.random() < 0.5 else sigma.matrix()
        members.append(lead * random_congruence_word(3, rng, max_letters=6).matrix())
    for a, b in zip(members, members[1:]):
        assert in_W2(a * b)
        assert in_W2(a.inverse_unimodular())


def test_w2_equals_mod2_class_on_random_sln():
    # the membership test and the mod-2 pattern test are independent routes
    rng = random.Random(4242)
    agree = 0
    for _ in range(400):
        n = rng.choice([2, 3, 4, 5])
        a = random_sln(n, rng, min_letters=5, max_letters=20)
        assert in_W2(a) == (mod2_class(a) is not None)
        agree += 1
    assert agree == 400


def test_congruence_normal_under_conjugation():
    rng = random.Random(5150)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        gamma = random_congruence_word(n, rng, max_letters=8).matrix()
        u = random_sln(n, rng, min_letters=5, max_letters=15)
        assert in_congruence(u * gamma * u.inverse_unimodular(), 2)


class _Unread(tuple):
    """A row that fails the test if anything reads its entries."""

    def __iter__(self):
        raise AssertionError("row 3 was read")

    def __getitem__(self, index):
        raise AssertionError("row 3 was read")


def test_row_pair_scan_stops_reading_rows_at_the_first_witness():
    rows = ((2, 1, 0), (1, 1, 0), _Unread((0, 0, 1)))
    lazy = SimpleNamespace(n=3, rows=rows)
    assert next(_row_pair_violations(lazy, K_ODD)) == ((1, 2), 2)
    assert next(_row_pair_violations(lazy, K_EVEN)) == ((1, 2), 1)
    # the triples keep their order: pairs j < l, then the column s
    rng = random.Random(5)
    for n in (2, 3, 5):
        for _ in range(30):
            a = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            for k_class, obstructs in ((K_ODD, lambda x: x % 2), (K_EVEN, bool)):
                want = [
                    ((j + 1, l + 1), s + 1)
                    for j, l in itertools.combinations(range(n), 2)
                    for s in range(n)
                    if obstructs(a.rows[j][s] * a.rows[l][s])
                ]
                assert list(_row_pair_violations(a, k_class)) == want


def test_is_signed_permutation():
    assert is_signed_permutation(IntMatrix.diagonal([1, -1, 1]))
    assert is_signed_permutation(tau_matrix(2))
    assert not is_signed_permutation(elementary_matrix(2, 1, 2, 2))
    assert not is_signed_permutation(IntMatrix([[1, 0], [0, 2]]))


def test_hr_member_examples():
    e2 = elementary_matrix(2, 1, 2, 2)
    assert hR_member(IntMatrix([[3, 2], [4, 3]]), K_HOPF).member
    assert not hR_member(e2, K_EVEN).member
    assert hR_member(e2, K_ODD).member
    # det -1 allowed for hopf and odd classes
    flip = IntMatrix.diagonal([-1, 1])
    assert hR_member(flip, K_HOPF).member
    assert hR_member(flip, K_ODD).member
    assert hR_member(flip, K_EVEN).member
    assert not hR_member(IntMatrix([[2, 0], [0, 1]]), K_HOPF).member
    with pytest.raises(ValueError):
        hR_member(e2, "bogus")


def test_k_to_class():
    assert k_to_class(1) == K_HOPF
    assert k_to_class(3) == K_HOPF
    assert k_to_class(7) == K_HOPF
    assert k_to_class(5) == K_ODD
    assert k_to_class(9) == K_ODD
    assert k_to_class(2) == K_EVEN
    assert k_to_class(4) == K_EVEN
    with pytest.raises(ValueError):
        k_to_class(0)


def test_count_hr_even_formula_and_enumeration():
    assert count_hR_even(1) == 2
    assert count_hR_even(3) == 48
    # brute-force count of n=3 signed permutation matrices
    found = 0
    for images in itertools.permutations((1, 2, 3)):
        base = Permutation(images).matrix()
        for signs in itertools.product((1, -1), repeat=3):
            if is_signed_permutation(IntMatrix.diagonal(signs) * base):
                found += 1
    assert found == 48


def test_random_sln_has_unit_det():
    rng = random.Random(9)
    for _ in range(20):
        a = random_sln(3, rng)
        assert a.det() == 1
