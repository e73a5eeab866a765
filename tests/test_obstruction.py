import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from spheremat.intmat import IntMatrix, elementary_matrix, tau_matrix
from spheremat.subgroups import (
    K_EVEN,
    K_HOPF,
    K_ODD,
    classify,
    cross_consistency,
    hR_member,
    in_W2,
    is_signed_permutation,
    mod2_class,
    whitehead_coeffs,
)
from spheremat.words import random_sln


def brute_minor(a, j, l, s, t):
    rj, rl = a.rows[j - 1], a.rows[l - 1]
    return rj[s - 1] * rl[t - 1] - rj[t - 1] * rl[s - 1]


def test_identity_coefficients():
    report = whitehead_coeffs(IntMatrix.identity(3), 1, 2)
    assert report.pair == (1, 2)
    assert report.cross[(1, 2)] == 1
    assert report.cross[(1, 3)] == 0
    assert report.cross[(2, 3)] == 0
    assert report.diag == (0, 0, 0)


def test_elementary_diagonal_coefficients():
    e12 = elementary_matrix(2, 1, 2)
    assert whitehead_coeffs(e12, 1, 2).diag == (0, 1)
    e12sq = elementary_matrix(2, 1, 2, 2)
    assert whitehead_coeffs(e12sq, 1, 2).diag == (0, 2)


def test_two_by_two_cross_is_determinant():
    rng = random.Random(99)
    for _ in range(50):
        a = random_sln(2, rng, min_letters=3, max_letters=12)
        report = whitehead_coeffs(a, 1, 2)
        assert report.cross == {(1, 2): a.det()}
        assert report.cross[(1, 2)] == 1


def test_cross_against_brute_minors():
    rng = random.Random(7)
    for _ in range(25):
        a = random_sln(4, rng, min_letters=5, max_letters=20)
        for j, l in combinations(range(1, 5), 2):
            report = whitehead_coeffs(a, j, l)
            for (s, t), value in report.cross.items():
                assert value == brute_minor(a, j, l, s, t)
            assert cross_consistency(a, j, l)


def test_whitehead_coeffs_rejects_bad_rows():
    a = IntMatrix.identity(3)
    with pytest.raises(ValueError):
        whitehead_coeffs(a, 2, 2)
    with pytest.raises(ValueError):
        whitehead_coeffs(a, 0, 1)
    with pytest.raises(ValueError):
        whitehead_coeffs(a, 1, 4)


def test_classify_hopf_accepts_everything_unimodular():
    rng = random.Random(11)
    for _ in range(20):
        a = random_sln(3, rng)
        verdict = classify(a, K_HOPF)
        assert verdict.realizable and verdict.violations == ()


def test_classify_odd_examples():
    tau = tau_matrix(2)
    assert classify(tau, K_ODD).realizable
    e12sq = elementary_matrix(2, 1, 2, 2)
    assert classify(e12sq, K_ODD).realizable
    e12 = elementary_matrix(2, 1, 2)
    verdict = classify(e12, K_ODD)
    assert not verdict.realizable
    assert verdict.violations == (((1, 2), 2),)


def test_classify_even_examples():
    # signed permutations are the only survivors of the vanishing condition
    flip = IntMatrix.diagonal([-1, 1, 1, -1])
    assert classify(flip, K_EVEN).realizable
    e12sq = elementary_matrix(2, 1, 2, 2)
    verdict = classify(e12sq, K_EVEN)
    assert not verdict.realizable
    assert verdict.violations == (((1, 2), 2),)


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(IntMatrix([[2, 0], [0, 1]]), K_ODD)
    with pytest.raises(ValueError):
        classify(IntMatrix.identity(2), "k=5")


def test_non_unimodular_input_gets_one_text():
    # both realizability verdicts word det != +-1 alike: classify raises
    # the reason hR_member gives
    for rows in ([[2, 0], [0, 1]], [[0, 0], [0, 0]], [[1, 2, 0], [3, 4, 0], [0, 0, 5]]):
        a = IntMatrix(rows)
        for k_class in (K_HOPF, K_ODD):
            reason = hR_member(a, k_class).reason
            assert reason == f"determinant {a.det()} is not +-1"
            with pytest.raises(ValueError) as info:
                classify(a, k_class)
            assert str(info.value) == reason


def test_odd_class_matches_mod2_permutation():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.choice([2, 3, 4])
        a = random_sln(n, rng, min_letters=4, max_letters=18)
        assert classify(a, K_ODD).realizable == (mod2_class(a) is not None)
        assert classify(a, K_ODD).realizable == in_W2(a)


def test_even_class_matches_signed_permutation():
    rng = random.Random(31337)
    seen_true = 0
    for _ in range(300):
        n = rng.choice([2, 3])
        a = random_sln(n, rng, min_letters=1, max_letters=6)
        got = classify(a, K_EVEN).realizable
        assert got == is_signed_permutation(a)
        seen_true += got
    assert seen_true > 0  # the sample must actually hit the survivor set


def test_hr_member_and_classify_decide_alike():
    def same_verdicts(a):
        for k_class in (K_HOPF, K_ODD, K_EVEN):
            assert hR_member(a, k_class).member == classify(a, k_class).realizable

    # every matrix with n <= 2 and entries in -2..2, or n = 3 and entries in -1..1
    signed = 0
    for n, span in ((1, 2), (2, 2), (3, 1)):
        for entries in product(range(-span, span + 1), repeat=n * n):
            a = IntMatrix([entries[r * n : (r + 1) * n] for r in range(n)])
            even = hR_member(a, K_EVEN).member
            assert even == is_signed_permutation(a)
            signed += even
            if n < 3 and a.det() in (1, -1):
                same_verdicts(a)
    assert signed == 2 + 8 + 48
    rng = random.Random(4242)
    flip = {n: IntMatrix.diagonal([-1] + [1] * (n - 1)) for n in (3, 4)}
    for _ in range(150):
        n = rng.choice((3, 4))
        a = random_sln(n, rng, min_letters=1, max_letters=8)
        same_verdicts(flip[n] * a if rng.random() < 0.5 else a)


def test_realizable_sets_are_closed_under_product():
    rng = random.Random(555)
    for k_class in (K_ODD, K_EVEN):
        for _ in range(60):
            n = rng.choice([2, 3])
            a = random_sln(n, rng, min_letters=2, max_letters=10)
            b = random_sln(n, rng, min_letters=2, max_letters=10)
            if classify(a, k_class).realizable and classify(b, k_class).realizable:
                assert classify(a * b, k_class).realizable


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cross_terms_always_vanish_mod_nothing(seed):
    # cross coefficients equal the row-pair minors for any integer matrix,
    # unimodular or not
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    a = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    for j, l in combinations(range(1, n + 1), 2):
        report = whitehead_coeffs(a, j, l)
        for (s, t), value in report.cross.items():
            assert value == brute_minor(a, j, l, s, t)
