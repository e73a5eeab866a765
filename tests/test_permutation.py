import copy
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spheremat.intmat import IntMatrix
from spheremat.permutation import Permutation


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(lambda p: Permutation(tuple(p)))


def test_identity_and_call():
    p = Permutation.identity(4)
    assert [p(i) for i in range(1, 5)] == [1, 2, 3, 4]
    assert p.is_even


def test_transposition_sign():
    t = Permutation.transposition(3, 1, 2)
    assert t(1) == 2 and t(2) == 1 and t(3) == 3
    assert t.sign() == -1
    assert not t.is_even


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_points_must_be_integers():
    assert Permutation((2.0, True)).images == (2, 1)
    assert Permutation.from_cycles(3, [(Fraction(4, 2), 3.0)]) == Permutation((1, 3, 2))
    for bad in (1.5, Fraction(3, 2), "2"):
        shown = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"^permutation image {shown} is not an integer$"):
            Permutation((bad, 2))
        with pytest.raises(ValueError, match=f"^cycle point {shown} is not an integer$"):
            Permutation.from_cycles(3, [(1, 3), (bad, 2)])


def test_assignment_is_refused():
    # parsed P letters share their Permutation, so none may change it
    p = Permutation((2, 3, 1))
    with pytest.raises(AttributeError, match="^cannot assign to field 'images'$"):
        p.images = (1, 2, 3)
    with pytest.raises(AttributeError, match="^cannot delete field 'images'$"):
        del p.images
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        p.extra = 1
    assert p.images == (2, 3, 1)
    for copied in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and copied.images == (2, 3, 1)


def test_compose_convention():
    # (sigma * pi)(i) = sigma(pi(i)): pi acts first
    sigma = Permutation((2, 3, 1))
    pi = Permutation.transposition(3, 1, 2)
    composed = sigma * pi
    assert composed(1) == sigma(pi(1)) == 3


def test_from_cycles():
    c = Permutation.from_cycles(4, [(1, 2, 3)])
    assert tuple(c(i) for i in range(1, 5)) == (2, 3, 1, 4)
    assert c.is_even
    assert Permutation.from_cycles(3, []) == Permutation.identity(3)


def test_cycles_roundtrip():
    p = Permutation((3, 1, 2, 5, 4))
    assert Permutation.from_cycles(5, p.cycles()) == p


def test_matrix_row_convention():
    # row i carries the 1 in column sigma(i)
    sigma = Permutation((2, 3, 1))
    assert sigma.matrix() == IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_matrix_of_product_reverses_order():
    # with P[i][sigma(i)] = 1, matrices compose contravariantly:
    # P_sigma * P_pi = P_(pi o sigma)
    for images_a in itertools.permutations((1, 2, 3)):
        for images_b in itertools.permutations((1, 2, 3)):
            a = Permutation(images_a)
            b = Permutation(images_b)
            assert a.matrix() * b.matrix() == (b * a).matrix()


def test_matrix_det_is_sign():
    for images in itertools.permutations((1, 2, 3, 4)):
        p = Permutation(images)
        assert p.matrix().det() == p.sign()


@given(perm_strategy(5))
def test_inverse_roundtrip(p):
    assert p * p.inverse() == Permutation.identity(5)
    assert p.inverse() * p == Permutation.identity(5)


@given(perm_strategy(5), perm_strategy(5))
def test_sign_multiplicative(a, b):
    assert (a * b).sign() == a.sign() * b.sign()
