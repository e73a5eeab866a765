import itertools
import math
import random
import time
from collections import deque

import pytest

from spheremat import finitegrp
from spheremat.finitegrp import (
    GroupSizeLimitError,
    conjugacy_classes,
    coset_representatives,
    elementary_generators_mod,
    enumerate_group,
    find_normality_violation,
    index_check,
    is_normal,
    normal_subgroups,
    power_subgroup,
    representative_matrix,
    sl_order,
)
from spheremat.intmat import IntMatrix, ResidueMatrix, tau_matrix
from spheremat.subgroups import in_W2


def sl(n, m):
    return enumerate_group(elementary_generators_mod(n, m), n, m)


def brute_is_normal(subgroup, group):
    """Oracle: conjugate every subgroup element by every group element."""
    pairs = [(g, g.inverse()) for g in group.elements]
    return all(
        g * h * ginv in subgroup.elements
        for g, ginv in pairs
        for h in subgroup.elements
    )


def brute_normal_lattice(group):
    """Oracle: all normal subgroups as joins of single-element normal closures."""
    pairs = [(g, g.inverse()) for g in group.elements]
    ident = ResidueMatrix.identity(group.n, group.m)

    def close(seeds):
        elems = set(seeds) | {ident}
        frontier = deque(elems)
        while frontier:
            x = frontier.popleft()
            new = [x.inverse()]
            new.extend(g * x * ginv for g, ginv in pairs)
            new.extend(x * y for y in list(elems))
            new.extend(y * x for y in list(elems))
            for y in new:
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return frozenset(elems)

    closures = {close([h]) for h in group.elements}
    lattice = set(closures)
    frontier = deque(lattice)
    while frontier:
        a = frontier.popleft()
        for b in list(lattice):
            joined = close(a | b)
            if joined not in lattice:
                lattice.add(joined)
                frontier.append(joined)
    return lattice


# ---------------------------------------------------------------------------
# enumeration and orders
# ---------------------------------------------------------------------------

def test_order_formula_matches_enumeration():
    for n, m in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2)):
        assert sl(n, m).order == sl_order(n, m)


def test_known_orders():
    assert sl_order(2, 2) == 6
    assert sl_order(2, 3) == 24
    assert sl_order(2, 4) == 48
    assert sl_order(3, 2) == 168


def test_trivial_generators():
    ident = ResidueMatrix.identity(2, 5)
    assert enumerate_group([ident], 2, 5).order == 1
    assert enumerate_group([], 2, 5).order == 1


def test_enumerate_rejects_bad_generators():
    with pytest.raises(ValueError):
        enumerate_group([ResidueMatrix([[2, 0], [0, 1]], 4)], 2, 4)
    with pytest.raises(ValueError):
        enumerate_group([ResidueMatrix.identity(3, 4)], 2, 4)


def test_enumerate_size_guard():
    with pytest.raises(GroupSizeLimitError):
        enumerate_group(elementary_generators_mod(2, 5), 2, 5, max_size=10)


def test_contains_and_sorted_elements():
    g = sl(2, 3)
    ident = ResidueMatrix.identity(2, 3)
    assert ident in g
    assert ResidueMatrix([[1, 1], [0, 1]], 3) in g
    elems = g.sorted_elements()
    assert len(elems) == g.order
    assert elems == sorted(elems, key=lambda r: r.rows)


# ---------------------------------------------------------------------------
# power subgroups
# ---------------------------------------------------------------------------

def test_power_subgroup_identity_exponent():
    g = sl(2, 3)
    sub = power_subgroup(g, elementary_generators_mod(2, 3), 1)
    assert sub.elements == g.elements


def test_power_subgroup_divides_group_order():
    g = sl(2, 4)
    for t in (2, 3, 4):
        sub = power_subgroup(g, elementary_generators_mod(2, 4), t)
        assert g.order % sub.order == 0
        assert sub.elements <= g.elements
        assert is_normal(sub, g)
        assert brute_is_normal(sub, g)


def test_power_subgroup_rejects_bad_input():
    g = sl(2, 4)
    with pytest.raises(ValueError):
        power_subgroup(g, elementary_generators_mod(2, 4), 0)
    kernel = enumerate_group([ResidueMatrix([[1, 2], [0, 1]], 4)], 2, 4)
    with pytest.raises(ValueError):
        power_subgroup(kernel, elementary_generators_mod(2, 4), 2)


def test_reduction_kernel_is_normal():
    g = sl(2, 4)
    ident = IntMatrix.identity(2)
    kernel_elems = sorted(
        (x for x in g.elements if all(
            (v - w) % 2 == 0
            for row_x, row_i in zip(x.rows, ident.rows)
            for v, w in zip(row_x, row_i)
        )),
        key=lambda r: r.rows,
    )
    kernel = enumerate_group(kernel_elems, 2, 4)
    assert kernel.order == 8  # index 6 = |SL2(Z/2)|
    assert is_normal(kernel, g)
    assert brute_is_normal(kernel, g)


# ---------------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------------

def test_whole_group_and_trivial_subgroup_are_normal():
    g = sl(2, 3)
    triv = enumerate_group([], 2, 3)
    assert is_normal(triv, g)
    assert is_normal(g, g)


def test_cyclic_elementary_subgroup_is_not_normal():
    g = sl(2, 3)
    sub = enumerate_group([ResidueMatrix([[1, 1], [0, 1]], 3)], 2, 3)
    assert sub.order == 3
    witness = find_normality_violation(sub, g)
    assert witness is not None
    conj, elem = witness
    assert conj * elem * conj.inverse() not in sub.elements
    assert not brute_is_normal(sub, g)


def test_normality_agrees_with_brute_oracle():
    g = sl(2, 4)
    rng = random.Random(91)
    elems = g.sorted_elements()
    for _ in range(12):
        gens = [elems[rng.randrange(len(elems))] for _ in range(rng.randint(1, 2))]
        sub = enumerate_group(gens, 2, 4)
        assert is_normal(sub, g) == brute_is_normal(sub, g)


def test_normality_rejects_non_subgroup():
    g24 = sl(2, 3)
    with pytest.raises(ValueError):
        find_normality_violation(sl(2, 2), g24)


# ---------------------------------------------------------------------------
# conjugacy classes and normal subgroups
# ---------------------------------------------------------------------------

def test_conjugacy_classes_partition():
    g = sl(2, 3)
    classes = conjugacy_classes(g)
    assert sum(len(c) for c in classes) == g.order
    seen = set()
    for c in classes:
        assert not (c & seen)
        seen |= c
        assert g.order % len(c) == 0  # orbit sizes divide the group order
    ident = ResidueMatrix.identity(2, 3)
    assert frozenset([ident]) in classes


def test_normal_subgroup_orders_small_special_linear():
    g = sl(2, 3)
    subs = normal_subgroups(g)
    assert [s.order for s in subs] == [1, 2, 8, 24]
    for s in subs:
        assert is_normal(s, g)
        assert brute_is_normal(s, g)


def test_normal_subgroups_match_brute_lattice():
    for m in (3, 4):
        g = sl(2, m)
        got = {s.elements for s in normal_subgroups(g)}
        assert got == brute_normal_lattice(g)


def test_normal_subgroups_class_guard():
    g = sl(2, 3)
    with pytest.raises(GroupSizeLimitError):
        normal_subgroups(g, max_classes=3)


# ---------------------------------------------------------------------------
# differential tests against a naive BFS over dense products
# ---------------------------------------------------------------------------

def ident_rows(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def dense_mul(a, b, m):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n))
        for i in range(n)
    )


def naive_closure(gens, n, m, cap):
    """Rows of <gens>: in a finite group, closing under products makes inverses too."""
    elems = {ident_rows(n)}
    frontier = deque(elems)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = dense_mul(x, g.rows, m)
            if y not in elems:
                elems.add(y)
                if len(elems) > cap:
                    return None
                frontier.append(y)
    return elems


def naive_inverse(g, m):
    """g^(k-1) for the order k of g."""
    ident = ident_rows(len(g))
    power = ident
    while (following := dense_mul(power, g, m)) != ident:
        power = following
    return power


def naive_classes(elems, m):
    inverse = {g: naive_inverse(g, m) for g in elems}
    return {frozenset(dense_mul(dense_mul(g, x, m), inverse[g], m) for g in elems) for x in elems}


def naive_normal_subgroups(elems, classes, m):
    ident_class = frozenset([ident_rows(len(next(iter(elems))))])
    others = sorted(classes - {ident_class}, key=sorted)
    found = set()
    for chosen in itertools.product((False, True), repeat=len(others)):
        union = ident_class.union(*(c for c, take in zip(others, chosen) if take))
        if len(elems) % len(union) == 0 and all(
            dense_mul(x, y, m) in union for x in union for y in union
        ):
            found.add(union)
    return found


def random_unit_matrix(rng, n, m, det_one=False):
    while True:
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        x = ResidueMatrix(rows, m)
        d = x.det()
        if math.gcd(d, m) == 1 and (d == 1 or not det_one):
            return x


def generator_sets(rng, n, m):
    """Small generator lists: unit determinants other than 1, repeats, the identity."""
    ident = ResidueMatrix.identity(n, m)
    units = [d for d in range(1, m) if math.gcd(d, m) == 1]
    diag = ResidueMatrix(
        [[rng.choice(units) if r == c else 0 for c in range(n)] for r in range(n)], m
    )
    upper = ResidueMatrix(
        [[1 if r == c else (rng.randrange(m) if c > r else 0) for c in range(n)] for r in range(n)], m
    )
    x = random_unit_matrix(rng, n, m)
    yield [x]
    yield [x, x, ident]
    yield [diag, upper]
    yield [random_unit_matrix(rng, n, m, det_one=True), diag]
    yield [random_unit_matrix(rng, n, m), random_unit_matrix(rng, n, m)]


def test_enumeration_classes_and_normal_subgroups_match_naive_bfs():
    rng = random.Random(2718)
    cap = 600
    checked = {"elements": 0, "classes": 0, "normal": 0}
    for n in (1, 2, 3):
        for m in range(2, 13):
            for gens in generator_sets(rng, n, m):
                want = naive_closure(gens, n, m, cap)
                if want is None:
                    with pytest.raises(GroupSizeLimitError):
                        enumerate_group(gens, n, m, max_size=cap)
                    continue
                table = enumerate_group(gens, n, m, max_size=cap)
                assert {x.rows for x in table.elements} == want
                assert table.generators == tuple(gens)
                checked["elements"] += 1
                if len(want) > 120:
                    continue
                classes = naive_classes(want, m)
                got = conjugacy_classes(table)
                assert {frozenset(x.rows for x in c) for c in got} == classes
                assert [min(x.rows for x in c) for c in got] == sorted(min(c) for c in classes)
                checked["classes"] += 1
                if len(classes) > 12:
                    continue
                got = normal_subgroups(table)
                assert {frozenset(x.rows for x in s.elements) for s in got} == (
                    naive_normal_subgroups(want, classes, m)
                )
                checked["normal"] += 1
    assert checked["elements"] >= 120
    assert checked["classes"] >= 90
    assert checked["normal"] >= 40


def conjugated_elementary_generators(n, m, seed):
    """The elementary generators conjugated by a seeded h: still SL_n(Z_m)."""
    h = random_unit_matrix(random.Random(seed), n, m, det_one=True)
    h_inv = h.inverse()
    return [h * e * h_inv for e in elementary_generators_mod(n, m)]


@pytest.mark.parametrize("n, m", [(3, 4), (2, 31)])
def test_enumeration_forms_about_one_product_per_element(monkeypatch, n, m):
    calls = 0
    image = finitegrp._image

    def counted(*args):
        nonlocal calls
        calls += 1
        return image(*args)

    monkeypatch.setattr(finitegrp, "_image", counted)
    table = enumerate_group(conjugated_elementary_generators(n, m, 31), n, m)
    assert table.order == sl_order(n, m)
    assert calls < 2 * table.order


def test_large_enumerations_match_order_formula_and_naive_closure():
    for n, m in ((2, 31), (3, 4)):
        table = enumerate_group(conjugated_elementary_generators(n, m, 5), n, m)
        assert table.order == sl_order(n, m)
        assert all(x.det() == 1 for x in table.elements)  # so the set is SL_n(Z_m)
    # GL_2(Z_9): 2 generates the units mod 9
    gens = [
        ResidueMatrix([[2, 0], [0, 1]], 9),
        ResidueMatrix([[1, 1], [0, 1]], 9),
        ResidueMatrix([[1, 0], [1, 1]], 9),
        ResidueMatrix([[4, 1], [3, 7]], 9),
    ]
    want = naive_closure(gens, 2, 9, 10**4)
    assert len(want) == 9**4 * 2 * 8 // (3 * 9)
    assert {x.rows for x in enumerate_group(gens, 2, 9).elements} == want


def test_every_generator_order_gives_the_same_group():
    d = ResidueMatrix([[2, 0], [0, 1]], 5)
    u = ResidueMatrix([[1, 1], [0, 1]], 5)
    low = ResidueMatrix([[1, 0], [3, 1]], 5)
    gens = [d, u, ResidueMatrix.identity(2, 5), u * low, low]
    want = naive_closure(gens, 2, 5, 10**3)
    assert len(want) == 480  # GL_2(Z_5)
    for order in itertools.permutations(gens):
        table = enumerate_group(order, 2, 5)
        assert table.generators == order
        assert {x.rows for x in table.elements} == want


def test_power_subgroup_matches_naive_closure_of_powers():
    for n, m, t in ((2, 4, 2), (2, 5, 3), (2, 8, 2), (3, 2, 2)):
        gens = conjugated_elementary_generators(n, m, 17)
        group = enumerate_group(gens, n, m)
        powers = {x ** t for x in group.elements}
        want = naive_closure(powers, n, m, 10**4)
        assert {x.rows for x in power_subgroup(group, gens, t).elements} == want


def test_size_cap_counts_the_identity():
    for gens, n, m in (
        (elementary_generators_mod(2, 5), 2, 5),
        ([ResidueMatrix([[3]], 7)], 1, 7),
        ([ResidueMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 4)], 3, 4),
    ):
        order = enumerate_group(gens, n, m).order
        with pytest.raises(GroupSizeLimitError):
            enumerate_group(gens, n, m, max_size=order - 1)
        assert enumerate_group(gens, n, m, max_size=order).order == order
    assert enumerate_group([], 2, 5, max_size=0).order == 1


def test_small_subgroup_of_a_huge_modulus():
    """Memos grow with the rows met, not with the m^n vectors of Z_m^n."""
    m = 10**9 + 7
    tau = tau_matrix(3).reduce_mod(m)
    start = time.monotonic()
    table = enumerate_group([tau], 3, m)
    classes = conjugacy_classes(table)
    assert time.monotonic() - start < 1.0
    assert table.order == 4
    assert len(classes) == 4
    assert {x for c in classes for x in c} == table.elements


def test_sl3_z4_enumeration_budget():
    start = time.monotonic()
    table = sl(3, 4)
    elapsed = time.monotonic() - start
    assert table.order == sl_order(3, 4) == 43008
    assert elapsed < 4.0


# ---------------------------------------------------------------------------
# coset bookkeeping
# ---------------------------------------------------------------------------

def test_coset_representatives_all_dimensions():
    for n in (2, 3, 4):
        reps = coset_representatives(n)
        assert len(reps) == len(list(itertools.permutations(range(n))))
        mats = [representative_matrix(uses_tau, sigma) for uses_tau, sigma in reps]
        assert all(in_W2(m) for m in mats)
        assert len({m.reduce_mod(2) for m in mats}) == len(mats)


def test_index_check_passes():
    for n in (2, 3, 4):
        report = index_check(n)
        assert report.passed
        assert report.image_order == report.expected_order


def test_index_check_rejects_out_of_range():
    with pytest.raises(ValueError):
        index_check(5)
