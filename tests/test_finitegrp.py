import hashlib
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import given, seed, settings, strategies as st

from spheremat import finitegrp
from spheremat.finitegrp import (
    FiniteGroupTable,
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
from spheremat.words import GeneratorWord, congruence_generators


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


def test_normal_subgroups_are_frozen():
    # digest of the order and generators of every normal subgroup, in list
    # order, as the search over unions of conjugacy classes gave them;
    # SL_2(Z_6) has 21 classes and is refused by the default guard
    groups = [sl(2, m) for m in (2, 3, 4, 5, 7, 11, 13)] + [sl(3, 2)]
    gl = enumerate_group([ResidueMatrix([[2, 0], [0, 1]], 3), *elementary_generators_mod(2, 3)], 2, 3)
    assert gl.order == 48 and len(conjugacy_classes(gl)) == 8
    groups.append(gl)
    parts = [
        [(s.order, [r.rows for r in s.generators]) for s in normal_subgroups(g)]
        for g in groups
    ]
    assert [s[0] for s in parts[-1]] == [1, 2, 8, 24, 48]
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == "8767d2f055fb421e2f0b2ba89381ab2d0f4d475465b17a339ff0274861e48d40"


def test_conjugacy_classes_are_frozen():
    # digest of the ordered classes (each as its sorted rows) of small groups,
    # and of the first normality witness of seeded subgroup/group pairs
    groups = []
    for m in range(2, 14):
        groups.append(sl(2, m))
        groups.append(enumerate_group(conjugated_elementary_generators(2, m, m), 2, m))
    groups += [sl(3, 2), sl(3, 3)]
    groups.append(
        enumerate_group([ResidueMatrix([[2, 0], [0, 1]], 3), *elementary_generators_mod(2, 3)], 2, 3)
    )
    groups.append(enumerate_group([tau_matrix(3).reduce_mod(10**9 + 7)], 3, 10**9 + 7))
    classes = [[sorted(x.rows for x in c) for c in conjugacy_classes(g)] for g in groups]
    assert [len(c) for c in classes[-4:]] == [6, 12, 8, 4]

    rng = random.Random(4242)
    ambient = [
        enumerate_group(gens, n, m)
        for n, m in ((2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (3, 2))
        for gens in (
            elementary_generators_mod(n, m),
            conjugated_elementary_generators(n, m, rng.randrange(10**6)),
        )
    ]
    normal = {id(g): normal_subgroups(g) for g in ambient if g.order <= 120}
    witnesses = []
    for _ in range(100):
        group = rng.choice(ambient)
        kind = rng.randrange(3)
        if kind == 0 and id(group) in normal:
            sub = rng.choice(normal[id(group)])
        elif kind == 1:
            sub = power_subgroup(group, group.generators, rng.randint(2, 4))
        else:
            elems = group.sorted_elements()
            sub = enumerate_group(rng.sample(elems, rng.randint(1, 2)), group.n, group.m)
        pair = find_normality_violation(sub, group)
        witnesses.append(None if pair is None else (pair[0].rows, pair[1].rows))
    assert 20 <= witnesses.count(None) <= 80

    digest = hashlib.sha256(repr((classes, witnesses)).encode()).hexdigest()
    assert digest == "3fb1e73e26c8f11b93f96753f082c982d6a0d5f9629cb6c70c1272e03a2893b7"


def test_normal_subgroups_sl2_z13_budget():
    g = sl(2, 13)
    start = time.monotonic()
    subs = normal_subgroups(g)
    elapsed = time.monotonic() - start
    assert [s.order for s in subs] == [1, 2, 2184]
    assert elapsed < 1.5


@pytest.mark.parametrize(
    "m, orders",
    [
        pytest.param(8, [1, 2, 2, 2, 4, 4, 8, 8, 8, 16, 32, 64, 96, 192, 384], id="m8"),
        pytest.param(9, [1, 2, 27, 54, 216, 648], id="m9"),
    ],
)
def test_normal_subgroups_past_twenty_classes(m, orders):
    g = sl(2, m)  # 30 classes at m = 8, 25 at m = 9
    subs = normal_subgroups(g)
    assert [s.order for s in subs] == orders
    assert subs[-1].elements == g.elements
    rows = [frozenset(x.rows for x in s.elements) for s in subs]
    for s, r in zip(subs[:-1], rows):
        assert brute_is_normal(s, g)
        assert all(dense_mul(x, y, m) in r for x in r for y in r)
    # the product of two normal subgroups is normal, so it is in the list
    for a, b in itertools.combinations(rows[:-1], 2):
        assert frozenset(dense_mul(x, y, m) for x in a for y in b) in rows


def test_sl3_z4_normal_subgroups_are_the_level2_kernel(monkeypatch):
    # For n >= 3 every finite-index subgroup of SL_n(Z) contains some Gamma(m)
    # (Bass-Milnor-Serre), so the congruence claim is checked in SL_n(Z_m).
    # In SL_3(Z_4) the one proper nontrivial normal subgroup is the kernel of
    # reduction mod 2, which is the mod-4 image of the level-2 generators.
    g = sl(3, 4)
    level2 = enumerate_group(
        [GeneratorWord(3, (gen,)).matrix().reduce_mod(4) for gen in congruence_generators(3)], 3, 4
    )
    runs = 0
    dimino = finitegrp._dimino

    def counted(*args):
        nonlocal runs
        runs += 1
        return dimino(*args)

    monkeypatch.setattr(finitegrp, "_dimino", counted)
    start = time.monotonic()
    subs = normal_subgroups(g)
    elapsed = time.monotonic() - start
    assert [s.order for s in subs] == [1, 256, 43008]
    assert subs[1].elements == level2.elements
    # one run per class builds each atom <C>; containment settles every join
    assert runs == len(conjugacy_classes(g)) == 30
    # measured on a 2-vCPU VM: ~1.3 s for the classes, ~3 s for the lattice
    assert elapsed < 8.0


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


def naive_orbit_classes(table):
    """Rows of each class as an orbit under dense conjugation by the
    generators, seeds taken in sorted row order."""
    m = table.m
    pairs = [(g.rows, naive_inverse(g.rows, m)) for g in table.generators]
    remaining = {x.rows for x in table.elements}
    classes = []
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g, g_inv in pairs:
                y = dense_mul(dense_mul(g, x, m), g_inv, m)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        remaining -= orbit
        classes.append(orbit)
    return classes


@pytest.mark.parametrize(
    "n, m, u, seed",
    [(1, 2, 1, 0), (1, 3, 2, 0), (1, 5, 2, 0), (2, 5, 2, 0), (2, 9, 8, 0),
     (3, 2, 1, 0), (3, 6, 5, 6), (4, 3, 2, 0), (4, 5, 4, 0), (5, 4, 3, 1)],
)
def test_classes_where_packed_fields_are_full(n, m, u, seed):
    # n(m-1) is a power of two or one less, so a field of a conjugation sum
    # can fill all B = bit_length(n(m-1)) bits; the seeds are ones where it does
    h = random_unit_matrix(random.Random(seed), n, m)
    h_inv = h.inverse()
    cycle = ResidueMatrix([[int(c == (r + 1) % n) for c in range(n)] for r in range(n)], m)
    scale = ResidueMatrix([[(u if r == 0 else 1) * (r == c) for c in range(n)] for r in range(n)], m)
    table = enumerate_group([h * cycle * h_inv, h * scale * h_inv], n, m)
    got = conjugacy_classes(table)
    assert [{x.rows for x in c} for c in got] == naive_orbit_classes(table)
    # every element as a generator: the same classes, and the widest sums
    whole = enumerate_group(table.sorted_elements(), n, m)
    assert conjugacy_classes(whole) == got
    kernel = finitegrp._Conjugation(whole.elements, n, m)
    by = [kernel.tables(g) for g in whole.generators]
    for x in kernel.elements:
        kernel(x, by)
    low = (1 << kernel.bits) - 1
    fields = {row >> shift & low for row in kernel.reduced for shift in range(0, kernel.width, kernel.bits)}
    assert max(fields) == n * (m - 1) < 2**kernel.bits


def test_classes_of_a_table_with_every_element_as_generator():
    # `normal_subgroups` returns the whole SL_2(Z_8) with its 384 elements as generators
    g = sl(2, 8)
    whole = normal_subgroups(g)[-1]
    assert len(whole.generators) == whole.order == 384
    assert conjugacy_classes(whole) == conjugacy_classes(g)
    assert is_normal(whole, g) and is_normal(g, whole)


def conjugated_elementary_generators(n, m, seed):
    """The elementary generators conjugated by a seeded h: still SL_n(Z_m)."""
    h = random_unit_matrix(random.Random(seed), n, m, det_one=True)
    h_inv = h.inverse()
    return [h * e * h_inv for e in elementary_generators_mod(n, m)]


@pytest.mark.parametrize("n, m", [(3, 4), (2, 31)])
def test_enumeration_forms_about_one_product_per_element(monkeypatch, n, m):
    # each new element is n row-image lookups; each product is formed once
    lookups = 0
    missing = Counter()  # (memo, row) -> products formed
    get = finitegrp._RowImages.__getitem__
    form = finitegrp._RowImages.__missing__

    def counted_get(self, v):
        nonlocal lookups
        lookups += 1
        return get(self, v)

    def counted_missing(self, v):
        missing[id(self), v] += 1
        return form(self, v)

    monkeypatch.setattr(finitegrp._RowImages, "__getitem__", counted_get)
    monkeypatch.setattr(finitegrp._RowImages, "__missing__", counted_missing)
    table = enumerate_group(conjugated_elementary_generators(n, m, 31), n, m)
    assert table.order == sl_order(n, m)
    assert lookups < 2 * n * table.order
    assert missing and max(missing.values()) == 1


def test_the_size_guard_trips_before_the_coset_that_would_pass_it(monkeypatch):
    n, m, cap = 3, 4, 4608  # six cosets of the 768-element third group of the chain
    gens = conjugated_elementary_generators(n, m, 31)
    rows = [g.rows for g in gens]
    _, enlarged = finitegrp._dimino(rows, n, m, 43008)
    orders = [1] + [len(finitegrp._dimino(rows[: i + 1], n, m, 43008)[0]) for i in enlarged]
    assert orders == [1, 4, 16, 768, 43008]
    # step i probes each representative so far, up to the cap, by its i images
    probes = sum(
        i * (min(after, cap) // before)
        for i, (before, after) in enumerate(zip(orders, orders[1:]), 1)
    )
    assert probes == 180
    lookups = 0
    get = finitegrp._RowImages.__getitem__

    def counted(self, v):
        nonlocal lookups
        lookups += 1
        return get(self, v)

    monkeypatch.setattr(finitegrp._RowImages, "__getitem__", counted)
    with pytest.raises(GroupSizeLimitError, match="exceeds 4608"):
        enumerate_group(gens, n, m, max_size=cap)
    # every element but the identity formed, then no more: forming the
    # seventh coset before checking would cost n * 768 more lookups
    assert n * (cap - 1) < lookups <= n * (cap + probes) < n * (cap - 1 + 768)


@st.composite
def unit_generator_lists(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 9))
    entries = st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    units = entries.map(lambda rows: ResidueMatrix(rows, m)).filter(lambda x: math.gcd(x.det(), m) == 1)
    return draw(st.lists(units, max_size=4)), n, m


@seed(2020)
@settings(max_examples=150, deadline=None)
@given(unit_generator_lists())
def test_enumeration_matches_naive_closure(case):
    gens, n, m = case
    cap = 600
    want = naive_closure(gens, n, m, cap)
    if want is None:
        with pytest.raises(GroupSizeLimitError):
            enumerate_group(gens, n, m, max_size=cap)
    else:
        assert enumerate_group(gens, n, m, max_size=cap).elements.rows == want


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
    with pytest.raises(GroupSizeLimitError):
        enumerate_group([], 2, 5, max_size=0)
    assert enumerate_group([], 2, 5, max_size=1).order == 1


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


def test_dimino_groups_and_enlarging_positions_are_frozen():
    # digest of `_dimino`'s sorted rows and enlarging positions on seeded
    # conjugated and shuffled elementary generators, GL_2(Z_9) with the
    # identity and a repeated generator, n = 1 and no generators; each case's
    # size guard trips one below its order and passes at it
    rng = random.Random(2001)
    cases = []
    for n, ms in ((2, (4, 5, 7, 8, 9, 11, 31)), (3, (2, 3, 4))):
        for m in ms:
            gens = conjugated_elementary_generators(n, m, 2000 + m)
            rng.shuffle(gens)
            cases.append((gens, n, m))
    gl = [
        ResidueMatrix([[2, 0], [0, 1]], 9),
        ResidueMatrix([[1, 1], [0, 1]], 9),
        ResidueMatrix([[1, 0], [1, 1]], 9),
        ResidueMatrix([[4, 1], [3, 7]], 9),
    ]
    cases.append(([gl[1], ResidueMatrix.identity(2, 9), *gl, gl[2]], 2, 9))
    cases.append(([ResidueMatrix([[3]], 7), ResidueMatrix([[2]], 7)], 1, 7))
    cases.append(([], 2, 5))
    out = []
    for gens, n, m in cases:
        gen_rows = [g.rows for g in gens]
        rows, enlarged = finitegrp._dimino(gen_rows, n, m, 10**6)
        with pytest.raises(GroupSizeLimitError):
            finitegrp._dimino(gen_rows, n, m, len(rows) - 1)
        assert finitegrp._dimino(gen_rows, n, m, len(rows)) == (rows, enlarged)
        out.append((n, m, sorted(rows), enlarged))
    assert [len(o[2]) for o in out[:10]] == [sl_order(n, m) for _, n, m in cases[:10]]
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "6b4419ca166d171c0573ef65d3d6d0b6452a945c8a2fa0eac782577a6a9d481d"


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


# ---------------------------------------------------------------------------
# element sets: what a caller may do with `elements` and with classes
# ---------------------------------------------------------------------------

def test_element_sets_behave_as_frozensets_of_residue_matrices():
    g = sl(2, 3)
    whole = frozenset(ResidueMatrix(rows, 3) for rows in naive_closure(g.generators, 2, 3, 100))
    assert g.elements == whole and whole == g.elements
    assert not g.elements != whole and not whole != g.elements
    assert hash(g.elements) == hash(whole)
    assert len(g.elements) == g.order == 24
    assert FiniteGroupTable(2, 3, g.generators, whole) == g
    assert hash(FiniteGroupTable(2, 3, g.generators, whole)) == hash(g) == hash(sl(2, 3))
    assert g.elements != sl(2, 2).elements and g.elements != sl(2, 4).elements

    # membership: a foreign or mismatched object is absent, never an error
    assert ResidueMatrix([[1, 1], [0, 1]], 3) in g and ResidueMatrix([[1, 1], [0, 1]], 3) in g.elements
    for foreign in (
        IntMatrix.identity(2),
        ((1, 0), (0, 1)),
        ResidueMatrix.identity(2, 4),
        ResidueMatrix.identity(3, 3),
        ResidueMatrix([[2, 0], [0, 1]], 3),
    ):
        assert foreign not in g
        assert foreign not in g.elements

    # order relations between tables, and with plain frozensets either side
    sub = enumerate_group([ResidueMatrix([[1, 1], [0, 1]], 3)], 2, 3)
    plain = frozenset(sub.sorted_elements())
    assert sub.elements <= g.elements and sub.elements < g.elements
    assert not g.elements <= sub.elements and g.elements >= sub.elements
    assert sub.elements <= whole and plain <= g.elements and plain < g.elements
    assert sub.elements <= sub.elements and sub.elements == plain and plain == sub.elements

    # set operators give plain frozensets of the same elements
    for got, want in (
        (g.elements & sub.elements, plain),
        (sub.elements | g.elements, whole),
        (g.elements - sub.elements, whole - plain),
        (g.elements ^ plain, whole - plain),
        (plain & g.elements, plain),
    ):
        assert type(got) is frozenset and got == want

    # sorted_elements: residue matrices in row order
    elems = g.sorted_elements()
    assert elems == sorted(whole, key=lambda r: r.rows)
    assert all(type(x) is ResidueMatrix and x.m == 3 and x.n == 2 for x in elems)

    # normal subgroups, compared as sets of frozensets
    subs = normal_subgroups(g)
    want = {frozenset(s.generators) for s in subs}
    assert {s.elements for s in subs} == want and want == {s.elements for s in subs}

    # a small table's repr
    minus = enumerate_group([ResidueMatrix([[2, 0], [0, 2]], 3)], 2, 3)
    assert repr(minus) == (
        "FiniteGroupTable(n=2, m=3, generators=(ResidueMatrix([[2, 0], [0, 2]], m=3),), "
        "elements=frozenset({ResidueMatrix([[1, 0], [0, 1]], m=3), ResidueMatrix([[2, 0], [0, 2]], m=3)}))"
    )
    assert repr(enumerate_group([], 2, 3)) == (
        "FiniteGroupTable(n=2, m=3, generators=(), "
        "elements=frozenset({ResidueMatrix([[1, 0], [0, 1]], m=3)}))"
    )


def test_conjugacy_classes_compare_as_frozensets_of_residue_matrices():
    for n, m in ((2, 3), (2, 5), (3, 2)):
        g = sl(n, m)
        classes = conjugacy_classes(g)
        want = [frozenset(ResidueMatrix(rows, m) for rows in c) for c in naive_orbit_classes(g)]
        assert classes == want and want == classes
        for got, plain in zip(classes, want):
            assert hash(got) == hash(plain) and len(got) == len(plain)
            assert set(got) == plain and got <= g.elements
            assert min(plain, key=lambda r: r.rows) in got
            assert ResidueMatrix.identity(n, m + 1) not in got and () not in got
        assert frozenset([ResidueMatrix.identity(n, m)]) in classes


def test_element_set_hash_is_formed_once():
    class CountedRows(frozenset):
        iterations = 0

        def __iter__(self):
            CountedRows.iterations += 1
            return super().__iter__()

    g = sl(2, 5)
    view = finitegrp._Elements(CountedRows(g.elements.rows), 5)
    want = hash(frozenset(view))
    CountedRows.iterations = 0
    assert hash(view) == want == hash(g.elements)
    assert CountedRows.iterations == 1
    assert hash(view) == want
    assert CountedRows.iterations == 1


def test_sl3_z4_table_keeps_at_most_140_bytes_per_element():
    # A table keeps the row tuples `_dimino` formed, with rows shared between
    # elements, and builds no ResidueMatrix per element: ~113 B per element
    # kept, against ~172 B when every element was wrapped (tracemalloc).
    gens = elementary_generators_mod(3, 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = enumerate_group(gens, 3, 4)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.order == 43008
    assert kept / table.order <= 140


def test_power_subgroup_of_the_group_generators_reuses_the_table(monkeypatch):
    g = sl(2, 5)
    want = power_subgroup(g, g.generators[::-1], 2)  # another order: enumerated again
    runs = 0
    dimino = finitegrp._dimino

    def counted(*args):
        nonlocal runs
        runs += 1
        return dimino(*args)

    monkeypatch.setattr(finitegrp, "_dimino", counted)
    got = power_subgroup(g, list(g.generators), 2)
    assert runs == 1  # the powers' closure only
    assert got == want and got.order == 120
    # a cap below the group's order still refuses, as enumerating would
    with pytest.raises(GroupSizeLimitError):
        power_subgroup(g, g.generators, 2, max_size=119)


def test_a_table_built_from_a_plain_frozenset_answers_the_same_queries():
    g = sl(2, 4)
    plain = FiniteGroupTable(2, 4, g.generators, frozenset(g.elements))
    assert plain == g and plain.sorted_elements() == g.sorted_elements()
    assert ResidueMatrix([[1, 1], [0, 1]], 4) in plain and IntMatrix.identity(2) not in plain
    assert conjugacy_classes(plain) == conjugacy_classes(g)
    assert normal_subgroups(plain) == normal_subgroups(g)
    sub = power_subgroup(g, g.generators, 2)
    assert find_normality_violation(sub, plain) is None and is_normal(plain, g)


def test_power_subgroups_witnesses_and_whole_table_classes_are_frozen():
    # digest of power subgroups (generator rows, sorted element rows), of the
    # first normality witness of seeded non-normal pairs, and of the classes of
    # the whole SL_2(Z_8) as `normal_subgroups` returns it (384 generators)
    powers = []
    for n, m, ts in ((2, 31, (2,)), (3, 3, (2, 3)), (3, 4, (2, 3))):
        group = enumerate_group(conjugated_elementary_generators(n, m, 1800 + m), n, m)
        for t in ts:
            sub = power_subgroup(group, group.generators, t)
            powers.append(([x.rows for x in sub.generators], [x.rows for x in sub.sorted_elements()]))

    rng = random.Random(1801)
    sl33 = enumerate_group(conjugated_elementary_generators(3, 3, 1803), 3, 3)
    sl28 = sl(2, 8)
    whole = normal_subgroups(sl28)[-1]
    assert len(whole.generators) == 384
    pairs = []
    for _ in range(8):  # cyclic subgroups of SL_3(Z_3)
        pairs.append((enumerate_group([rng.choice(sl33.sorted_elements())], 3, 3), sl33))
    for _ in range(4):  # two-generator subgroups of SL_3(Z_3)
        pairs.append((enumerate_group(rng.sample(sl33.sorted_elements(), 2), 3, 3), sl33))
    elems = sl28.sorted_elements()
    for _ in range(6):  # subgroups of SL_2(Z_8) in both tables of it
        sub = enumerate_group([rng.choice(elems)], 2, 8)
        pairs += [(sub, whole), (sub, sl28)]
    for _ in range(3):  # normal subgroups of a subgroup: every element a generator
        part = enumerate_group(rng.sample(elems, 2), 2, 8)
        for sub in normal_subgroups(part)[1:4]:
            pairs += [(sub, whole), (sub, sl28)]
    witnesses = []
    for sub, group in pairs:
        pair = find_normality_violation(sub, group)
        witnesses.append(None if pair is None else (pair[0].rows, pair[1].rows))
    assert 0 < witnesses.count(None) < len(witnesses) // 3

    classes = [sorted(c.rows) for c in conjugacy_classes(whole)]
    digest = hashlib.sha256(repr((powers, witnesses, classes)).encode()).hexdigest()
    assert digest == "18b67ead68822b016d7cce278e88fe21c99245a3670b0c7f805973f9fd1e20d2"


# ---------------------------------------------------------------------------
# queries through the enlarging generators, and the stored classes
# ---------------------------------------------------------------------------


class CountedConjugation(finitegrp._Conjugation):
    built = 0
    tables_built = 0

    def __init__(self, *args):
        CountedConjugation.built += 1
        super().__init__(*args)

    def tables(self, g):
        CountedConjugation.tables_built += 1
        return super().tables(g)


@pytest.fixture
def counted_conjugation(monkeypatch):
    CountedConjugation.built = CountedConjugation.tables_built = 0
    monkeypatch.setattr(finitegrp, "_Conjugation", CountedConjugation)
    return CountedConjugation


def test_an_empty_table_is_refused():
    # once built without error, and each query raised "the generators
    # generate a group of order 1, not 0"
    with pytest.raises(ValueError, match="the elements lack the 2x2 identity over Z_5"):
        FiniteGroupTable(2, 5, (), frozenset())


@pytest.mark.parametrize("extra", [False, True])
def test_a_generator_outside_the_table_is_named(extra):
    cyclic = enumerate_group([ResidueMatrix([[1, 1], [0, 1]], 5)], 2, 5)
    h = ResidueMatrix([[1, 0], [1, 1]], 5)
    gens = (*cyclic.generators, h) if extra else (h,)
    table = FiniteGroupTable(2, 5, gens, cyclic.elements)
    with pytest.raises(ValueError, match=r"generator \(\(1, 0\), \(1, 1\)\) is not among"):
        conjugacy_classes(table)
    with pytest.raises(ValueError, match="is not among"):
        find_normality_violation(cyclic, table)


def test_whole_table_queries_conjugate_by_the_enlarging_generators(
    counted_conjugation, monkeypatch
):
    # 384 generators, of which 2 enlarge the group when taken in order
    whole = normal_subgroups(sl(2, 8))[-1]
    assert len(whole.generators) == 384
    counted_conjugation.tables_built = 0
    conjugacy_classes(whole)
    assert counted_conjugation.tables_built == 2
    inverses = 0
    inverse = ResidueMatrix.inverse

    def counted(self):
        nonlocal inverses
        inverses += 1
        return inverse(self)

    monkeypatch.setattr(ResidueMatrix, "inverse", counted)
    assert is_normal(whole, whole)
    assert inverses == 2


def test_power_subgroup_powers_one_representative_per_class(monkeypatch):
    g = sl(3, 4)  # 30 classes
    powers = 0
    power = ResidueMatrix.__pow__

    def counted(self, t):
        nonlocal powers
        powers += 1
        return power(self, t)

    monkeypatch.setattr(ResidueMatrix, "__pow__", counted)
    sub = power_subgroup(g, g.generators, 3)
    assert powers <= 30
    assert sub.order == 43008 and len(sub.generators) == 28672  # the cubes


def test_classes_of_the_whole_sl3_z3_from_normal_subgroups_budget():
    # 5616 generators; 56.6 s when every generator was conjugated by (2-vCPU VM)
    whole = normal_subgroups(sl(3, 3))[-1]
    assert len(whole.generators) == 5616
    start = time.monotonic()
    classes = conjugacy_classes(whole)
    elapsed = time.monotonic() - start
    assert len(classes) == 12
    assert elapsed < 5.0


def test_classes_are_stored_on_the_table(counted_conjugation):
    g = sl(2, 7)
    first = conjugacy_classes(g)
    assert counted_conjugation.built == 1
    second = conjugacy_classes(g)
    assert counted_conjugation.built == 1
    assert second == first and second is not first
    second.clear()
    assert conjugacy_classes(g) == first
    # normal_subgroups reads the stored classes
    normal_subgroups(g)
    assert counted_conjugation.built == 1


def test_the_same_view_with_other_generators_is_recomputed(counted_conjugation):
    g = sl(2, 5)
    want = conjugacy_classes(g)
    # another table over the same elements derives its own classes
    reversed_gens = FiniteGroupTable(2, 5, g.generators[::-1], g.elements)
    assert conjugacy_classes(reversed_gens) == want
    assert counted_conjugation.built == 2
    # and g keeps its own
    assert conjugacy_classes(g) == want and counted_conjugation.built == 2
    # a table over a plain set builds its classes once, then reads them
    plain = FiniteGroupTable(2, 5, g.generators, frozenset(g.elements))
    assert conjugacy_classes(plain) == conjugacy_classes(plain) == want
    assert counted_conjugation.built == 3
    # generators of a cyclic subgroup only: refused, not its orbits
    cyclic = FiniteGroupTable(2, 5, g.generators[:1], g.elements)
    with pytest.raises(ValueError, match="order 5, not 120"):
        conjugacy_classes(cyclic)


def test_a_normal_subgroups_table_finds_its_enlarging_generators_once(monkeypatch):
    whole = normal_subgroups(sl(2, 8))[-1]
    runs = 0
    dimino = finitegrp._dimino

    def counted(*args):
        nonlocal runs
        runs += 1
        return dimino(*args)

    monkeypatch.setattr(finitegrp, "_dimino", counted)
    conjugacy_classes(whole)
    assert runs == 1
    assert is_normal(whole, whole) and find_normality_violation(whole, whole) is None
    assert runs == 1


def test_sl3_z4_stored_classes_keep_at_most_80_bytes_per_element():
    # ~59.5 B per element kept (tracemalloc); the call peaks at ~136 B per element
    g = sl(3, 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classes = conjugacy_classes(g)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(classes) == 30
    assert kept / g.order <= 80


# ---------------------------------------------------------------------------
# tables a caller builds
# ---------------------------------------------------------------------------


def test_caller_built_tables_are_frozen():
    # digest of the classes, the normal subgroup orders and seeded normality
    # witnesses of tables built outside `enumerate_group`: over a plain
    # frozenset, over a library table's elements with its generators reversed
    # or shuffled, and the tables `normal_subgroups` returns
    rng = random.Random(1901)
    tables = []
    for n, m in ((2, 4), (3, 2)):
        g = sl(n, m)
        shuffled = list(g.generators)
        rng.shuffle(shuffled)
        tables += [
            FiniteGroupTable(n, m, g.generators, frozenset(g.elements)),
            FiniteGroupTable(n, m, g.generators[::-1], g.elements),
            FiniteGroupTable(n, m, tuple(shuffled), g.elements),
            *normal_subgroups(g)[1:],
        ]
    out = []
    for table in tables:
        classes = [sorted(c.rows) for c in conjugacy_classes(table)]
        orders = [s.order for s in normal_subgroups(table)]
        elems = table.sorted_elements()
        witnesses = []
        for _ in range(4):
            sub = enumerate_group([rng.choice(elems)], table.n, table.m)
            pair = find_normality_violation(sub, table)
            witnesses.append(None if pair is None else (pair[0].rows, pair[1].rows))
        out.append((table.n, table.m, classes, orders, witnesses))
    assert len(out) == 13
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "7fbfef5c7f61862ad1a38623b3166eff336fed75bd6452a763dc07e3b962c118"


def test_generators_of_a_proper_subgroup_are_refused():
    # once answered with the orbits of <[[1, 1], [0, 1]]>: 12 "classes" for 7,
    # no normality witness, and normal subgroup orders [1, 2, 3, 6, 8, 24]
    g = sl(2, 3)
    part = FiniteGroupTable(2, 3, g.generators[:1], g.elements)
    shear = enumerate_group([ResidueMatrix([[1, 1], [0, 1]], 3)], 2, 3)
    assert find_normality_violation(shear, g) is not None
    queries = (
        conjugacy_classes,
        normal_subgroups,
        lambda table: find_normality_violation(shear, table),
        lambda table: find_normality_violation(table, g),
        lambda table: power_subgroup(table, table.generators, 2),
    )
    for query in queries:
        with pytest.raises(ValueError, match=r"generate a group of order 3, not 24"):
            query(part)


def test_a_table_refuses_elements_of_another_size_or_modulus():
    g = sl(2, 3)
    for stray in (
        ResidueMatrix([[1, 1], [0, 1]], 4),
        ResidueMatrix.identity(3, 3),
        IntMatrix.identity(2),
        ((1, 0), (0, 1)),
    ):
        with pytest.raises(ValueError, match="is not a 2x2 matrix over Z_3"):
            FiniteGroupTable(2, 3, g.generators, frozenset([*g.elements, stray]))
    with pytest.raises(ValueError, match="elements over Z_3, not Z_4"):
        FiniteGroupTable(2, 4, (), g.elements)


def test_a_table_refuses_generators_and_views_of_another_size_or_modulus():
    # once built without error: the first query raised `GroupSizeLimitError:
    # group exceeds 24 elements` on the 3x3 table, and failed on the stray
    g = sl(2, 3)
    with pytest.raises(ValueError, match="elements of size 2, not 3"):
        FiniteGroupTable(3, 3, g.generators, g.elements)
    for stray in (
        ResidueMatrix([[1, 1], [0, 1]], 5),
        ResidueMatrix.identity(3, 3),
        IntMatrix.identity(2),
        ((1, 0), (0, 1)),
    ):
        for elements in (g.elements, frozenset(g.elements)):
            with pytest.raises(ValueError, match="is not a 2x2 matrix over Z_3"):
                FiniteGroupTable(2, 3, (*g.generators, stray), elements)


def test_enumeration_refuses_a_generator_that_is_not_a_residue_matrix():
    # once a bare AttributeError: 'IntMatrix' object has no attribute 'm'
    for stray in (IntMatrix([[1, 1], [0, 1]]), ((1, 1), (0, 1))):
        with pytest.raises(ValueError, match="is not a ResidueMatrix"):
            enumerate_group([ResidueMatrix.identity(2, 5), stray], 2, 5)
