"""Acceptance suite: one test per headline criterion, with pinned budgets.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a `criterion N: PASS` line visible with -s.
Budgets are wall-clock upper bounds asserted inside the tests themselves.
"""

import itertools
import math
import random
import time

import numpy as np

from spheremat.finitegrp import (
    elementary_generators_mod,
    enumerate_group,
    is_normal,
    normal_subgroups,
    power_subgroup,
    sl_order,
)
from spheremat.intmat import IntMatrix, hyperbolic_check, tau_matrix
from spheremat.permutation import Permutation
from spheremat.spheres import (
    induced_matrix_on_torus,
    p_a_torus_map,
    psi_map,
    degree_estimate,
    quaternion,
    quaternion_collision_witness,
)
from spheremat.subgroups import (
    classify,
    coset_certificate,
    coset_representatives,
    count_hR_even,
    in_W2,
    representative_matrix,
)
from spheremat.words import (
    GeneratorWord,
    congruence_generators,
    decompose_gamma2,
    decompose_gamma_n,
    random_congruence_word,
    random_sln,
    rewrite_table_audit,
)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


def test_criterion_1_coset_index():
    start = time.monotonic()
    for n in (2, 3, 4):
        # the mod-2 image of the even-products group, from tau and the 3-cycles
        gen_images = [tau_matrix(n).reduce_mod(2)] + [
            Permutation.from_cycles(n, [(s, s + 1, s + 2)]).matrix().reduce_mod(2)
            for s in range(1, n - 1)
        ]
        image = enumerate_group(gen_images, n, 2)
        assert image.order == math.factorial(n)
        reps = coset_representatives(n)
        mats = [representative_matrix(uses_tau, sigma) for uses_tau, sigma in reps]
        assert len(mats) == math.factorial(n)
        assert all(in_W2(mat) for mat in mats)
        images = {mat.reduce_mod(2) for mat in mats}
        assert len(images) == len(mats) and images == image.elements
        # rep * gamma, gamma in the level-2 congruence subgroup, is certified
        # in that rep's own coset
        rng = random.Random(2024)
        for _ in range(25):
            rep = reps[rng.randrange(len(reps))]
            gamma = random_congruence_word(n, rng, max_letters=12).matrix()
            cert = coset_certificate(representative_matrix(*rep) * gamma)
            assert (cert.uses_tau, cert.sigma) == rep
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"index n! and distinct coset images for n=2,3,4 in {elapsed:.2f}s")


def test_criterion_2_rewrite_tables():
    start = time.monotonic()
    for n in (3, 4, 5):
        reports = rewrite_table_audit(n)
        assert len(reports) == 16
        unexplained = [r for r in reports if r.corrected]
        assert unexplained == []
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(2, f"16 case families exact for n=3,4,5, zero corrections, {elapsed:.2f}s")


def test_criterion_3_decomposition_roundtrips():
    start = time.monotonic()
    rng = random.Random(42)
    for _ in range(1000):
        a = random_congruence_word(2, rng, max_letters=30).matrix()
        word = decompose_gamma2(a)
        assert word.matrix() == a
    for i in range(500):
        n = 3 + i % 3
        g = random_congruence_word(n, rng, max_letters=12).matrix()
        u = random_sln(n, rng, min_letters=5, max_letters=12)
        target = u * g * u.inverse_unimodular()
        word = decompose_gamma_n(target)
        assert word.matrix() == target
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"1000 planar + 500 conjugate roundtrips exact in {elapsed:.2f}s")


def test_criterion_4_quaternion_witness():
    start = time.monotonic()
    w = quaternion_collision_witness()
    i = quaternion(0, 1, 0, 0)
    for image in w.first_image + w.second_image:
        assert image.allclose(i, tol=1e-12)
    assert w.max_error < 1e-12
    assert w.input_separation > 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(4, f"both pairs land on (i,i), error {w.max_error:.2e}")


def test_criterion_5_degree_law():
    start = time.monotonic()
    estimates = {}
    for k in (1, 2, 3, 4):
        base = np.zeros(k + 1)
        base[0] = 1.0
        est = degree_estimate(psi_map(base), k, sample_count=100_000, seed=0)
        estimates[k] = est
        want = 2.0 if k % 2 == 1 else 0.0
        assert abs(est - want) < 0.1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    summary = ", ".join(f"k={k}: {v:+.3f}" for k, v in estimates.items())
    _report(5, f"{summary} in {elapsed:.2f}s")


def test_criterion_6_induced_matrix_recovery():
    start = time.monotonic()
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert induced_matrix_on_torus(p_a_torus_map(a), n) == a
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(6, f"100 random matrices recovered exactly in {elapsed:.2f}s")


def _is_mod2_permutation(a: IntMatrix) -> bool:
    rows = [[x % 2 for x in row] for row in a.rows]
    return all(sum(r) == 1 for r in rows) and all(
        sum(col) == 1 for col in zip(*rows)
    )


def test_criterion_7_realizability_trichotomy():
    rng = random.Random(11)
    for _ in range(10_000):
        n = rng.choice([2, 3, 4])
        a = random_sln(n, rng, min_letters=3, max_letters=10)
        assert classify(a, "odd_generic").realizable == _is_mod2_permutation(a)

    signed = set()
    for images in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rows = [[0, 0, 0] for _ in range(3)]
            for r, (c, s) in enumerate(zip(images, signs)):
                rows[r][c] = s
            m = IntMatrix(rows)
            assert classify(m, "even").realizable
            signed.add(m)
    assert len(signed) == 48
    assert count_hR_even(3) == 48

    # exhaustive converse over all 3x3 matrices with entries in {-1,0,1}
    realizable = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        m = IntMatrix(rows)
        if m.det() in (1, -1) and classify(m, "even").realizable:
            realizable += 1
    assert realizable == 48
    _report(7, "10^4 matrices agree with the mod-2 test; even set has 48 elements")


def test_criterion_8_power_subgroups_normal():
    start = time.monotonic()
    checked = 0
    for m in (3, 4):
        group = enumerate_group(elementary_generators_mod(2, m), 2, m)
        for sub in normal_subgroups(group):
            for t in (2, 3):
                powered = power_subgroup(group, sub.generators, t)
                assert is_normal(powered, group)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(8, f"{checked} power subgroups all normal in {elapsed:.2f}s")


def test_criterion_9_hyperbolicity():
    for s in range(2, 11):
        assert hyperbolic_check(IntMatrix([[1, s], [s, s * s + 1]]))
    assert not hyperbolic_check(tau_matrix(2))
    _report(9, "trace family hyperbolic for s=2..10, rotation block is not")


def test_criterion_10_level2_image_is_congruence_kernel():
    # the E(i,j)^2 and J(k) generate, modulo m, the whole kernel of
    # SL_n(Z_m) -> SL_n(Z_2): the level-2 containment checked modulo Gamma(m)
    start = time.monotonic()
    images = {}
    for n, m in ((3, 4), (4, 4), (3, 6)):
        gens = [GeneratorWord(n, (gen,)).matrix().reduce_mod(m) for gen in congruence_generators(n)]
        images[n, m] = image = enumerate_group(gens, n, m)
        assert image.order == sl_order(n, m) // sl_order(n, 2)
        assert all(
            (x - (r == c)) % 2 == 0
            for g in image.elements
            for r, row in enumerate(g.rows)
            for c, x in enumerate(row)
        )
    elapsed = time.monotonic() - start
    orders = {key: image.order for key, image in images.items()}
    assert orders == {(3, 4): 256, (4, 4): 32768, (3, 6): 5616}
    assert elapsed < 5.0
    assert is_normal(images[3, 4], enumerate_group(elementary_generators_mod(3, 4), 3, 4))
    _report(10, f"level-2 images of orders {sorted(orders.values())} in {elapsed:.2f}s")
