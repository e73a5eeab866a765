import hashlib
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from spheremat import spheres
from spheremat.intmat import IntMatrix, _square_and_multiply, elementary_matrix
from spheremat.spheres import (
    AlgebraElement,
    CollisionWitness,
    PhaseAmbiguityError,
    antipodal_map,
    check_unit_point,
    complex_unit,
    compose_maps,
    degree_estimate,
    degree_estimate_details,
    induced_matrix_on_torus,
    octonion_unit,
    p_a_eval,
    p_a_torus_map,
    p_ij_eval,
    p_word_torus_map,
    psi_eval,
    psi_map,
    quaternion,
    quaternion_collision_witness,
    reflection_shear_torus_map,
    slot_conjugation_torus_map,
    tangent_frame,
    uniform_sphere_samples,
)
from spheremat.words import E, GeneratorWord, J, decompose_sln, random_sln, symbol_matrix

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# ---------------------------------------------------------------------------
# oracles: independent multiplication tables
# ---------------------------------------------------------------------------

def hamilton(a, b):
    """Textbook Hamilton product on (w, x, y, z) tuples."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def octo_mul(a, b):
    """Doubled Hamilton product: (p,q)(r,s) = (pr - conj(s)q, sp + q conj(r))."""
    p, q = tuple(a[:4]), tuple(a[4:])
    r, s = tuple(b[:4]), tuple(b[4:])
    first = tuple(
        u - v for u, v in zip(hamilton(p, r), hamilton(quat_conj(s), q))
    )
    second = tuple(
        u + v for u, v in zip(hamilton(s, p), hamilton(q, quat_conj(r)))
    )
    return first + second


def rand_element(rng, dim, unit=False):
    v = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
    if unit:
        v = v / np.linalg.norm(v)
    return AlgebraElement(v)


# ---------------------------------------------------------------------------
# the three algebras
# ---------------------------------------------------------------------------

def test_complex_multiplication_matches_builtin():
    rng = random.Random(1)
    for _ in range(50):
        a, b = rand_element(rng, 2), rand_element(rng, 2)
        got = a * b
        want = complex(*a.components) * complex(*b.components)
        assert abs(got.components[0] - want.real) < 1e-12
        assert abs(got.components[1] - want.imag) < 1e-12


def test_quaternion_multiplication_matches_hamilton():
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_element(rng, 4), rand_element(rng, 4)
        want = hamilton(tuple(a.components), tuple(b.components))
        assert np.allclose((a * b).components, want, atol=1e-12)
    i, j, k = quaternion(0, 1, 0, 0), quaternion(0, 0, 1, 0), quaternion(0, 0, 0, 1)
    assert (i * j).allclose(k)
    assert (j * i).allclose(-k)
    assert (i * i).allclose(-quaternion(1, 0, 0, 0))


def test_octonion_multiplication_matches_doubling_oracle():
    rng = random.Random(3)
    for _ in range(50):
        a, b = rand_element(rng, 8), rand_element(rng, 8)
        want = octo_mul(tuple(a.components), tuple(b.components))
        assert np.allclose((a * b).components, want, atol=1e-10)


def test_octonion_basis_products():
    e = [octonion_unit(i) for i in range(8)]
    assert (e[1] * e[2]).allclose(e[3])
    assert (e[1] * e[4]).allclose(e[5])
    assert (e[2] * e[4]).allclose(e[6])
    assert (e[3] * e[4]).allclose(e[7])


def test_octonions_are_not_associative():
    e = [octonion_unit(i) for i in range(8)]
    left = (e[1] * e[2]) * e[4]
    right = e[1] * (e[2] * e[4])
    assert left.allclose(e[7])
    assert right.allclose(-e[7])
    assert not left.allclose(right)


def test_octonions_are_alternative():
    rng = random.Random(4)
    for _ in range(30):
        x, y = rand_element(rng, 8, unit=True), rand_element(rng, 8, unit=True)
        assert ((x * x) * y).allclose(x * (x * y), tol=1e-10)
        assert ((x * y) * y).allclose(x * (y * y), tol=1e-10)


def test_norm_is_multiplicative():
    rng = random.Random(5)
    for dim in (2, 4, 8):
        for _ in range(30):
            a, b = rand_element(rng, dim), rand_element(rng, dim)
            assert math.isclose(
                (a * b).norm(), a.norm() * b.norm(), rel_tol=1e-10
            )


def test_conjugate_inverse_and_powers():
    rng = random.Random(6)
    for dim in (2, 4, 8):
        x = rand_element(rng, dim, unit=True)
        one = AlgebraElement.one(dim)
        assert (x * x.conjugate()).allclose(one, tol=1e-10)
        assert (x * x.inverse()).allclose(one, tol=1e-10)
        assert (x ** 0).allclose(one)
        assert (x ** 3).allclose(x * x * x, tol=1e-10)
        assert (x ** -2).allclose(x.inverse() * x.inverse(), tol=1e-10)


def test_algebra_element_validation():
    with pytest.raises(ValueError):
        AlgebraElement([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        complex_unit(1, 0) * quaternion(1, 0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        AlgebraElement([0.0, 0.0]).inverse()


# ---------------------------------------------------------------------------
# power products
# ---------------------------------------------------------------------------

def test_p_a_identity_matrix():
    xs = (complex_unit(0, 1), complex_unit(1, 0))
    assert all(
        got.allclose(x) for got, x in zip(p_a_eval(IntMatrix.identity(2), xs), xs)
    )


def test_p_a_against_oracle_products():
    # row (1, -1) on quaternions (-i, -1): (-i) * (-1)^-1 = i
    a = IntMatrix([[1, -1], [-1, 2]])
    xs = (quaternion(0, -1, 0, 0), quaternion(-1, 0, 0, 0))
    out = p_a_eval(a, xs)
    want0 = hamilton(
        tuple(xs[0].components), quat_conj(tuple(xs[1].components))
    )  # (-1)^-1 = conj since |x|=1
    assert np.allclose(out[0].components, want0, atol=1e-12)
    i = quaternion(0, 1, 0, 0)
    assert out[0].allclose(i) and out[1].allclose(i)


def test_p_a_rejections():
    xs2 = (complex_unit(1, 0), complex_unit(0, 1))
    with pytest.raises(ValueError):
        p_a_eval(IntMatrix.identity(3), xs2)
    with pytest.raises(ValueError):
        p_a_eval(IntMatrix.identity(2), (octonion_unit(1), octonion_unit(2)))
    with pytest.raises(ValueError):
        p_a_eval(IntMatrix.identity(2), (complex_unit(1, 0), quaternion(1, 0, 0, 0)))
    with pytest.raises(ValueError):
        p_a_eval(IntMatrix.identity(2), (complex_unit(2, 0), complex_unit(1, 0)))


def test_p_ij_complex_and_inverse_roundtrip():
    u, v = complex_unit(0, 1), complex_unit(math.sqrt(0.5), math.sqrt(0.5))
    out = p_ij_eval(1, 2, (u, v))
    assert out[0].allclose(u * v) and out[1].allclose(v)
    back = p_ij_eval(1, 2, out, inverse=True)
    assert back[0].allclose(u) and back[1].allclose(v)


def test_p_ij_octonion_roundtrip():
    rng = random.Random(7)
    for _ in range(20):
        xs = (rand_element(rng, 8, unit=True), rand_element(rng, 8, unit=True))
        fwd = p_ij_eval(1, 2, xs)
        back = p_ij_eval(1, 2, fwd, inverse=True)
        assert back[0].allclose(xs[0], tol=1e-12)
        assert back[1].allclose(xs[1], tol=1e-12)


def test_p_ij_rejects_bad_slots():
    xs = (complex_unit(1, 0), complex_unit(0, 1))
    with pytest.raises(ValueError):
        p_ij_eval(1, 1, xs)
    with pytest.raises(ValueError):
        p_ij_eval(0, 2, xs)
    with pytest.raises(ValueError):
        p_ij_eval(1, 3, xs)


def test_quaternion_collision_witness_confirmed():
    w = quaternion_collision_witness()
    assert isinstance(w, CollisionWitness)
    assert w.confirmed
    assert w.max_error < 1e-12
    assert w.input_separation > 2.0  # actually sqrt(6)
    assert math.isclose(w.input_separation, math.sqrt(6.0), rel_tol=1e-12)
    assert w.matrix.det() == 1
    for got, want in zip(w.first_image + w.second_image, w.expected + w.expected):
        assert got.allclose(want)


# ---------------------------------------------------------------------------
# the reflection family
# ---------------------------------------------------------------------------

def test_psi_special_positions():
    x = np.array([1.0, 0.0, 0.0])
    y_perp = np.array([0.0, 1.0, 0.0])
    assert np.allclose(psi_eval(x, y_perp), x)
    assert np.allclose(psi_eval(x, x), -x)


def test_psi_circle_closed_form():
    # psi_x(y) = -exp(i(2 beta - alpha)) when x, y sit at angles alpha, beta
    for alpha in (0.0, 0.7, 2.4):
        x = np.array([math.cos(alpha), math.sin(alpha)])
        for beta in np.linspace(0.0, 2.0 * math.pi, 41):
            y = np.array([math.cos(beta), math.sin(beta)])
            got = psi_eval(x, y)
            phase = 2.0 * beta - alpha
            want = -np.array([math.cos(phase), math.sin(phase)])
            assert np.allclose(got, want, atol=1e-12)


def test_psi_preserves_the_sphere():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 7):
        pts = uniform_sphere_samples(k, 50, rng)
        x = pts[0]
        for y in pts[1:]:
            assert abs(np.linalg.norm(psi_eval(x, y)) - 1.0) < 1e-12


def test_psi_map_matches_pointwise():
    rng = np.random.default_rng(9)
    pts = uniform_sphere_samples(3, 100, rng)
    x = pts[0]
    vectorized = psi_map(x)(pts)
    for row, y in zip(vectorized, pts):
        assert np.allclose(row, psi_eval(x, y), atol=1e-12)


def test_psi_rejects_non_unit():
    with pytest.raises(ValueError):
        psi_eval(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi_eval(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# sphere sampling and frames
# ---------------------------------------------------------------------------

def test_uniform_samples_sit_on_sphere():
    rng = np.random.default_rng(10)
    pts = uniform_sphere_samples(4, 500, rng)
    assert pts.shape == (500, 5)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_tangent_frames_are_oriented_orthonormal():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        pts = uniform_sphere_samples(k, 200, rng)
        frames = tangent_frame(pts)
        assert frames.shape == (200, k + 1, k)
        for p, f in zip(pts, frames):
            assert np.allclose(f.T @ f, np.eye(k), atol=1e-12)
            assert np.allclose(f.T @ p, 0.0, atol=1e-12)
            full = np.column_stack([p, f])
            assert np.linalg.det(full) > 0.99


# ---------------------------------------------------------------------------
# degree estimation
# ---------------------------------------------------------------------------

def test_degree_identity_map():
    for k in (1, 2, 3):
        est = degree_estimate(lambda pts: pts, k, sample_count=2000, seed=1)
        assert abs(est - 1.0) < 1e-6


def test_degree_antipodal_map():
    for k, want in ((1, 1.0), (2, -1.0), (3, 1.0)):
        est = degree_estimate(antipodal_map, k, sample_count=2000, seed=2)
        assert abs(est - want) < 1e-6


def test_degree_circle_reflection_is_two():
    base = np.array([1.0, 0.0])
    est, stderr = degree_estimate_details(psi_map(base), 1, sample_count=2000, seed=3)
    # the circle integrand is constant, so even the spread collapses
    assert abs(est - 2.0) < 1e-5
    assert stderr < 1e-5


def test_degree_is_deterministic_per_seed():
    a = degree_estimate(antipodal_map, 2, sample_count=1500, seed=7)
    b = degree_estimate(antipodal_map, 2, sample_count=1500, seed=7)
    assert a == b


def test_degree_input_validation():
    with pytest.raises(ValueError):
        degree_estimate(antipodal_map, 0)
    with pytest.raises(ValueError):
        degree_estimate(antipodal_map, 2, sample_count=10)
    with pytest.raises(ValueError):
        degree_estimate(lambda pts: 0.0 * pts, 2, sample_count=1000)


def test_degree_of_a_broken_map_is_refused_without_warnings():
    def with_row(row, value, rows=None):
        # the image is the point itself, but `row` of every call with
        # `rows` rows (of every call, if None) is `value`
        def apply(pts):
            out = pts.copy()
            if rows in (None, len(pts)):
                out[row] = value
            return out

        return apply

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shape = r"^degree map must preserve the point shape \({}, {}\), got \({}, {}\)$"
        with pytest.raises(ValueError, match=shape.format(1000, 4, 1000, 2)):
            degree_estimate_details(lambda pts: pts[:, :2], 3, 1000)
        # rows dropped in the blocks only, not from the whole samples
        with pytest.raises(ValueError, match=shape.format(4096, 3, 4095, 3)):
            degree_estimate_details(lambda pts: pts if len(pts) == 5000 else pts[1:], 2, 5000)
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^map image of sample 1 has a non-finite norm$"):
                degree_estimate_details(lambda pts: pts * value, 2, 1000)
            with pytest.raises(ValueError, match="^map image of sample 3 has a non-finite norm$"):
                degree_estimate_details(with_row(2, value), 2, 1000)
            # a finite image whose difference quotient is not: row 3 of the
            # second block, 904 samples long
            with pytest.raises(ValueError, match="^Jacobian determinant at sample 4100 is not finite$"):
                degree_estimate_details(with_row(3, value, rows=904), 2, 5000)


def _circle_power_map(r):
    def apply(pts):
        w = (pts[:, 0] + 1j * pts[:, 1]) ** r
        return np.stack([w.real, w.imag], axis=1)

    return apply


def test_degree_outputs_are_frozen(capsys):
    # digest of repr(estimate) and repr(stderr) for the identity, antipodal
    # and psi maps on S^1..S^4 and the circle power maps z^-3 and z^7, at
    # sample counts on both sides of multiples of 4096 and 8192, then of the
    # CLI's stdout for `degree --k 3 --map psi` at its default 100 000
    # samples; estimates computed over sample blocks must keep every bit
    from spheremat.cli import main

    cases = []
    for k in (1, 2, 3, 4):
        base = np.zeros(k + 1)
        base[0] = 1.0
        cases += [(lambda pts: pts, k), (antipodal_map, k), (psi_map(base), k)]
    cases += [(_circle_power_map(-3), 1), (_circle_power_map(7), 1)]
    counts = [1000, 50_000, 100_000]
    for block in (4096, 8192):
        counts += [block - 1, block, block + 1, 3 * block + 17]
    outcomes = []
    for seed, (fn, k) in enumerate(cases):
        for count in counts:
            est, err = degree_estimate_details(fn, k, count, seed=seed)
            outcomes.append(f"{k} {count} {est!r} {err!r}")
    assert main(["degree", "--k", "3", "--map", "psi"]) == 0
    outcomes.append(capsys.readouterr().out)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "e6047acc366dd4bf5d17a15b6d5d9fe5055617169e37e076210effc001ad9244"


def test_degree_outputs_past_k6_are_frozen():
    # from k = 7 on a frame denominator sums 8 or more squares, which numpy
    # adds pairwise along a contiguous row: a sum taken in another order or
    # layout moves the last bit, and this digest with it
    outcomes = []
    for k in (7, 8):
        base = np.zeros(k + 1)
        base[0] = 1.0
        for seed, fn in enumerate((psi_map(base), antipodal_map, lambda pts: pts)):
            for count in (1000, 4095, 4096, 4097, 2 * 4096 + 17):
                est, err = degree_estimate_details(fn, k, count, seed=seed)
                outcomes.append(f"{k} {count} {est!r} {err!r}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "e5f58de0256b130074c36a60a128d1bc50d460586695d26a03c21f1909edcddc"


def test_tangent_frames_are_frozen():
    # every bit of the frames of a batch, of one point and of a stacked
    # batch, with the poles and a point of first coordinate 0 among them
    h = hashlib.sha256()
    rng = np.random.default_rng(5)
    for d in (2, 5, 9):
        pts = uniform_sphere_samples(d - 1, 300, rng)
        pts[:3] = np.eye(d)[[0, 0, 1]] * [[1.0], [-1.0], [1.0]]
        for p in (pts, pts[7], pts.reshape(3, 100, d)):
            frames = tangent_frame(p)
            h.update(repr(frames.shape).encode())
            h.update(frames.tobytes())
    assert h.hexdigest() == "6c8b5e82bcfceac48ccc6cda63a0c0b0a1dc3065335aa4d4e6e337f31f95ebed"


def _traced_peak(fn, *args, **kwargs):
    # numpy imports numpy.random (and with it secrets, hmac and base64) on
    # the first default_rng call: ~0.77 MB of module state that would count
    # against whichever measurement runs first, so pay it untraced
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_degree_estimate_keeps_at_most_200_bytes_per_sample():
    # Tangent frames, difference quotients and Jacobians exist for one block
    # of samples at a time; with every array over all samples at once the
    # peak was 784 B per sample here (tracemalloc).
    base = np.zeros(5)
    base[0] = 1.0
    peak = _traced_peak(degree_estimate_details, psi_map(base), 4, 200_000, seed=1)
    assert peak / 200_000 <= 200


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_degree_memory_estimate_bounds_the_traced_peak(k):
    base = np.zeros(k + 1)
    base[0] = 1.0
    count = 3 * spheres._DEGREE_BLOCK + 17
    fns = [psi_map(base), antipodal_map, lambda pts: pts]
    if k == 1:
        fns += [_circle_power_map(-3), _circle_power_map(7)]
    for fn in fns:
        peak = _traced_peak(degree_estimate_details, fn, k, count, seed=k)
        assert peak <= spheres._degree_bytes(k, count)


def test_degree_past_the_memory_cap_is_refused_before_drawing(monkeypatch):
    # the input checks come first
    with pytest.raises(ValueError, match="^sphere dimension must be at least 1$"):
        degree_estimate_details(antipodal_map, 0, 10**10)

    class Drawn(Exception):
        pass

    def draw(*args):
        raise Drawn

    monkeypatch.setattr(spheres, "uniform_sphere_samples", draw)
    with pytest.raises(
        ValueError,
        match=r"^an estimate of 10000000000 samples on S\^4 needs about \d+ MiB, over the cap of 1024 MiB$",
    ):
        degree_estimate_details(antipodal_map, 4, 10**10)
    # the largest count under the cap is drawn, the next one is refused
    for k in (1, 4, 100):
        lo, hi = 1000, 2**40
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if spheres._degree_bytes(k, mid) <= 2**30 else (lo, mid - 1)
        with pytest.raises(Drawn):
            degree_estimate_details(antipodal_map, k, lo)
        with pytest.raises(ValueError, match="over the cap of 1024 MiB"):
            degree_estimate_details(antipodal_map, k, lo + 1)
    # one block on a sphere of high dimension is past the cap by itself
    with pytest.raises(ValueError, match=r"^an estimate of 1000 samples on S\^1000 needs"):
        degree_estimate_details(antipodal_map, 1000, 1000)


# ---------------------------------------------------------------------------
# induced matrices on torus factors
# ---------------------------------------------------------------------------

def test_induced_identity():
    assert induced_matrix_on_torus(lambda z: z, 3) == IntMatrix.identity(3)


def test_induced_monomial_maps_measure_their_matrix():
    rng = random.Random(12)
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert induced_matrix_on_torus(p_a_torus_map(a), n) == a


def test_induced_composition_multiplies():
    a = IntMatrix([[2, 1], [1, 1]])
    b = IntMatrix([[0, -1], [1, 3]])
    composed = compose_maps(p_a_torus_map(a), p_a_torus_map(b))
    assert induced_matrix_on_torus(composed, 2) == a * b


def test_induced_word_map():
    rng = random.Random(13)
    target = random_sln(2, rng, min_letters=4, max_letters=10)
    word = decompose_sln(target)
    assert induced_matrix_on_torus(p_word_torus_map(word), 2) == target


def test_word_map_rejects_non_elementary_letters():
    word = GeneratorWord(2, ((E(1, 2), 1), (J(1), 1)))
    with pytest.raises(ValueError, match="elementary letters only"):
        p_word_torus_map(word)


def test_letterwise_composition_agrees_pointwise():
    # splitting a matrix into elementary letters and composing their maps
    # reproduces the single monomial map on arbitrary torus points
    target = IntMatrix([[0, -1], [1, 0]])
    word = decompose_sln(target)
    mats = [symbol_matrix(sym, 2) ** exp for sym, exp in word.letters]
    composed = compose_maps(*(p_a_torus_map(m) for m in mats))
    rng = np.random.default_rng(14)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(1000, 2))
    pts = np.exp(1j * angles)
    assert np.allclose(composed(pts), p_a_torus_map(target)(pts), atol=1e-9)


def test_reflection_shear_measures_mixed_row():
    got = induced_matrix_on_torus(reflection_shear_torus_map(), 2)
    assert got == IntMatrix([[-1, 2], [0, 1]])


def test_conjugated_reflection_shear_is_elementary_square():
    fixed = compose_maps(reflection_shear_torus_map(), slot_conjugation_torus_map(1, 2))
    assert induced_matrix_on_torus(fixed, 2) == elementary_matrix(2, 1, 2, 2)


def test_slot_conjugation_measures_sign_flip():
    got = induced_matrix_on_torus(slot_conjugation_torus_map(1, 2), 2)
    assert got == IntMatrix.diagonal([-1, 1])


def test_induced_resolution_interplay():
    a = IntMatrix([[100]])
    with pytest.raises(PhaseAmbiguityError):
        induced_matrix_on_torus(p_a_torus_map(a), 1, resolution=256)
    assert induced_matrix_on_torus(p_a_torus_map(a), 1, resolution=1024) == a


def test_induced_rejects_bad_maps():
    with pytest.raises(ValueError):
        induced_matrix_on_torus(lambda z: z, 2, resolution=100)
    with pytest.raises(ValueError):
        induced_matrix_on_torus(lambda z: z[:, :1], 2)
    with pytest.raises(ValueError):
        induced_matrix_on_torus(lambda z: 0.0 * z, 1)

    def half_winding(z):
        out = np.array(z, dtype=complex)
        out[:, 0] = np.exp(1j * np.linspace(0.0, np.pi, out.shape[0]))
        return out

    with pytest.raises(PhaseAmbiguityError):
        induced_matrix_on_torus(half_winding, 1)


def test_vanished_coordinate_raises_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="image coordinate vanished"):
            induced_matrix_on_torus(lambda z: 0.0 * z, 1)


def test_earlier_coordinate_error_takes_precedence():
    # coordinate 1 turns by pi/2 + 0.1 per step while coordinate 2 vanishes:
    # the checks run coordinate by coordinate, so coordinate 1 is reported
    def jump_then_zero(z):
        out = np.array(z, dtype=complex)
        steps = np.arange(out.shape[0])
        out[:, 0] = np.exp(1j * (np.pi / 2 + 0.1) * steps)
        out[:, 1] = 0.0
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PhaseAmbiguityError, match=r"^phase jump too close to pi on loop 1, coordinate 1;"):
            induced_matrix_on_torus(jump_then_zero, 2)


def _one_infinite_sample(z):
    # the steps around one infinite sample can be finite: only the sample
    # itself gives it away
    out = np.array(z, dtype=complex)
    out[500, 0] = complex(np.inf, 1.0)
    return out


@pytest.mark.parametrize(
    "fn, n, coordinate, loop",
    [
        (lambda z: z * np.nan, 1, 1, 1),
        (lambda z: z * np.inf, 1, 1, 1),
        (_one_infinite_sample, 1, 1, 1),
        # z^(10^30) overflows to NaN on some samples and underflows to 0 on others
        (p_a_torus_map(IntMatrix([[10**30]])), 1, 1, 1),
        (p_a_torus_map(IntMatrix([[1, 0], [0, 10**30]])), 2, 2, 2),
    ],
    ids=["nan", "inf", "one-inf-sample", "overflow", "overflow-second-loop"],
)
def test_non_finite_image_is_named_without_warnings(fn, n, coordinate, loop):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ValueError,
            match=rf"^image coordinate {coordinate} is not finite on loop {loop}; winding undefined$",
        ):
            induced_matrix_on_torus(fn, n)


def test_induced_refuses_resolutions_past_the_memory_cap():
    def never_called(z):
        raise AssertionError("the map ran")

    with pytest.raises(ValueError, match=r"^resolution 1000000000000 at n = 2 needs about 244140626 MiB, over the cap of 1024 MiB$"):
        induced_matrix_on_torus(never_called, 2, resolution=10**12)
    # the samples fit here, but the 30000 x 30000 result would not
    with pytest.raises(ValueError, match=r"^resolution 256 at n = 30000 needs about 14675 MiB"):
        induced_matrix_on_torus(never_called, 30_000, resolution=256)
    # one past the largest resolution allowed on two circles, 2^22 - 2
    with pytest.raises(ValueError, match="over the cap"):
        induced_matrix_on_torus(never_called, 2, resolution=2**22 - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_winding_memory_estimate_bounds_the_traced_peak(n):
    resolution = 2**12
    rng = random.Random(n)
    matrices = [
        [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
        [[rng.choice((1, -1)) * rng.randint(1, resolution // 5) for _ in range(n)] for _ in range(n)],
        [[-3] * n for _ in range(n)],
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
    ]
    for rows in matrices:
        peak = _traced_peak(induced_matrix_on_torus, p_a_torus_map(IntMatrix(rows)), n, resolution)
        assert peak <= (resolution + 1) * n * spheres._WINDING_BYTES_PER_SAMPLE + 16 * n * n


def _per_entry_torus_map(a):
    """The monomial map as one left-to-right product per row, each power
    formed where its entry is met: the reference for `p_a_torus_map`."""

    def apply(z):
        zz = np.asarray(z, dtype=complex)
        out = np.empty_like(zz)
        for s, row in enumerate(a.rows):
            acc = None
            for col, e in enumerate(row):
                if e:
                    base = zz[..., col] if e > 0 else 1.0 / zz[..., col]
                    power = _square_and_multiply(base, abs(e))
                    acc = power if acc is None else acc * power
            out[..., s] = 1.0 if acc is None else acc
        return out

    return apply


def test_p_a_torus_map_agrees_bitwise_with_the_per_entry_product():
    rng = random.Random(3434)
    points = np.random.default_rng(3434)
    for n in range(1, 7):
        for t in range(12):
            pool = (0, 0, 2, -2, rng.randint(-3, 3), rng.randint(-3000, 3000))
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            column = rng.randrange(n)
            for row in rows:  # one column with repeated exponents of both signs
                row[column] = rng.choice((2, -2, 3000))
            if t % 3 == 0:
                rows[rng.randrange(n)] = [0] * n
            a = IntMatrix(rows)
            inputs = [np.exp(1j * points.uniform(0.0, 2.0 * np.pi, shape)) for shape in ((700, n), (1, n), (n,))]
            for j in range(n):  # the winding loops' own inputs
                z = np.ones((1025, n), dtype=complex)
                z[:, j] = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1025))
                inputs.append(z)
            for z in inputs:
                got, want = p_a_torus_map(a)(z), _per_entry_torus_map(a)(z)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (rows, z.shape)


def test_p_a_torus_map_forms_each_column_power_once(monkeypatch):
    formed = []

    def counted(base, exponent):
        formed.append(exponent)
        return _square_and_multiply(base, exponent)

    monkeypatch.setattr(spheres, "_square_and_multiply", counted)
    a = IntMatrix([[3, 1, 0], [3, -1, 0], [3, -1, 0]])
    p_a_torus_map(a)(np.ones((5, 3), dtype=complex))
    # column 1's exponent 3 and column 2's 1 and -1: one power each, where
    # the rows ask for six
    assert formed == [3, 1, 1]


def test_sample_circle_cache_is_safe():
    circle = spheres._cached_circle(1024)
    assert not circle.flags.writeable
    with pytest.raises(ValueError):
        circle[0] = 0.0

    def square_in_place(z):
        z **= 2
        return z

    first = induced_matrix_on_torus(square_in_place, 2)
    assert first == IntMatrix.diagonal([2, 2])
    assert induced_matrix_on_torus(square_in_place, 2) == first
    assert spheres._cached_circle(1024).tobytes() == spheres._circle(1024).tobytes()

    bound = spheres._CACHED_CIRCLE_STEPS
    spheres._cached_circle.cache_clear()
    induced_matrix_on_torus(lambda z: z, 1, resolution=bound + 1)
    assert spheres._cached_circle.cache_info().currsize == 0
    for resolution in range(bound - 5, bound + 1):
        induced_matrix_on_torus(lambda z: z, 1, resolution=resolution)
    assert spheres._cached_circle.cache_info().currsize == 4


def _induced_outcome(fn, n, resolution):
    try:
        return repr(induced_matrix_on_torus(fn, n, resolution=resolution).rows)
    except (ValueError, PhaseAmbiguityError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_induced_outcomes_are_frozen():
    # digest of the ordered outcomes (rows, or "Type: message") of seeded
    # monomial maps with small, wide (past resolution/4, so the known
    # aliasing shows) and 256-multiple entries, composites and the two
    # reflection-shear constructions, at resolutions 256 and 1024
    rng = random.Random(1515)
    outcomes = []
    for resolution in (256, 1024):
        cases = []
        for n in (1, 2, 3, 4):
            for _ in range(25):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                cases.append((p_a_torus_map(IntMatrix(rows)), n))
            for _ in range(8):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1)) * rng.randint(
                    resolution // 4 + 1, 2 * resolution
                )
                cases.append((p_a_torus_map(IntMatrix(rows)), n))
        for b in [256 * k for k in range(1, 9)] + [255, 257, 1000, 3000]:
            for e in (b, -b):
                cases.append((p_a_torus_map(IntMatrix([[e]])), 1))
                cases.append((p_a_torus_map(IntMatrix([[1, e], [0, 1]])), 2))
        for n in (2, 3):
            for _ in range(4):
                a, b = (
                    IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                    for _ in range(2)
                )
                cases.append((compose_maps(p_a_torus_map(a), p_a_torus_map(b)), n))
            shear = reflection_shear_torus_map(n)
            cases.append((shear, n))
            cases.append((compose_maps(shear, slot_conjugation_torus_map(1, n)), n))
        outcomes += [_induced_outcome(fn, n, resolution) for fn, n in cases]
    assert sum(o.startswith("((") for o in outcomes) > len(outcomes) // 2
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "6d161c42f64a7f84e157b424b2a47e3da60cdb50f160946aaa7f8df8d8fbe936"


def test_check_unit_point_tolerance():
    check_unit_point(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        check_unit_point(np.array([1.0, 1e-5]))
    check_unit_point(np.array([1.0, 1e-5]), tol=1e-3)


def test_torus_maps_name_an_integer_too_large_for_floats():
    huge = 10**400
    with pytest.raises(ValueError, match=r"^matrix entry \(2, 1\) is too large for floating point$"):
        p_a_torus_map(IntMatrix([[1, 0], [-huge, 1]]))
    word = GeneratorWord(2, ((E(1, 2), 3), (E(2, 1), huge)))
    with pytest.raises(ValueError, match=r"^exponent of letter 2 \(E\(2,1\)\) is too large for floating point$"):
        p_word_torus_map(word)
    # the largest exponents a float holds still build a map
    p_a_torus_map(IntMatrix([[1, 2**1023], [0, 1]]))
