"""Self-maps of spheres and sphere products, exact where possible.

Composition algebras
--------------------
Unit spheres in dimensions 1, 3 and 7 carry multiplications coming from the
complex numbers, the quaternions and the octonions. Octonion products use
the Cayley-Dickson doubling of the quaternions with the convention

    (a, b) * (c, d) = (a c - conj(d) b,  d a + b conj(c))

on pairs of quaternions, so e1 e2 = e3, e1 e4 = e5, e2 e4 = e6, e3 e4 = e7
and every product of two basis units is again (up to sign) a basis unit.
The product is alternative but not associative: (e1 e2) e4 = -e1 (e2 e4).

Numerical tools
---------------
`degree_estimate` integrates the Jacobian determinant of a smooth self-map
of S^k with Monte Carlo sampling, using geodesic central differences and
Householder tangent frames with a fixed orientation convention, so the
identity map comes out at +1. Over each block of samples the frames and
difference quotients are held coordinate-major, one contiguous row per
coordinate, while the map itself gets row-major points. Sums of squares
(the norms of the samples and images, the frame denominators) are formed
one whole coordinate row at a time, in the order of numpy's pairwise row
sum, so they keep its bits without its per-row reduction. A map that
changes the point shape or returns complex points, an image or
determinant that is not finite, and a seed that is not a non-negative
integer are refused with a ValueError naming it. `induced_matrix_on_torus`
recovers the integer matrix a self-map of (S^1)^n induces on first homology
by accumulating phase along basis loops: one map call per loop, then one
vectorized check of all n image coordinates, which names the first one that
vanishes or is not finite. Each phase step is the angle of a sample times
the conjugate of the one before it, not of their quotient (a quotient only
past 2^511 in modulus, where the product could overflow). The sample circle
of a resolution up to 2^16 is formed once and shared read-only. One
power-product loop serves `p_a_eval` and `p_a_torus_map`: it forms each
distinct square-and-multiply power of a coordinate once per call and starts
each row at its first power, not at one. `p_a_torus_map` holds every slot
that is 1 at all samples, as a basis loop holds all but one, and forms no
power of it; it returns one contiguous row per image coordinate, so the
check takes its rows without a copy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ._record import record
from .intmat import IntMatrix, _square_and_multiply

if TYPE_CHECKING:
    from .words import GeneratorWord

UNIT_TOL = 1e-9

# Measurements whose memory estimate passes this cap are refused before
# anything is allocated.
_MAX_MEASUREMENT_BYTES = 2**30

# Peak traced memory of a winding measurement of a monomial map is 75-112 B
# per sample and image coordinate (tracemalloc, resolutions 2^14 and 2^16,
# n = 1..6, entries up to 3000 and R/5 in absolute value, the sample circle
# formed in the call), and the n x n result lists and tuples take 16 B per
# entry.
_WINDING_BYTES_PER_SAMPLE = 128

# Windings keep the sample circles of the last four resolutions up to this
# one, 16 B per sample (1 MiB each at the bound); a larger circle is formed
# per call, so none that the memory cap admits outlives its measurement.
_CACHED_CIRCLE_STEPS = 2**16

# Degree estimates form tangent frames, difference quotients and Jacobians
# over blocks of this many samples. Peak traced memory on S^k (tracemalloc,
# psi, antipodal and identity maps, k = 1..32) is at most 24(k+1) + 16 B
# per sample for the arrays held whole, plus 8(k+1)(3k+8) B per sample of
# one block: the two (k, k+1, n) frames, the Jacobians and the arrays of one
# column's map calls measure 129, 249, 417 and 633 B at k = 1..4, 2 009 at
# k = 8 and 26 392 of the charged 27 456 at k = 32. The library's own whole
# arrays (the samples, their images, norms and determinants, and one
# temporary beside them) take 16(k+1) + 24 B per sample up to k = 6 and
# 16(k+1) + 72 from k = 7, where a sum of squares keeps eight accumulators;
# the charge stays 24(k+1) + 16, which a map's own temporaries can reach:
# psi's `base - 2 inner pts` holds one of the image's size beside the
# samples and the image, 24(k+1) + 8 B per sample.
_DEGREE_BLOCK = 4096

# Degree estimates differentiate along geodesics at this fixed step h.
_DEGREE_STEP = 1e-5


def _degree_bytes(k: int, sample_count: int) -> int:
    whole = sample_count * (24 * (k + 1) + 16)
    return whole + min(sample_count, _DEGREE_BLOCK) * 8 * (k + 1) * (3 * k + 8)


def _is_integer(value: object) -> bool:
    """Whether `value` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_memory(estimate: int, what: str, *where: object) -> None:
    """Raise a ValueError naming the MiB `what.format(*where)` needs if
    `estimate` passes the cap; the name is formatted only then."""
    if estimate > _MAX_MEASUREMENT_BYTES:
        mib = -(-estimate >> 20)  # rounded up in integers: the estimate may pass the float range
        raise ValueError(
            f"{what.format(*where)} needs about {mib} MiB, "
            f"over the cap of {_MAX_MEASUREMENT_BYTES >> 20} MiB"
        )


class PhaseAmbiguityError(RuntimeError):
    """Phase accumulation could not be trusted (jump too close to pi)."""


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
    x = a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2]
    y = a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1]
    z = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]
    return np.array([w, x, y, z])


def _quat_conj(a: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


class AlgebraElement:
    """Element of the complex numbers (dim 2), quaternions (4) or octonions (8)."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[float]):
        arr = np.asarray(components, dtype=float)
        if arr.ndim != 1 or arr.shape[0] not in (2, 4, 8):
            raise ValueError("components must be a vector of length 2, 4 or 8")
        self.components = arr

    @property
    def dimension(self) -> int:
        return int(self.components.shape[0])

    @classmethod
    def one(cls, dimension: int) -> "AlgebraElement":
        v = np.zeros(dimension)
        v[0] = 1.0
        return cls(v)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.dimension != other.dimension:
            raise ValueError("algebra dimension mismatch")
        a, b = self.components, other.components
        if self.dimension == 2:
            return AlgebraElement(
                [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]
            )
        if self.dimension == 4:
            return AlgebraElement(_quat_mul(a, b))
        a1, a2 = a[:4], a[4:]
        b1, b2 = b[:4], b[4:]
        first = _quat_mul(a1, b1) - _quat_mul(_quat_conj(b2), a2)
        second = _quat_mul(b2, a1) + _quat_mul(a2, _quat_conj(b1))
        return AlgebraElement(np.concatenate([first, second]))

    def conjugate(self) -> "AlgebraElement":
        v = 0.0 - self.components  # not -x: a zero part stays +0.0, not -0.0
        v[0] = self.components[0]
        return AlgebraElement(v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def inverse(self) -> "AlgebraElement":
        n2 = float(np.dot(self.components, self.components))
        if n2 == 0.0:
            raise ZeroDivisionError("zero element has no inverse")
        return AlgebraElement(self.conjugate().components / n2)

    def __pow__(self, exponent: int) -> "AlgebraElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return AlgebraElement.one(self.dimension)
        return _square_and_multiply(self, exponent)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.components)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        return (
            self.dimension == other.dimension
            and bool(np.all(np.abs(self.components - other.components) <= tol))
        )

    def __repr__(self) -> str:
        return f"AlgebraElement({self.components.tolist()})"


def complex_unit(re: float, im: float) -> AlgebraElement:
    return AlgebraElement([re, im])


def quaternion(w: float, x: float, y: float, z: float) -> AlgebraElement:
    return AlgebraElement([w, x, y, z])


def octonion_unit(index: int) -> AlgebraElement:
    v = np.zeros(8)
    v[index] = 1.0
    return AlgebraElement(v)


def _unit_elements(xs: Sequence[AlgebraElement]) -> int:
    """The dimension the elements `xs` share, each a unit within `UNIT_TOL`."""
    dims = {x.dimension for x in xs}
    if len(dims) != 1:
        raise ValueError("mixed algebra dimensions")
    for x in xs:
        check_unit_point(x.components, UNIT_TOL)
    return dims.pop()


def _power_products(rows: Sequence[Sequence[int]], bases: Sequence, reciprocal: Callable) -> list:
    """Per row, the left-to-right product of the powers bases[c] ** row[c]
    over its nonzero entries, None for a zero row. Each column forms its
    base's `reciprocal` at most once and each distinct power once, so each
    row keeps the bits of its own left-to-right product."""
    acc = [None] * len(rows)
    for c, x in enumerate(bases):
        inv, powers = None, {}
        for s, row in enumerate(rows):
            if e := row[c]:
                if (power := powers.get(e)) is None:
                    if e < 0 and inv is None:
                        inv = reciprocal(x)
                    power = powers[e] = _square_and_multiply(x if e > 0 else inv, abs(e))
                acc[s] = power if acc[s] is None else acc[s] * power
    return acc


def p_a_eval(a: IntMatrix, xs: Sequence[AlgebraElement]) -> tuple[AlgebraElement, ...]:
    """The power-product map of an integer matrix on tuples of unit elements.

    Component i is the left-to-right product x_1^{a_i1} x_2^{a_i2} ... over
    the nonzero entries of the i-th row of `a`, and 1 for a zero row.
    Requires complex or quaternion inputs; octonions are rejected because
    the product order would not even be well defined without associativity.
    """
    if len(xs) != a.n:
        raise ValueError(f"expected {a.n} inputs, got {len(xs)}")
    dim = _unit_elements(xs)
    if dim == 8:
        raise ValueError("power products are not defined for octonion inputs")
    products = _power_products(a.rows, xs, AlgebraElement.inverse)
    return tuple(AlgebraElement.one(dim) if p is None else p for p in products)


def p_ij_eval(
    i: int, j: int, xs: Sequence[AlgebraElement], inverse: bool = False
) -> tuple[AlgebraElement, ...]:
    """Multiply slot i by slot j (or its inverse); valid in all three algebras.

    Alternativity gives (x_i x_j) x_j^-1 = x_i even for octonions, so the
    inverse flag really does invert the map.
    """
    n = len(xs)
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"need distinct slots in 1..{n}")
    _unit_elements(xs)
    out = list(xs)
    factor = xs[j - 1].inverse() if inverse else xs[j - 1]
    out[i - 1] = xs[i - 1] * factor
    return tuple(out)


# ---------------------------------------------------------------------------
# sphere geometry
# ---------------------------------------------------------------------------

def check_unit_point(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """`v` as floats, refused unless its norm is within `tol` of 1 (a NaN
    norm is not): the one unit test, with `UNIT_TOL` for algebra elements."""
    arr = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(arr))
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"norm {norm} is not within {tol:g} of 1")
    return arr


def psi_eval(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x - 2<x,y>y for unit vectors; a unit vector again, of the same dimension."""
    apply = psi_map(x)
    ya = check_unit_point(y)
    if np.shape(x) != ya.shape:
        raise ValueError("dimension mismatch")
    return apply(ya[None])[0]


def psi_map(x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The self-map y -> x - 2<x,y>y of the sphere containing x, vectorized."""
    base = check_unit_point(x)
    if base.ndim != 1:
        raise ValueError(f"psi base must be a vector, got shape {base.shape}")

    def apply(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        inner = pts @ base
        return base[None, :] - 2.0 * inner[:, None] * pts

    return apply


def antipodal_map(points: np.ndarray) -> np.ndarray:
    return -np.asarray(points, dtype=float)


def _sum_squares(rows: np.ndarray) -> np.ndarray:
    """The elementwise sum of the squares of the d arrays `rows` (the
    coordinate rows of points, contiguous or strided), added in the order of
    numpy's pairwise sum of a row of d terms: left to right below 8 terms,
    eight accumulators up to 128, and past 128 the two halves split at a
    multiple of 8. So `_sum_squares(x.T)` equals `np.sum(x * x, axis=-1)`
    and `np.sqrt` of it `np.linalg.norm(x, axis=-1)`, bit for bit, with one
    whole-row operation per coordinate instead of a reduction along rows
    of d terms."""
    d = len(rows)
    if d > 128:
        half = d // 2 - (d // 2) % 8
        total = _sum_squares(rows[:half])
        total += _sum_squares(rows[half:])
        return total
    # numpy starts its sum at 0.0, which leaves the first square unchanged
    total = np.multiply(rows[0], rows[0])
    square = np.empty_like(total)
    rest = rows[1:]
    if d >= 8:
        acc = [total] + [np.multiply(row, row) for row in rows[1:8]]
        whole = d - d % 8
        for i in range(8, whole):
            acc[i % 8] += np.multiply(rows[i], rows[i], out=square)
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            acc[a] += acc[b]
        total, rest = acc[0], rows[whole:]
    for row in rest:
        total += np.multiply(row, row, out=square)
    return total


def uniform_sphere_samples(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` points uniform on S^k, via normalized Gaussians."""
    pts = rng.standard_normal((count, k + 1))
    norms = np.sqrt(_sum_squares(pts.T))
    # a zero Gaussian vector has probability zero; nudge defensively anyway
    norms[norms == 0.0] = 1.0
    return pts / norms[:, None]


def _frames(points: np.ndarray) -> np.ndarray:
    """The frames of `tangent_frame` in coordinate-major layout, shape
    (k, d, ...): frames[b, c] is coordinate c of frame vector b at every
    point, one contiguous row per coordinate, formed by one whole-row
    operation per frame vector."""
    d = points.shape[-1]
    s = np.where(points[..., 0] >= 0.0, 1.0, -1.0)
    rows = np.moveaxis(points, -1, 0).copy()
    rows[0] += s
    denom = _sum_squares(rows)
    frames = np.empty((d - 1,) + rows.shape)
    for b in range(1, d):
        coeff = 2.0 * rows[b] / denom
        np.multiply(-coeff, rows, out=frames[b - 1])
        frames[b - 1, b] += 1.0
    frames[0] *= s
    return frames


def tangent_frame(points: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames, shape (..., d, k), consistently oriented.

    Columns 2..d of the Householder reflection sending e1 to -s*p give the
    frame; the first vector is flipped where needed so that det[p | frame]
    is +1 at every point. Orientation consistency is what makes Jacobian
    determinants comparable across sample points.
    """
    return np.moveaxis(_frames(np.asarray(points, dtype=float)), (0, 1), (-1, -2))


def _image(map_fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """`map_fn(points)` as floats, refused unless it is real and keeps the
    points' shape."""
    image = np.asarray(map_fn(points))
    if np.iscomplexobj(image):
        # a cast to float would drop the imaginary part with a warning
        raise ValueError(f"degree map must return real points, got {image.dtype}")
    image = np.asarray(image, dtype=float)
    if image.shape != points.shape:
        raise ValueError(
            f"degree map must preserve the point shape {points.shape}, got {image.shape}"
        )
    return image


def _jacobian_column(
    map_fn: Callable[[np.ndarray], np.ndarray],
    cos_y: np.ndarray,
    step: np.ndarray,
    image_frames: np.ndarray,
) -> np.ndarray:
    """Column b of the Jacobians of a block, shape (n, k): the central
    difference along the geodesic step `step` (row-major, sin(h) times frame
    vector b), read in the coordinate-major `image_frames`. Its arrays are
    freed on return, so none of them is alive during the next column's map
    calls."""
    plus = _image(map_fn, cos_y + step)
    minus = _image(map_fn, cos_y - step)
    deriv = np.subtract(plus.T, minus.T, out=np.empty(step.shape[::-1]))
    deriv /= 2.0 * _DEGREE_STEP
    # summed over the coordinates left to right, the order of every pinned estimate
    column = image_frames[:, 0] * deriv[0]
    for c in range(1, len(deriv)):
        column += image_frames[:, c] * deriv[c]
    return column.T


def _jacobian_dets(
    map_fn: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    fy_unit: np.ndarray,
) -> np.ndarray:
    """det(Df) at each row of `y`, with Df taken from the tangent frame at y
    to the one at its normalized image `fy_unit` by geodesic central
    differences.

    One call per block of samples: its arrays are freed on return, before
    the next block's are formed. Frames and difference quotients are held
    one contiguous row per coordinate; each map call still gets a
    C-contiguous (n, d) block, on which a map such as psi's `pts @ base`
    takes the same arithmetic path as on the whole samples.
    """
    n, d = y.shape
    frames = _frames(y)
    image_frames = _frames(fy_unit)
    cos_h, sin_h = math.cos(_DEGREE_STEP), math.sin(_DEGREE_STEP)
    cos_y = cos_h * y
    jac = np.empty((n, d - 1, d - 1))
    for b, frame in enumerate(frames):
        step = np.multiply(frame.T, sin_h, out=np.empty((n, d)))
        jac[:, :, b] = _jacobian_column(map_fn, cos_y, step, image_frames)
    return np.linalg.det(jac)


def degree_estimate(
    map_fn: Callable[[np.ndarray], np.ndarray],
    k: int,
    sample_count: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo mapping degree of a smooth self-map of S^k.

    Averages det(Df) over uniform samples, where Df is expressed in
    orthonormal tangent frames at the sample and its image and is computed
    by central differences along geodesics (exactly on-sphere inputs) at the
    fixed step h = 1e-5. The estimate is deterministic for a given seed and
    not rounded.
    """
    est, _ = degree_estimate_details(map_fn, k, sample_count, seed)
    return est


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise a ValueError naming the first sample, counted from 1, whose
    entry of `values` is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(what.format(int(np.argmin(finite)) + 1))


def degree_estimate_details(
    map_fn: Callable[[np.ndarray], np.ndarray],
    k: int,
    sample_count: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Like degree_estimate but also returns the standard error of the mean.

    The samples and their images are formed whole; the tangent frames,
    difference quotients and Jacobian determinants are formed over blocks of
    `_DEGREE_BLOCK` samples, so `map_fn` must act on each row on its own.
    The mean and spread are taken over all determinants at once, so the
    result does not depend on the block size. An estimate whose memory need
    passes 1 GiB, or one whose seed is not a non-negative int or numpy
    integer (a bool is not), is refused with a ValueError before anything
    is drawn. A map that returns another shape than the points it is given
    or complex points, an image of non-finite norm and a determinant that
    is not finite are each refused with a ValueError, the last two naming
    the first such sample (counted from 1), and without numpy warnings.
    """
    if k < 1:
        raise ValueError("sphere dimension must be at least 1")
    if sample_count < 1000:
        raise ValueError("need at least 1000 samples for a meaningful estimate")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    _check_memory(_degree_bytes(k, sample_count), "an estimate of {} samples on S^{}", sample_count, k)
    rng = np.random.default_rng(seed)
    y = uniform_sphere_samples(k, sample_count, rng)
    fy = _image(map_fn, y)
    # the image and the determinants are judged below, as whole arrays, so
    # numpy's warnings on non-finite values would only repeat it
    with np.errstate(all="ignore"):
        fy_norms = np.sqrt(_sum_squares(fy.T))
        _require_finite(fy_norms, "map image of sample {} has a non-finite norm")
        if np.any(fy_norms < 1e-12):
            raise ValueError("map sent a sample to the origin")
        dets = np.empty(sample_count)
        for lo in range(0, sample_count, _DEGREE_BLOCK):
            hi = lo + _DEGREE_BLOCK
            dets[lo:hi] = _jacobian_dets(map_fn, y[lo:hi], fy[lo:hi] / fy_norms[lo:hi, None])
        _require_finite(dets, "Jacobian determinant at sample {} is not finite")
    estimate = float(np.mean(dets))
    stderr = float(np.std(dets) / math.sqrt(sample_count))
    return estimate, stderr


# ---------------------------------------------------------------------------
# torus winding
# ---------------------------------------------------------------------------

def _circle(resolution: int) -> np.ndarray:
    """The R + 1 samples exp(2 pi i t / R), t = 0..R, of the basis loops."""
    return np.exp(1j * np.linspace(0.0, 2.0 * np.pi, resolution + 1))


@functools.lru_cache(maxsize=4, typed=True)
def _cached_circle(resolution: int) -> np.ndarray:
    """`_circle`, formed once and read-only: every caller shares it."""
    circle = _circle(resolution)
    circle.flags.writeable = False
    return circle


def _winding_resolution(a: IntMatrix) -> int:
    """The loops' resolution for the monomial map of `a`: 1024, or past
    4 |a_ij|, since R samples step entry a_ij's phase by 2 pi a_ij / R, and
    the step check below allows up to pi/2."""
    return max(1024, 4 * max(abs(x) for row in a.rows for x in row) + 1)


def induced_matrix_on_torus(
    map_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    resolution: int = 1024,
) -> IntMatrix:
    """Integer matrix a self-map of (S^1)^n induces on first homology.

    Points are rows of n unit complex numbers. Entry (s, j) is the winding
    of image coordinate s as basis loop j is traversed, so the monomial map
    of a matrix A measures back A itself. Steps whose phase jump nears pi
    raise PhaseAmbiguityError instead of guessing the unwrap direction, and
    accumulated windings must land within 0.01 of an integer. An `n` or
    `resolution` that is not an int or numpy integer (a bool is not) is
    refused with a ValueError before anything is formed.
    """
    if not _is_integer(n):
        raise ValueError(f"torus dimension must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("torus dimension must be at least 1")
    if not _is_integer(resolution):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 256:
        raise ValueError("resolution below 256 cannot be trusted")
    _check_memory(
        (resolution + 1) * n * _WINDING_BYTES_PER_SAMPLE + 16 * n * n,
        "resolution {} at n = {}", resolution, n,
    )
    if resolution <= _CACHED_CIRCLE_STEPS:
        circle = _cached_circle(resolution)
    else:
        circle = _circle(resolution)
    rows = [[0] * n for _ in range(n)]
    # the image is judged below, coordinate by coordinate, so numpy's
    # warnings on non-finite or vanishing values would only repeat it
    with np.errstate(all="ignore"):
        for j in range(n):
            z = np.ones((resolution + 1, n), dtype=complex)
            z[:, j] = circle
            w = np.asarray(map_fn(z), dtype=complex)
            if w.shape != z.shape:
                raise ValueError("torus map must preserve the point-tuple shape")
            # one row per image coordinate; rows are checked in order, and
            # only those before the first one that vanishes or is not finite
            # somewhere are divided (min and max keep a NaN)
            wt = np.ascontiguousarray(w.T)
            mags = np.abs(wt)
            lows, highs = mags.min(axis=1).tolist(), mags.max(axis=1).tolist()
            live = 0
            while live < n and lows[live] >= 1e-12 and highs[live] < math.inf:
                live += 1
            # the step from w to w' is the phase of w' conj(w), and arctan2 of
            # its strided parts takes np.angle's own scalar path; past 2^511 in
            # modulus that product may overflow, so such samples are divided
            later, earlier = wt[:live, 1:], wt[:live, :-1]
            if max(highs[:live], default=0.0) < 2.0**511:
                turns = later * np.conj(earlier)
            else:
                turns = later / earlier
            steps = np.arctan2(turns.imag, turns.real)
            jumps = np.abs(steps).max(axis=1).tolist()
            sums = steps.sum(axis=1).tolist()  # the last axis is contiguous: pairwise, as a 1-D sum
            for s in range(live):
                if jumps[s] > np.pi / 2:
                    raise PhaseAmbiguityError(
                        f"phase jump too close to pi on loop {j + 1}, coordinate {s + 1}; "
                        "raise the resolution"
                    )
                winding = sums[s] / (2.0 * np.pi)
                nearest = round(winding)
                if abs(winding - nearest) > 0.01:
                    raise PhaseAmbiguityError(
                        f"winding {winding:.6f} is not close to an integer"
                    )
                rows[s][j] = int(nearest)
            if live < n:
                if lows[live] < 1e-12:
                    raise ValueError("image coordinate vanished; winding undefined")
                raise ValueError(
                    f"image coordinate {live + 1} is not finite on loop {j + 1}; "
                    "winding undefined"
                )
    return IntMatrix._trusted(tuple(map(tuple, rows)))


def _require_float_range(value: int, what: str, *where: object) -> None:
    """Raise a ValueError naming `what.format(*where)` if numpy cannot take
    `value` as a float; the name is formatted only then."""
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{what.format(*where)} is too large for floating point") from None


def p_a_torus_map(a: IntMatrix) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized complex twin of p_a_eval, for winding measurements; its
    result is a transposed view of one contiguous row per image coordinate.
    A slot equal to 1 at every sample is held: its entries are left out of
    the products, so a row with nothing else left is 1."""
    for r, row in enumerate(a.rows, 1):
        for c, e in enumerate(row, 1):
            _require_float_range(e, "matrix entry ({}, {})", r, c)

    def apply(z: np.ndarray) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        # a slot that is 1 at every sample, as all but one are on a winding's
        # basis loop, is held: 1 ** e is exactly 1 + 0j and x (1 + 0j) has
        # x's value wherever x is finite, so its entries are dropped and its
        # powers never formed
        ne = zz != 1
        moving = np.ascontiguousarray(ne.reshape(-1, ne.shape[-1]).T).any(axis=1).tolist()
        rows = [[e if moving[c] else 0 for c, e in enumerate(row)] for row in a.rows]
        # 1.0 / x, not np.reciprocal: the pinned windings keep its bits
        acc = _power_products(rows, [zz[..., c] for c in range(a.n)], lambda x: 1.0 / x)
        out = np.empty(zz.shape[::-1], dtype=complex).T
        for s, product in enumerate(acc):
            out[..., s] = 1.0 if product is None else product
        return out

    return apply


def p_word_torus_map(word: GeneratorWord) -> Callable[[np.ndarray], np.ndarray]:
    """Compose slot-multiplication maps along a word of elementary letters.

    The word evaluates left to right as matrices, so the rightmost letter
    acts first; on the commutative circle the composite agrees pointwise
    with the monomial map of the product matrix.
    """
    for k, (sym, exp) in enumerate(word.letters, 1):
        if sym.kind != "E":
            raise ValueError("torus composition needs elementary letters only")
        _require_float_range(exp, "exponent of letter {} ({})", k, sym.token())

    def apply(z: np.ndarray) -> np.ndarray:
        out = np.asarray(z, dtype=complex).copy()
        for sym, exp in reversed(word.letters):
            out[..., sym.i - 1] = out[..., sym.i - 1] * out[..., sym.j - 1] ** exp
        return out

    return apply


def reflection_shear_torus_map(n: int = 2) -> Callable[[np.ndarray], np.ndarray]:
    """(x1, x2, ..) -> (x1 - 2<x1,x2>x2, x2, ..) with circle factors as unit complexes.

    For unit complex inputs the first coordinate is -x2^2/x1, so the induced
    matrix has first row (-1, 2): the shear comes with a reflection.
    """
    if n < 2:
        raise ValueError("need at least two circle factors")

    def apply(z: np.ndarray) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        out = zz.copy()
        x1, x2 = zz[..., 0], zz[..., 1]
        inner = np.real(x1 * np.conj(x2))
        out[..., 0] = x1 - 2.0 * inner * x2
        return out

    return apply


def slot_conjugation_torus_map(i: int, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Complex conjugation in slot i: the reflection inducing diag(.., -1, ..)."""
    if not 1 <= i <= n:
        raise ValueError("slot out of range")

    def apply(z: np.ndarray) -> np.ndarray:
        out = np.asarray(z, dtype=complex).copy()
        out[..., i - 1] = np.conj(out[..., i - 1])
        return out

    return apply


def compose_maps(*fns: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """compose_maps(f, g)(z) = f(g(z)); rightmost applies first."""

    def apply(z: np.ndarray) -> np.ndarray:
        out = z
        for fn in reversed(fns):
            out = fn(out)
        return out

    return apply


# ---------------------------------------------------------------------------
# the quaternion collision witness
# ---------------------------------------------------------------------------

@record
class CollisionWitness:
    matrix: IntMatrix
    first_input: tuple[AlgebraElement, AlgebraElement]
    second_input: tuple[AlgebraElement, AlgebraElement]
    first_image: tuple[AlgebraElement, AlgebraElement]
    second_image: tuple[AlgebraElement, AlgebraElement]
    expected: tuple[AlgebraElement, AlgebraElement]
    max_error: float
    input_separation: float

    @property
    def confirmed(self) -> bool:
        return self.max_error < 1e-12 and self.input_separation > 1.0


def quaternion_collision_witness() -> CollisionWitness:
    """Two far-apart quaternion pairs with the same power-product image.

    The matrix [[1,-1],[-1,2]] is unimodular, yet its power-product map on
    the 3-sphere pair identifies (-i, -1) with ((i+sqrt(3)k)/2,
    (1+sqrt(3)j)/2): both land on (i, i). A unimodular matrix therefore
    does not guarantee injectivity for quaternion power products.
    """
    a = IntMatrix([[1, -1], [-1, 2]])
    r = math.sqrt(3.0)
    first = (quaternion(0, -1, 0, 0), quaternion(-1, 0, 0, 0))
    second = (
        quaternion(0, 0.5, 0, r / 2.0),
        quaternion(0.5, 0, r / 2.0, 0),
    )
    expected = (quaternion(0, 1, 0, 0), quaternion(0, 1, 0, 0))
    image1 = p_a_eval(a, first)
    image2 = p_a_eval(a, second)
    err = 0.0
    for got, want in zip(image1 + image2, expected + expected):
        err = max(err, float(np.max(np.abs(got.components - want.components))))
    gap = math.sqrt(
        sum(
            float(np.sum((x.components - y.components) ** 2))
            for x, y in zip(first, second)
        )
    )
    return CollisionWitness(
        matrix=a,
        first_input=first,
        second_input=second,
        first_image=image1,
        second_image=image2,
        expected=expected,
        max_error=err,
        input_separation=gap,
    )
