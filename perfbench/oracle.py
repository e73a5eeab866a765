"""The benchmark's own arithmetic: seeded input generators and output checks.

Nothing in this module imports spheremat. The library's outputs are judged
by this independent code, so a defect in a layer shows up as a failed
operation instead of being confirmed by the same defect.

Matrices are lists of rows of Python ints. A word is a list of letters
`(kind, i, j, images, exp)` with 1-based indices, where `images` is the
image tuple of a permutation for `P` letters and None otherwise; this is
the letter alphabet of spheremat's word syntax.
"""

from __future__ import annotations

import math
import random


class CheckFailed(Exception):
    """An output of the library disagreed with the benchmark's own check."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# integer and residue matrices
# ---------------------------------------------------------------------------

def identity(n: int) -> list[list[int]]:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def matmul(a, b, m: int = 0) -> list[list[int]]:
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    if m:
        out = [[x % m for x in row] for row in out]
    return out


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_mod2_permutation(a) -> bool:
    odd = [[x % 2 for x in row] for row in a]
    return all(sum(r) == 1 for r in odd) and all(sum(c) == 1 for c in zip(*odd))


def is_signed_permutation(a) -> bool:
    nonzero_ok = all(sum(1 for x in r if x) == 1 for r in a) and all(
        sum(1 for x in c if x) == 1 for c in zip(*a)
    )
    return nonzero_ok and all(abs(x) in (0, 1) for r in a for x in r)


def perm_matrix(images) -> list[list[int]]:
    """Row i carries a 1 in column images[i] (spheremat's convention)."""
    n = len(images)
    return [[int(images[r] == c + 1) for c in range(n)] for r in range(n)]


def tau(n: int) -> list[list[int]]:
    out = identity(n)
    out[0][0], out[0][1], out[1][0], out[1][1] = 0, -1, 1, 0
    return out


def perm_parity(images) -> int:
    """+1 for an even permutation, -1 for an odd one (via cycle lengths)."""
    seen, sign = set(), 1
    for start in range(1, len(images) + 1):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = images[x - 1]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def sl_order(n: int, m: int) -> int:
    """|SL_n(Z_m)|: multiplicative in m, closed form on each prime power."""
    total, left, p = 1, m, 2
    while left > 1:
        e = 0
        while left % p == 0:
            left //= p
            e += 1
        if e:
            field = p ** (n * (n - 1) // 2) * math.prod(p**i - 1 for i in range(2, n + 1))
            total *= p ** ((e - 1) * (n * n - 1)) * field
        p += 1
    return total


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def evaluate(word, n: int) -> list[list[int]]:
    """Product of the letters, left to right, applied as column operations."""
    cols = identity(n)  # the identity is symmetric, so rows double as columns
    for kind, i, j, images, exp in word:
        if kind == "E":  # right-multiplying by E(i,j)^t adds t * col i to col j
            cols[j - 1] = [x + exp * y for x, y in zip(cols[j - 1], cols[i - 1])]
        elif kind in ("J", "JR", "NEG") and exp % 2:
            flip = {"J": (i, i + 1), "JR": (i, j), "NEG": range(1, n + 1)}[kind]
            for c in flip:
                cols[c - 1] = [-x for x in cols[c - 1]]
        elif kind == "TAU":
            for _ in range(exp % 4):
                cols[0], cols[1] = cols[1], [-x for x in cols[0]]
        elif kind == "P":
            step = images if exp > 0 else [images.index(k) + 1 for k in range(1, n + 1)]
            for _ in range(abs(exp)):
                moved = list(cols)
                for src, dst in enumerate(step):
                    moved[dst - 1] = cols[src]
                cols = moved
    return [list(row) for row in zip(*cols)]


def invert_word(word):
    return [(k, i, j, img, -e) for k, i, j, img, e in reversed(word)]


def word_text(word) -> str:
    """spheremat's token syntax, e.g. `E(1,2)^-2 J(1) P[(1,2,3)]`."""
    if not word:
        return "<empty>"
    tokens = []
    for kind, i, j, images, exp in word:
        if kind == "E":
            base = f"E({i},{j})"
        elif kind == "J":
            base = f"J({i})"
        elif kind == "JR":
            base = f"JR({i},{j})"
        elif kind == "P":
            base = "P[" + "".join(
                "(" + ",".join(map(str, c)) + ")" for c in cycles(images)
            ) + "]"
        else:
            base = kind
        tokens.append(base if exp == 1 else f"{base}^{exp}")
    return " ".join(tokens)


def cycles(images):
    """Disjoint cycles of length two or more, each led by its smallest point."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = images[x - 1]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def parse_word_text(text: str):
    """Letters of a decomposition printed by the CLI (E, J, JR and NEG only)."""
    word = []
    for token in text.split() if text != "<empty>" else []:
        base, _, exp = token.partition("^")
        kind, _, body = base.partition("(")
        idx = [int(x) for x in body.rstrip(")").split(",") if x]
        idx += [0, 0]
        word.append((kind, idx[0], idx[1], None, int(exp or 1)))
    return word


def letter_kinds(word) -> set:
    return {(kind, exp % 2 == 0) if kind == "E" else kind for kind, _, _, _, exp in word}


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def grid_lengths(count: int, lo: int, hi: int) -> list[int]:
    """`count` lengths on a log-spaced grid from lo to hi."""
    if count == 1:
        return [lo]
    return [int(round(lo * (hi / lo) ** (k / (count - 1)))) for k in range(count)]


def typical(candidates):
    """The candidate matrix whose largest entry has the median bit length.

    Entry growth along a random word is heavy-tailed; choosing the median of
    a few draws keeps the cost of one input close to that of its size class,
    so totals vary little from seed to seed.
    """
    ranked = sorted(candidates, key=lambda rows: max(abs(x) for r in rows for x in r).bit_length())
    return ranked[len(ranked) // 2]


def _pair(rng: random.Random, n: int) -> tuple[int, int]:
    i = rng.randint(1, n)
    j = rng.randint(1, n - 1)
    return i, j + (j >= i)


def sl_word(rng: random.Random, n: int, length: int):
    """Elementary letters E(i,j)^+-1."""
    return [("E", *_pair(rng, n), None, rng.choice((1, -1))) for _ in range(length)]


def congruence_word(rng: random.Random, n: int, length: int):
    """Letters of the level-2 congruence subgroup: E^+-2, J (n >= 3), NEG (n = 2)."""
    word = []
    for _ in range(length):
        if rng.random() < 0.15:
            word.append(("NEG", 0, 0, None, 1) if n == 2 else ("J", rng.randint(1, n - 1), 0, None, 1))
        else:
            word.append(("E", *_pair(rng, n), None, rng.choice((2, -2))))
    return word


def mixed_word(rng: random.Random, n: int, length: int):
    """Every letter kind of the word syntax that fits in dimension n."""
    word = []
    for _ in range(length):
        r = rng.random()
        if r < 0.6 or n == 1:
            word.append(("E", *_pair(rng, n), None, rng.choice((1, -1, 2, -2, 3))))
        elif r < 0.7:
            word.append(("J", rng.randint(1, n - 1), 0, None, 1))
        elif r < 0.8:
            word.append(("JR", *_pair(rng, n), None, 1))
        elif r < 0.88:
            word.append(("TAU", 0, 0, None, rng.choice((1, -1, 2))))
        elif n >= 3:
            word.append(("P", 0, 0, even_permutation(rng, n), rng.choice((1, -1))))
        elif n == 2:
            word.append(("NEG", 0, 0, None, 1))
    return word


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def even_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    images = list(random_permutation(rng, n))
    if perm_parity(images) < 0:
        images[0], images[1] = images[1], images[0]
    return tuple(images)


def residue_sl_element(rng: random.Random, n: int, m: int, letters: int = 24):
    """A random element of SL_n(Z_m) and its inverse, both mod m."""
    word = [("E", *_pair(rng, n), None, rng.randrange(1, m)) for _ in range(letters)]
    fwd = [[x % m for x in row] for row in evaluate(word, n)]
    inv = [[x % m for x in row] for row in evaluate(invert_word(word), n)]
    return fwd, inv


def elementary_residues(n: int, m: int) -> list[list[list[int]]]:
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                e = identity(n)
                e[i][j] = 1 % m
                out.append(e)
    return out


# ---------------------------------------------------------------------------
# laws for the numerical layer
# ---------------------------------------------------------------------------

def psi_degree(k: int) -> int:
    """Degree of y -> x - 2<x,y>y on S^k: 2 for odd k, 0 for even k."""
    return 2 if k % 2 else 0


def antipodal_degree(k: int) -> int:
    return (-1) ** (k + 1)


def degree_agrees(estimate: float, stderr: float, law: int) -> bool:
    """Within six standard errors, plus a floor for exactly linear maps."""
    return abs(estimate - law) <= 6.0 * stderr + 1e-6
