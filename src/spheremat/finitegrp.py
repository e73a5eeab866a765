"""Coset enumeration of matrix groups over Z_m, plus structure checks.

Everything here is desk scale: groups are held as hash sets of row tuples,
under a size cap so a typo in the modulus fails fast. Each element is hashed
once, into the one set `_dimino` builds, and a table keeps that set.

Two layouts serve two jobs, both for the orbit algorithms of Holt, Eick and
O'Brien, *Handbook of Computational Group Theory* (2005), ch. 4.

Enumeration runs on row tuples. A matrix is a tuple of row tuples, entries
reduced to 0..m-1, and x*g is the tuple of the images v*g of x's rows v.
`_RowImages`, a dict per multiplier g, forms each image on the first lookup
of its row, so it holds the distinct rows met, never all m^n vectors, and
equal rows of different elements share one tuple. `_dimino` is the one
closure loop (Dimino's algorithm, Butler 1991), run by `_table` for
`enumerate_group` and `power_subgroup`, by `normal_subgroups` for its class
closures and joins, and by `_enlarging`. It forms each coset column by column
in `map` and `zip`, with no Python frame per element. It stays on rows since
the table keeps rows: a packed Dimino in the same iteration ran at 0.71-1.12x
this one's speed, and at 0.50-0.63x with its codes unpacked to rows, on
SL_2(Z_11) to SL_3(Z_5) (2-vCPU VM).

Conjugacy classes run on packed integer codes (`_Conjugation`), where
x -> g x g^-1 is n table lookups, n - 1 integer adds and n memo lookups, and
an orbit is a set of ints. Its tables, a pass over all rows per generator,
pay off only when every element is conjugated; a normality check tests one
conjugate per pair of generators, so it forms g h g^-1 as plain products.
Queries conjugate only by the generators that enlarged the group in `_dimino`
(`_enlarging`): each other generator is a product of earlier ones, so it
adds no orbit and no normality witness.

A table's `elements` and each conjugacy class are `_Elements` views over a
set of row tuples: for a table `_table` builds, the very set `_dimino`
filled, adopted without a copy (a frozenset copy would hash every element a
second time, and row tuples do not cache their hashes); for a class or a
table from `normal_subgroups`, a frozenset. Membership, size and
comparisons between views touch rows only; a row tuple becomes a
`ResidueMatrix`, without re-validation, only when a caller iterates, and
again on each iteration.

Each table owns its view (`FiniteGroupTable` wraps any set it is given in a
fresh one), and the view keeps what the table's queries derive: the
generators that enlarged the group, stored by `_table` or found on the first
query by one `_dimino` run (`_enlarging`), and the classes, stored by the
first `conjugacy_classes` call on the table, which `normal_subgroups` and
`power_subgroup` read. On SL_3(Z_4) the classes keep ~60 B per element for
as long as the table lives; the first call peaks at ~136 B per element
(tracemalloc).

Of the package, this module imports only `intmat` (and `_record`): it knows
matrices over Z_m, not words, permutations or cosets. The level-2 coset
structure is `subgroups`' to check.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Set
from itertools import islice, repeat
from typing import Iterable, Optional, Sequence

from ._record import record
from .intmat import DEFAULT_MAX_SIZE, GroupSizeLimitError, ResidueMatrix, elementary_matrix

_Rows = tuple[tuple[int, ...], ...]
_Tables = list[tuple[dict[int, int], int]]  # see `_Conjugation.tables`


class _Elements(Set):
    """A read-only set of `ResidueMatrix` held as the set `rows` of their
    row tuples, all over Z_m.

    The view owns `rows`: a `set` handed over by `_dimino` or a frozenset,
    and nothing mutates it after the view is made, so the cached hash stays
    valid.

    Size, membership, and `<=` or `==` against another view touch rows only,
    so a lookup is one hash of nested int tuples. Iteration wraps each row
    tuple as it goes. Equality and the hash agree with a frozenset of the
    same matrices, and the set operators return frozensets.

    A table's view is its own, so it also keeps the table's `enlarging`
    generators (see `_enlarging`) and `classes` (see `conjugacy_classes`),
    each None until first derived.
    """

    __slots__ = ("rows", "m", "_hash", "enlarging", "classes")

    def __init__(self, rows: Set[_Rows], m: int):
        self.rows = rows
        self.m = m
        self._hash = None
        self.enlarging = None  # tuple of the generators that enlarged the group, or None
        self.classes = None  # tuple of class views, or None

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, ResidueMatrix) and x.m == self.m and x.rows in self.rows

    def __iter__(self):
        return map(ResidueMatrix._trusted, self.rows, repeat(self.m))

    def __le__(self, other):
        if isinstance(other, _Elements):
            return self.m == other.m and self.rows <= other.rows
        return Set.__le__(self, other)

    def __eq__(self, other):
        if isinstance(other, _Elements):
            return self.m == other.m and self.rows == other.rows
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        # `Set._hash`, in C: a frozenset's hash depends only on its members'
        # hashes, and a ResidueMatrix hashes as its (m, rows). Formed once,
        # as a frozenset keeps its own.
        if self._hash is None:
            self._hash = hash(frozenset(zip(repeat(self.m), self.rows)))
        return self._hash

    @classmethod
    def _from_iterable(cls, it: Iterable[ResidueMatrix]) -> frozenset[ResidueMatrix]:
        return frozenset(it)

    def __repr__(self) -> str:
        return repr(frozenset(self))


@record
class FiniteGroupTable:
    """A finite matrix group over Z_m held in memory.

    `elements` is a set of n x n `ResidueMatrix` over Z_m, held as an
    `_Elements` view of the table's own over their row tuples (shared with a
    view it is given), so membership is one hash lookup of rows, and a row
    of many elements is stored once. Iterating it builds the matrices.
    Raises ValueError for a member or generator of another size or modulus,
    a view over another modulus or of another size, or elements without the
    identity.
    """

    n: int
    m: int
    generators: tuple[ResidueMatrix, ...]
    elements: Set[ResidueMatrix]

    def __post_init__(self):
        n, m, elements = self.n, self.m, self.elements
        if not isinstance(elements, _Elements):
            for x in elements:
                if not (isinstance(x, ResidueMatrix) and x.n == n and x.m == m):
                    raise ValueError(f"{x!r} is not a {n}x{n} matrix over Z_{m}")
            elements = _Elements(frozenset(x.rows for x in elements), m)
        elif elements.m != m:
            raise ValueError(f"elements over Z_{elements.m}, not Z_{m}")
        else:  # a view holds the rows of square matrices of one size
            for x in islice(elements.rows, 1):
                if len(x) != n:
                    raise ValueError(f"elements of size {len(x)}, not {n}")
        if ResidueMatrix.identity(n, m).rows not in elements.rows:
            raise ValueError(f"the elements lack the {n}x{n} identity over Z_{m}")
        for g in self.generators:
            if not (isinstance(g, ResidueMatrix) and g.n == n and g.m == m):
                raise ValueError(f"generator {g!r} is not a {n}x{n} matrix over Z_{m}")
        object.__setattr__(self, "elements", _Elements(elements.rows, m))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def sorted_elements(self) -> list[ResidueMatrix]:
        return list(map(ResidueMatrix._trusted, sorted(self.elements.rows), repeat(self.m)))


class _RowImages(dict):
    """Row vector v -> v*g mod m for the matrix g with rows `rows`, formed on
    the first lookup of v, so the dict holds only the rows met."""

    __slots__ = ("cols", "m")

    def __init__(self, rows: _Rows, m: int):
        self.cols, self.m = tuple(zip(*rows)), m

    def __missing__(self, v: tuple[int, ...]) -> tuple[int, ...]:
        w = self[v] = tuple(sum(map(operator.mul, v, c)) % self.m for c in self.cols)
        return w


def _pack(fields: Iterable[int], bits: int) -> int:
    """The fields, each `bits` wide, packed into one int, the first most significant."""
    code = 0
    for f in fields:
        code = code << bits | f
    return code


class _Conjugation:
    """x -> g x g^-1 on packed integer codes, for x among `elements`.

    With B = bit_length(n(m-1)) and W = nB, a matrix's code is its rows, the
    first most significant, each row W bits of B-bit entries. So code order is
    row order. With x_k row k of x, g x g^-1 is the sum over k of the outer
    products outer(col_k(g), x_k g^-1). `tables(g)` maps, for each column k
    of g, a row code r to the packed outer(col_k(g), r g^-1), each entry
    reduced mod m. A conjugation adds n such lookups. Every field of the sum
    is at most n(m-1) < 2^B, so no carry crosses a field, and a memo shared
    by all generators reduces each W-bit row of the sum mod m.

    The tables cover the distinct rows of `elements`, never all m^n vectors,
    so every x conjugated must have its rows among theirs, as the elements
    and their conjugates within the group do. `self.elements` maps each
    element's code to its row tuple.
    """

    def __init__(self, elements: _Elements, n: int, m: int):
        self.m = m
        self.bits = (n * (m - 1)).bit_length()
        self.width = width = n * self.bits
        self.mask = (1 << width) - 1
        self.shifts = [width * (n - 1 - k) for k in range(n)]  # of row k in a code
        self.rows: dict[tuple[int, ...], int] = {}  # each distinct row -> its code
        self.elements: dict[int, _Rows] = {}  # code -> the element's rows
        for x in elements.rows:
            code = 0
            for r in x:
                c = self.rows.get(r)
                if c is None:
                    c = self.rows[r] = _pack(r, self.bits)
                code = code << width | c
            self.elements[code] = x
        self.reduced: dict[int, int] = {}  # a row of a sum of tables -> its code

    def tables(self, g: ResidueMatrix) -> _Tables:
        """(table, shift of row k) for each column k of g."""
        m, bits = self.m, self.bits
        inv = tuple(zip(*g.inverse().rows))
        cols = tuple(zip(*g.rows))
        tables = [{} for _ in cols]
        for r, code in self.rows.items():
            w = [sum(map(operator.mul, r, c)) % m for c in inv]
            for table, col in zip(tables, cols):
                product = 0
                for a in col:
                    for b in w:
                        product = product << bits | a * b % m
                table[code] = product
        return list(zip(tables, self.shifts))

    def __call__(self, x: int, by: Sequence[_Tables]) -> list[int]:
        """The code of g x g^-1 for the `tables(g)` of each g in `by`."""
        mask, width, reduced = self.mask, self.width, self.reduced
        out = []
        for tables in by:
            s = 0
            for table, shift in tables:
                s += table[x >> shift & mask]
            y = 0
            for shift in self.shifts:
                row = s >> shift & mask
                r = reduced.get(row)
                if r is None:
                    r = reduced[row] = self._reduce(row)
                y = y << width | r
            out.append(y)
        return out

    def _reduce(self, row: int) -> int:
        m, bits = self.m, self.bits
        low = (1 << bits) - 1
        fields = range(self.width - bits, -1, -bits)
        return _pack([(row >> shift & low) % m for shift in fields], bits)


def _dimino(
    gen_rows: Sequence[_Rows], n: int, m: int, max_size: int
) -> tuple[set[_Rows], list[int]]:
    """The set of the rows of every element of the group generated by
    `gen_rows` (Dimino), and the positions in `gen_rows` of the generators
    that enlarged it.

    Dimino's algorithm (Butler, *Fundamental Algorithms for Permutation
    Groups*, LNCS 559, 1991): with G_0 = {1} and G_i = <G_{i-1}, g_i>, G_i is
    a union of right cosets G_{i-1} r. A coset is one block of |G_{i-1}|
    consecutive entries of the element list, headed by its representative r.
    If r s is new for a generator s, the block times s is a whole new coset,
    formed column by column through s's `_RowImages`: a new element costs n
    memo lookups and one set insertion, its only hashing. The element list
    stays internal; the set is returned for the caller to keep, so no element
    is hashed again. No inverses are needed: a finite group is closed once it
    is closed under the generators. A generator already in the group is
    skipped; the others enlarged it.
    Raises `GroupSizeLimitError` iff the order exceeds `max_size`, before the
    coset that would pass it is formed. The rows must come from matrices with
    unit determinant mod m.
    """
    if max_size < 1:  # even the trivial group has one element
        raise GroupSizeLimitError(f"group exceeds {max_size} elements")
    ident = ResidueMatrix.identity(n, m).rows
    seen = {ident}
    found = [ident]
    images = []  # the row images of each generator that enlarged the group
    enlarged = []  # and its position in `gen_rows`
    for i, rows in enumerate(gen_rows):
        if rows in seen:
            continue
        enlarged.append(i)
        images.append(_RowImages(rows, m))
        size = len(found)  # |G_{i-1}|: found[start:start + size] is one coset
        start = 0
        while start < len(found):
            for image in images:
                get = image.__getitem__
                if tuple(map(get, found[start])) in seen:
                    continue
                if len(found) + size > max_size:
                    raise GroupSizeLimitError(f"group exceeds {max_size} elements")
                block = found[start : start + size]
                coset = list(zip(*[map(get, map(operator.itemgetter(k), block)) for k in range(n)]))
                seen.update(coset)
                found += coset
            start += size
    return seen, enlarged


def _table(gens: Sequence[ResidueMatrix], n: int, m: int, max_size: int) -> FiniteGroupTable:
    """The table of <gens> (see `_dimino`); their determinants must be units.

    Its view keeps the generators that enlarged the group."""
    gens = tuple(gens)
    rows, enlarged = _dimino([g.rows for g in gens], n, m, max_size)
    table = FiniteGroupTable(n=n, m=m, generators=gens, elements=_Elements(rows, m))
    table.elements.enlarging = tuple(gens[i] for i in enlarged)
    return table


def _enlarging(group: FiniteGroupTable) -> tuple[ResidueMatrix, ...]:
    """The generators of `group` that enlarged it in `_dimino`, in order.

    A table built by `_table` keeps them on its view. Any other table
    (`normal_subgroups` returns each subgroup with all its elements as
    generators, and a caller may build one) derives them on its first query
    from one `_dimino` run over its generators, about one product per
    element. Raises ValueError unless the generators are among the elements
    and generate all of them.
    """
    view = group.elements
    if view.enlarging is None:
        gens = group.generators
        for g in gens:
            if g not in view:
                raise ValueError(f"generator {g.rows} is not among the table's elements")
        # every generator is an element, so their group fits in the table (or is {1})
        rows, enlarged = _dimino([g.rows for g in gens], group.n, group.m, max(len(view), 1))
        if len(rows) != len(view) or not view.rows.issuperset(rows):
            raise ValueError(f"the generators generate a group of order {len(rows)}, not {len(view)}")
        view.enlarging = tuple(gens[i] for i in enlarged)
    return view.enlarging


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
        if not isinstance(g, ResidueMatrix):
            raise ValueError(f"generator {g!r} is not a ResidueMatrix")
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
    """The subgroup generated by all t-th powers of elements of H = <subgroup_generators>.

    When those are the group's own generators, H is the group's table;
    otherwise H is enumerated. Since (g x g^-1)^t = g x^t g^-1, the t-th
    powers are a union of conjugacy classes of H: the classes that hold the
    t-th power of one representative of each class. Their sorted rows are
    the generators of the result."""
    if t < 1:
        raise ValueError("power must be positive")
    if tuple(subgroup_generators) == group.generators and group.order <= max_size:
        sub = group
    else:
        sub = enumerate_group(subgroup_generators, group.n, group.m, max_size=max_size)
        if not sub.elements <= group.elements:
            raise ValueError("subgroup generators do not lie inside the group")
    classes = conjugacy_classes(sub)
    powers = {(next(iter(c)) ** t).rows for c in classes}
    rows = sorted(r for c in classes if not c.rows.isdisjoint(powers) for r in c.rows)
    # powers of checked elements: their determinants are units
    gens = list(map(ResidueMatrix._trusted, rows, repeat(group.m)))
    return _table(gens, group.n, group.m, max_size)


def find_normality_violation(
    subgroup: FiniteGroupTable, group: FiniteGroupTable
) -> Optional[tuple[ResidueMatrix, ResidueMatrix]]:
    """The first pair (g, h) of a group and a subgroup generator with
    g h g^-1 outside the subgroup, or None.

    Generators suffice: if every such conjugate stays inside, conjugation by
    any product does too (the subgroup is finite, so containment forces
    equality). So only the generators that enlarged each group (`_enlarging`)
    are tried, in their order: a generator g that did not is a product of
    earlier ones, which all normalize the subgroup if none gave a pair, so g
    gives none either; the same holds for h within the subgroup. The pair
    found is the first one among all generators. Each conjugate is two plain
    products and one lookup of its rows."""
    if subgroup.n != group.n or subgroup.m != group.m:
        raise ValueError("dimension or modulus mismatch")
    if not subgroup.elements <= group.elements:
        raise ValueError("subgroup generators do not lie inside the group")
    hs = _enlarging(subgroup)
    for g in _enlarging(group):
        g_inv = g.inverse()
        for h in hs:
            if g * h * g_inv not in subgroup.elements:
                return (g, h)
    return None


def is_normal(subgroup: FiniteGroupTable, group: FiniteGroupTable) -> bool:
    return find_normality_violation(subgroup, group) is None


def conjugacy_classes(group: FiniteGroupTable) -> list[Set[ResidueMatrix]]:
    """Conjugacy classes as orbits of conjugation by the generators, in order
    of their smallest rows; each class is an `_Elements` view over the row
    tuples of its members, which compares and hashes as a frozenset.

    The orbits are sets of `_Conjugation` codes under the generators that
    enlarged the group (`_enlarging`). Code order is row order, so the seeds
    are taken in sorted code order. Raises ValueError as `_enlarging` does.
    The classes are stored on the table's view, and a later call on the same
    table returns them in a new list."""
    view = group.elements
    if view.classes is None:
        gens = _enlarging(group)
        conjugate = _Conjugation(view, group.n, group.m)
        by = [conjugate.tables(g) for g in gens]
        remaining = conjugate.elements
        classes = []
        for seed in sorted(remaining):
            if seed not in remaining:
                continue
            seen = {seed}
            orbit = [seed]
            for x in orbit:
                for y in conjugate(x, by):
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            classes.append(_Elements(frozenset(map(remaining.pop, orbit)), group.m))
        view.classes = tuple(classes)
    return list(view.classes)


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
        rows = list(cls.rows)  # rows of table elements: unit determinants
        atoms.setdefault(frozenset(_dimino(rows, n, m, group.order)[0]), rows)
    todo = [frozenset([ResidueMatrix.identity(n, m).rows])]
    lattice = set(todo)
    for sub in todo:
        for atom, cls in atoms.items():
            if cls[0] in sub:  # a normal subgroup holds all of a class or none
                continue
            joined = atom if sub <= atom else frozenset(_dimino([*sub, *cls], n, m, group.order)[0])
            if joined not in lattice:
                lattice.add(joined)
                todo.append(joined)
    subs = sorted(((sorted(sub), sub) for sub in lattice), key=lambda s: (len(s[0]), s[0]))
    return [
        FiniteGroupTable(n, m, tuple(map(ResidueMatrix._trusted, rows, repeat(m))), _Elements(sub, m))
        for rows, sub in subs
    ]


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
