"""Generator words for SL_n(Z) and its level-2 congruence subgroup.

Letters
-------
E(i,j)   elementary matrix, identity plus 1 in position (i, j), i != j
J(i)     diagonal sign flip at positions i and i+1 (needs 1 <= i < n)
JR(i,k)  diagonal sign flip at positions i and k; expands to the product
         J(min) J(min+1) .. J(max-1) of consecutive flips
TAU      quarter turn in the first two coordinates
P(sigma) permutation matrix of an even permutation
NEG      minus the identity; only a generator in dimension 2

All indices are 1-based. A word is a sequence of (letter, exponent) pairs
and evaluates left to right. Words tagged as congruence words use only
E letters with even exponents, J/JR letters, and NEG (n = 2): these
generate the level-2 congruence subgroup.

Evaluation applies each letter to the columns of the running product in
place: an elementary letter adds a multiple of one column to another, and
the other letters negate or permute columns. A word of L letters costs
O(L*n) integer operations, whatever its exponents. `_word_rows` is the one
evaluator; every exact check here compares its rows with a target's rows,
and an `IntMatrix` is built only for a caller that asks for one.

The conjugation rewrite tables below (pushing an elementary letter across
a congruence generator) are not taken on faith: on each call the table
word and e * g * e^-1 are evaluated to rows and compared, and a bounded
breadth-first search stands by to repair any case that fails. One
function, `_table_rewrite`, decides each case's family and word; the
family index is the position in `_CASE_FAMILIES`, and `rewrite_table_audit`
reports the verification status of all sixteen families in that order.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Optional

from ._record import record
from .intmat import IntMatrix, WordLengthError
from .permutation import Permutation
from .subgroups import NotInGroupError, in_congruence

WORD_LETTER_CAP = 10**6


@record
class GeneratorSymbol:
    """One alphabet letter; see the module docstring for the kinds."""

    kind: str
    i: int = 0
    j: int = 0
    sigma: Optional[Permutation] = None

    def __post_init__(self):
        if self.kind not in ("E", "J", "JR", "TAU", "P", "NEG"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "E" and (self.i < 1 or self.j < 1 or self.i == self.j):
            raise ValueError(f"bad elementary indices ({self.i},{self.j})")
        if self.kind == "J" and self.i < 1:
            raise ValueError("J index must be >= 1")
        if self.kind == "JR" and (self.i < 1 or self.j < 1 or self.i == self.j):
            raise ValueError(f"bad sign-pair indices ({self.i},{self.j})")
        if self.kind == "P" and (self.sigma is None or not self.sigma.is_even):
            raise ValueError("P requires an even permutation")

    def token(self, exponent: int = 1) -> str:
        if self.kind == "E":
            base = f"E({self.i},{self.j})"
        elif self.kind == "J":
            base = f"J({self.i})"
        elif self.kind == "JR":
            base = f"JR({self.i},{self.j})"
        elif self.kind == "TAU":
            base = "TAU"
        elif self.kind == "NEG":
            base = "NEG"
        else:
            cycs = self.sigma.cycles()
            body = "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)
            base = f"P[{body}]"
        return base if exponent == 1 else f"{base}^{exponent}"


@functools.lru_cache(maxsize=1024)  # the decompositions ask for each E(i,j) many times
def E(i: int, j: int) -> GeneratorSymbol:
    return GeneratorSymbol("E", i, j)


def J(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("J", i)


def JR(i: int, k: int) -> GeneratorSymbol:
    return GeneratorSymbol("JR", i, k)


TAU = GeneratorSymbol("TAU")
NEG = GeneratorSymbol("NEG")


def P(sigma: Permutation) -> GeneratorSymbol:
    if not sigma.is_even:
        raise ValueError("P letters carry even permutations only")
    return GeneratorSymbol("P", sigma=sigma)


Letter = tuple[GeneratorSymbol, int]


def _apply_letters(cols: list[list[int]], letters: Iterable[Letter], n: int) -> None:
    """Right-multiply the matrix held as the column list `cols` by each letter.

    The columns are replaced in place. A letter whose indices do not fit in
    dimension n raises ValueError.
    """
    for sym, exp in letters:
        kind = sym.kind
        if kind == "E":
            i, j = sym.i, sym.j
            if i > n or j > n:
                raise ValueError(f"E({i},{j}) does not fit in dimension {n}")
            # E(i,j)^t adds t * column i to column j
            cols[j - 1] = [d + exp * s for d, s in zip(cols[j - 1], cols[i - 1])]
        elif kind == "TAU":
            if n < 2:
                raise ValueError("tau requires n >= 2")
            for _ in range(exp % 4):
                cols[0], cols[1] = cols[1], [-x for x in cols[0]]
        elif kind == "P":
            sigma = sym.sigma
            if sigma.n != n:
                raise ValueError(f"permutation acts on {sigma.n} points, not {n}")
            if not sigma.is_even:
                raise ValueError("P letters carry even permutations only")
            # P(sigma)^e moves column r to column sigma^e(r)
            old = cols[:]
            for cyc in sigma.cycles():
                shift = exp % len(cyc)
                for pos, r in enumerate(cyc):
                    cols[cyc[(pos + shift) % len(cyc)] - 1] = old[r - 1]
        else:
            if kind == "J":
                if not 1 <= sym.i < n:
                    raise ValueError(f"J({sym.i}) needs 1 <= i < n, n={n}")
                flips = (sym.i - 1, sym.i)
            elif kind == "JR":
                if sym.i > n or sym.j > n:
                    raise ValueError(f"JR({sym.i},{sym.j}) does not fit in dimension {n}")
                flips = (sym.i - 1, sym.j - 1)
            else:
                if n != 2:
                    raise ValueError("NEG is a generator only in dimension 2")
                flips = (0, 1)
            # sign flips are involutions
            if exp % 2:
                for c in flips:
                    cols[c] = [-x for x in cols[c]]


def _word_rows(n: int, letters: Iterable[Letter]) -> tuple[tuple[int, ...], ...]:
    """Rows of the product of `letters` in dimension n, evaluated exactly."""
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    _apply_letters(cols, letters, n)
    return tuple(zip(*cols))


def symbol_matrix(sym: GeneratorSymbol, n: int) -> IntMatrix:
    """Exact matrix of a letter in dimension n; validates index ranges."""
    return IntMatrix(_word_rows(n, ((sym, 1),)))


@record
class GeneratorWord:
    """A word in dimension n; letters evaluate left to right."""

    n: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        for sym, exp in self.letters:
            if not isinstance(sym, GeneratorSymbol) or exp == 0:
                raise ValueError("letters must be (symbol, nonzero exponent) pairs")
            if not isinstance(exp, int):
                raise ValueError(f"exponent {exp!r} is not an integer")

    def __len__(self) -> int:
        return len(self.letters)

    def matrix(self) -> IntMatrix:
        return IntMatrix(_word_rows(self.n, self.letters))

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(
            self.n, tuple((sym, -exp) for sym, exp in reversed(self.letters))
        )

    def __str__(self) -> str:
        if not self.letters:
            return "<empty>"
        return " ".join(sym.token(exp) for sym, exp in self.letters)


def word_to_matrix(word: GeneratorWord) -> IntMatrix:
    return word.matrix()


def is_congruence_word(word: GeneratorWord) -> bool:
    """Letters restricted to E^even, J, JR, and NEG (dimension 2 only)."""
    for sym, exp in word.letters:
        if sym.kind == "E":
            if exp % 2:
                return False
        elif sym.kind in ("J", "JR"):
            continue
        elif sym.kind == "NEG":
            if word.n != 2:
                return False
        else:
            return False
    return True


class _Builder:
    """Accumulates letters, merging adjacent same-symbol runs and dropping zeros."""

    def __init__(self, n: int):
        self.n = n
        self.cap = WORD_LETTER_CAP  # looked up now, not at import
        self.letters: list[Letter] = []

    def push(self, sym: GeneratorSymbol, exp: int) -> None:
        if exp == 0:
            return
        if self.letters and self.letters[-1][0] == sym:
            merged = self.letters[-1][1] + exp
            if merged == 0:
                self.letters.pop()
            else:
                self.letters[-1] = (sym, merged)
        else:
            self.letters.append((sym, exp))
            if len(self.letters) > self.cap:
                raise WordLengthError(f"word exceeded {self.cap} letters")

    def extend(self, letters: Iterable[Letter]) -> None:
        for sym, exp in letters:
            self.push(sym, exp)

    def word(self) -> GeneratorWord:
        return GeneratorWord(self.n, tuple(self.letters))


def jrange_expand(i: int, k: int, n: int) -> GeneratorWord:
    """The sign flip at positions {i, k} as a product of consecutive flips.

    With lo = min(i, k) and hi = max(i, k), the product
    J(lo) J(lo+1) .. J(hi-1) telescopes: interior signs cancel in pairs,
    leaving -1 exactly at positions lo and hi. Not evaluated here: the
    rewrite tables and `_eliminate` splice it into words that are evaluated
    whole, and the ledger's `jr-expansion` entry checks it against JR(i, k).
    """
    if i == k:
        raise ValueError("sign pair needs two distinct positions")
    if not (1 <= i <= n and 1 <= k <= n):
        raise ValueError(f"positions ({i},{k}) out of range for n={n}")
    lo, hi = min(i, k), max(i, k)
    return GeneratorWord(n, tuple((J(r), 1) for r in range(lo, hi)))


# ---------------------------------------------------------------------------
# conjugation rewrite tables
# ---------------------------------------------------------------------------

_E_CONDITIONS = ("j!=k, i!=l", "j!=k, i==l", "j==k, i!=l", "j==k, i==l")
_J_CONDITIONS = (
    "i,j outside block", "i inside, j outside", "i outside, j inside", "i,j inside block",
)
# (family, sign, generator kind, condition); a family's index is its position
_CASE_FAMILIES = tuple(
    (f"E.{mid}.E-1" if sign == 1 else f"E-1.{mid}.E", sign, kind, cond)
    for kind, mid, conditions in (("E", "E2", _E_CONDITIONS), ("J", "J", _J_CONDITIONS))
    for sign in (1, -1)
    for cond in conditions
)


def _table_rewrite(e_letter: Letter, g_letter: Letter, n: int) -> tuple[int, list[Letter]]:
    """Case family and table word for e * g * e^-1, before verification.

    `e_letter` is E(i,j)^sign with sign +-1 and `g_letter` is E(k,l)^2 or
    J(k). The family index is the position in `_CASE_FAMILIES`: 8 for a J
    generator, plus 4 for sign -1, plus the condition, 2*(j==k) + (i==l)
    for E(k,l)^2 and (i in block) + 2*(j in block) for the block {k, k+1}
    of J(k). Only the family j==k, i==l needs a sign pair; it is written
    out as consecutive J flips.
    """
    esym, sign = e_letter
    gsym, gexp = g_letter
    for exp in (sign, gexp):
        if not isinstance(exp, int):
            raise ValueError(f"exponent {exp!r} is not an integer")
    if esym.kind != "E" or sign not in (1, -1):
        raise ValueError("conjugator must be an elementary letter with exponent +-1")
    i, j = esym.i, esym.j
    if gsym.kind == "E" and gexp == 2:
        k, l = gsym.i, gsym.j
        cond = 2 * (j == k) + (i == l)
        if cond == 0:
            letters = [(E(k, l), 2)]
        elif cond == 1:
            letters = [(E(k, l), 2), (E(k, j), -2 * sign)]
        elif cond == 2:
            letters = [(E(i, l), 2 * sign), (E(k, l), 2)]
        elif sign == 1:
            letters = [(E(i, k), 2), (E(k, i), -2), *jrange_expand(i, k, n).letters]
        else:
            letters = [*jrange_expand(k, i, n).letters, (E(k, i), -2), (E(i, k), 2)]
        return 4 * (sign == -1) + cond, letters
    if gsym.kind == "J" and gexp == 1:
        k = gsym.i
        i_in, j_in = i in (k, k + 1), j in (k, k + 1)
        if i_in == j_in:
            letters = [(J(k), 1)]
        else:
            e2 = (E(i, j), -2 if i_in else 2)
            letters = [(J(k), 1), e2] if i_in == (sign == 1) else [e2, (J(k), 1)]
        return 8 + 4 * (sign == -1) + i_in + 2 * j_in, letters
    raise ValueError("generator must be E(k,l)^2 or J(k)")


def search_congruence_word(target: IntMatrix, max_letters: int = 3) -> Optional[GeneratorWord]:
    """Breadth-first search for a short congruence word evaluating to target.

    Alphabet: E(p,q)^{+-2} for all p != q and J(r) for 1 <= r < n. Used as
    the repair path when a rewrite-table case fails verification, and small
    enough to be exhaustive for the short identities involved.
    """
    n = target.n
    alphabet: list[Letter] = [
        (E(p, q), e)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
        if p != q
        for e in (2, -2)
    ]
    alphabet.extend((J(r), 1) for r in range(1, n))
    goal = tuple(zip(*target.rows))
    start = tuple(tuple(int(r == c) for r in range(n)) for c in range(n))
    if start == goal:
        return GeneratorWord(n, ())
    # states are column tuples, extended by one letter with the word evaluator
    frontier: list[tuple[tuple, tuple[Letter, ...]]] = [(start, ())]
    seen = {start}
    for _ in range(max_letters):
        nxt = []
        for cols, letters in frontier:
            for letter in alphabet:
                new = list(cols)
                _apply_letters(new, (letter,), n)
                key = tuple(map(tuple, new))
                if key == goal:
                    return GeneratorWord(n, letters + (letter,))
                if key not in seen:
                    seen.add(key)
                    nxt.append((key, letters + (letter,)))
        frontier = nxt
    return None


def _conjugate_rewrite_checked(
    e_letter: Letter, g_letter: Letter, n: int
) -> tuple[int, GeneratorWord, bool]:
    """Case family, rewrite word, and whether the table entry needed repair."""
    case, letters = _table_rewrite(e_letter, g_letter, n)
    (esym, eexp), (gsym, gexp) = e_letter, g_letter
    target = _word_rows(n, (e_letter, g_letter, (esym, -eexp)))
    if _word_rows(n, letters) == target:
        return case, GeneratorWord(n, tuple(letters)), False
    repaired = search_congruence_word(IntMatrix(target))
    if repaired is None:
        raise AssertionError(
            f"no short congruence word found for {esym.token(eexp)} "
            f"conj {gsym.token(gexp)}"
        )
    return case, repaired, True


def conjugate_rewrite(e_letter: Letter, g_letter: Letter, n: int) -> GeneratorWord:
    """Congruence word equal to e * g * e^-1.

    `e_letter` is an elementary letter with exponent +-1 and `g_letter` is a
    congruence generator, either (E(k,l), 2) or (J(k), 1). The returned word
    is verified by exact multiplication before being returned.
    """
    return _conjugate_rewrite_checked(e_letter, g_letter, n)[1]


@record
class RewriteCaseReport:
    family: str
    sign: int
    generator_kind: str
    condition: str
    instances: int
    corrected: tuple[str, ...]

    @property
    def status(self) -> str:
        if not self.corrected:
            return "VERIFIED"
        return "CORRECTED(" + "; ".join(self.corrected) + ")"


def rewrite_table_audit(n: int) -> list[RewriteCaseReport]:
    """Verify all sixteen rewrite case families exhaustively in dimension n.

    The elementary-on-elementary families are all populated from n = 3 on;
    the sign-flip family with both indices outside the block first appears
    at n = 4 (its report simply counts zero instances below that).
    """
    if n < 3:
        raise ValueError("the audit needs n >= 3 to populate the case families")
    counts = [0] * 16
    corrected: list[list[str]] = [[] for _ in range(16)]
    gens = congruence_generators(n)  # the E(k,l)^2 letters, then the J(k)
    for sign in (1, -1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for gsym, gexp in gens:
                    case, word, repaired = _conjugate_rewrite_checked(
                        (E(i, j), sign), (gsym, gexp), n
                    )
                    counts[case] += 1
                    if repaired:
                        corrected[case].append(
                            f"E({i},{j})^{sign} on {gsym.token(gexp)} -> {word}"
                        )
    return [
        RewriteCaseReport(family, sign, gkind, cond, counts[idx], tuple(corrected[idx]))
        for idx, (family, sign, gkind, cond) in enumerate(_CASE_FAMILIES)
    ]


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def _round_div(x: int, m: int) -> int:
    """Nearest-integer quotient of x/m (positive-modulus ties round up)."""
    if m == 0:
        raise ZeroDivisionError("division by zero modulus")
    am = abs(m)
    q = (2 * x + am) // (2 * am)
    return q if m > 0 else -q


def _eliminate(a: IntMatrix, step: int) -> GeneratorWord:
    """Word for `a` from row elimination with multiples of `step` (2 or 1).

    The row operations L_1 .. L_k satisfy L_k .. L_1 a = D with D diagonal,
    so a = inv(L_1) .. inv(L_k) D and each inverse letter is pushed as soon
    as its operation is made; the letter cap bounds the loop itself.

    Below the diagonal, each iteration either subtracts the nearest multiple
    of step*pivot from the entry or, when that multiple is zero, reduces the
    pivot by the entry (a zero pivot, possible only with step 1, takes the
    entry's row). With step 2 the diagonal stays odd and the off-diagonal
    entries even, so every centered remainder is strict. Above the diagonal
    the +-1 pivots clear each entry in one step. The -1 entries of D pair
    up: as NEG at the front in dimension 2, as `jrange_expand` flips in
    congruence words of dimension >= 3, and as a squared quarter turn in
    elementary words.
    """
    n = a.n
    m = [list(row) for row in a.rows]
    builder = _Builder(n)

    def row_add(dst: int, src: int, t: int) -> None:
        m[dst] = [d + t * s for d, s in zip(m[dst], m[src])]
        builder.push(E(dst + 1, src + 1), -t)

    for c in range(n):
        for r in range(c + 1, n):
            while m[r][c] != 0:
                pivot = m[c][c]
                if pivot == 0:
                    row_add(c, r, 1)
                    continue
                q = _round_div(m[r][c], step * pivot)
                if q:
                    row_add(r, c, -step * q)
                else:
                    row_add(c, r, -step * _round_div(pivot, step * m[r][c]))
    for c in range(1, n):
        pivot = m[c][c]
        for r in range(c):
            e = m[r][c]
            if e:
                row_add(r, c, -e * pivot)  # pivot is +-1; e is even when step is 2
    negs = [i + 1 for i in range(n) if m[i][i] == -1]
    if len(negs) % 2:
        raise AssertionError("odd number of -1 pivots contradicts determinant 1")
    for i, k in zip(negs[::2], negs[1::2]):
        if step == 1:
            # a quarter turn in the (i,k) plane, squared, is the sign pair there
            quarter = [(E(k, i), 1), (E(i, k), -1), (E(k, i), 1)]
            builder.extend(quarter + quarter)
        elif n == 2:
            builder.letters.insert(0, (NEG, 1))  # central, so it may lead
        else:
            builder.extend(jrange_expand(i, k, n).letters)
    return builder.word()


def _verified(word: GeneratorWord, a: IntMatrix, kind: str) -> GeneratorWord:
    """`word` if it evaluates to `a`; otherwise AssertionError naming `kind`."""
    if _word_rows(a.n, word.letters) != a.rows:
        raise AssertionError(f"{kind} decomposition failed re-multiplication")
    return word


def decompose_gamma2(a: IntMatrix) -> GeneratorWord:
    """Write a level-2 congruence matrix of dimension 2 over {E^2, NEG}.

    Row elimination with even multiples (see `_eliminate`); a -1 diagonal
    left at the end becomes one NEG at the front of the word. The word is
    verified by exact re-multiplication before it is returned.
    """
    if a.n != 2:
        raise ValueError("this decomposition is for 2x2 matrices")
    if not in_congruence(a, 2):
        raise NotInGroupError("matrix is not in the level-2 congruence subgroup")
    return _verified(_eliminate(a, 2), a, "dimension-2")


def decompose_gamma_n(a: IntMatrix) -> GeneratorWord:
    """Write a level-2 congruence matrix (n >= 3) over {E^2, J}.

    Row elimination with even multiples (see `_eliminate`); pairs of -1
    diagonal entries left at the end become products of consecutive J
    flips. The word is verified by exact re-multiplication before it is
    returned.
    """
    if a.n < 3:
        raise ValueError("use decompose_gamma2 for dimension 2")
    if not in_congruence(a, 2):
        raise NotInGroupError("matrix is not in the level-2 congruence subgroup")
    return _verified(_eliminate(a, 2), a, "congruence")


def decompose_sln(a: IntMatrix) -> GeneratorWord:
    """Write any determinant-one matrix as a product of elementary letters.

    Row elimination with integer multiples (see `_eliminate`); pairs of -1
    diagonal entries left at the end become squared quarter turns. The word
    is verified by exact re-multiplication before it is returned.
    """
    if a.det() != 1:
        raise NotInGroupError("matrix must have determinant 1")
    return _verified(_eliminate(a, 1), a, "elementary")


# ---------------------------------------------------------------------------
# serialization and sampling
# ---------------------------------------------------------------------------

def word_to_str(word: GeneratorWord) -> str:
    return str(word)


def parse_word(text: str, n: int) -> GeneratorWord:
    """Parse the token format produced by word_to_str."""
    text = text.strip()
    if not text or text == "<empty>":
        return GeneratorWord(n, ())
    letters: list[Letter] = []
    for token in text.split():
        base, _, exp_part = token.partition("^")
        exp = 1
        if exp_part:
            try:
                exp = int(exp_part)
            except ValueError as exc:
                raise ValueError(f"bad exponent in token {token!r}") from exc
        letters.append((_parse_symbol(base, n), exp))
    return GeneratorWord(n, tuple(letters))


def _parse_symbol(base: str, n: int) -> GeneratorSymbol:
    if base == "TAU":
        return TAU
    if base == "NEG":
        return NEG
    if base.startswith("E(") and base.endswith(")"):
        i, j = _parse_index_pair(base[2:-1])
        return E(i, j)
    if base.startswith("JR(") and base.endswith(")"):
        i, j = _parse_index_pair(base[3:-1])
        return JR(i, j)
    if base.startswith("J(") and base.endswith(")"):
        return J(int(base[2:-1]))
    if base.startswith("P[") and base.endswith("]"):
        body = base[2:-1]
        cycles = []
        for chunk in body.split(")"):
            chunk = chunk.strip("(")
            if not chunk:
                continue
            cycles.append(tuple(int(x) for x in chunk.split(",") if x))
        return P(Permutation.from_cycles(n, cycles))
    raise ValueError(f"unrecognized token {base!r}")


def _parse_index_pair(body: str) -> tuple[int, int]:
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two indices in {body!r}")
    return int(parts[0]), int(parts[1])


def congruence_generators(n: int) -> list[Letter]:
    """Generating letters of the level-2 congruence subgroup in dimension n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n == 2:
        return [(E(1, 2), 2), (E(2, 1), 2), (NEG, 1)]
    gens: list[Letter] = [
        (E(i, j), 2) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    gens.extend((J(i), 1) for i in range(1, n))
    return gens


def random_congruence_word(
    n: int, rng: random.Random, max_letters: int = 30, min_letters: int = 1
) -> GeneratorWord:
    """Uniform letters from congruence_generators with random +-1 direction."""
    gens = congruence_generators(n)
    length = rng.randint(min_letters, max_letters)
    letters = []
    for _ in range(length):
        sym, exp = rng.choice(gens)
        if rng.random() < 0.5:
            exp = -exp
        letters.append((sym, exp))
    return GeneratorWord(n, tuple(letters))
