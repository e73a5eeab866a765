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
and an `IntMatrix` is built only for a caller that asks for one. Records
check each letter once, when built; evaluation checks only the dimension.
`_eliminate` likewise adds its rows in place, in lists of its own.

`GeneratorWord._trusted` wraps letters without re-checking them, and only
`_eliminate` calls it: the elimination forms nonzero int exponents and
takes its symbols from this module (E from `_e_symbols`, J from
`jrange_expand`, NEG), so the check could only pass. Skipping it weakens no
check on a result: `_verified` still evaluates every decomposition's word
against its input before the word is returned.

Three bounded caches keep repeated work out of the hot path: `E` (1024
letters), `_e_symbols` (the E letters of 8 dimensions, indexed as the
elimination's steps name them) and `_parse_symbol` (1024 tokens, under
2 MB up to n = 100); the identity's rows come from `intmat`'s cache and
are copied into fresh lists on each evaluation. Each holds immutable
values only; a `Permutation` refuses assignment, so a cached P letter
cannot change.

The conjugation rewrite tables below (pushing an elementary letter across
a congruence generator) are not taken on faith: on each call the table
word and e * g * e^-1 are evaluated to rows and compared, and a wrong
table entry raises AssertionError; nothing searches for a word in its
place. One function, `_table_rewrite`, decides each case's family and
word; the family index is the position in `_CASE_FAMILIES`, and
`rewrite_table_audit` checks every case and counts each family's cases in
that order.

Of the package, this module imports `intmat`, `permutation` and
`subgroups`, all at the top; no exact-core module imports it. `random_sln`
lives here, with the `E` letters it draws and the evaluator that
multiplies them.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Iterable, Optional

from ._record import record
from .intmat import IntMatrix, WordLengthError, _identity_rows
from .permutation import Permutation
from .subgroups import NotInGroupError, _congruence_failure

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


# reused by parsed tokens, rewrite tables, their audit, congruence_generators, random_sln
@functools.lru_cache(maxsize=1024)
def E(i: int, j: int) -> GeneratorSymbol:
    return GeneratorSymbol("E", i, j)


def J(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("J", i)


def JR(i: int, k: int) -> GeneratorSymbol:
    return GeneratorSymbol("JR", i, k)


TAU = GeneratorSymbol("TAU")
NEG = GeneratorSymbol("NEG")


def P(sigma: Permutation) -> GeneratorSymbol:
    return GeneratorSymbol("P", sigma=sigma)


Letter = tuple[GeneratorSymbol, int]


def _word_rows(n: int, letters: Iterable[Letter]) -> tuple[tuple[int, ...], ...]:
    """Rows of the product of `letters` in dimension n, evaluated exactly.

    Fresh lists of the identity's columns (its rows: it is symmetric) are
    right-multiplied by each letter in turn. A letter whose indices do not
    fit in dimension n raises ValueError.
    """
    cols = list(map(list, _identity_rows(n)))
    for sym, exp in letters:
        kind = sym.kind
        if kind == "E":
            i, j = sym.i, sym.j
            if i > n or j > n:
                raise ValueError(f"E({i},{j}) does not fit in dimension {n}")
            # E(i,j)^t adds t * column i to column j, in place: no two
            # columns are one list, since TAU and the flips build new lists
            # and P only moves the lists it has
            dst, src = cols[j - 1], cols[i - 1]
            for k in range(n):
                dst[k] += exp * src[k]
        elif kind == "TAU":
            if n < 2:
                raise ValueError("tau requires n >= 2")
            for _ in range(exp % 4):
                cols[0], cols[1] = cols[1], [-x for x in cols[0]]
        elif kind == "P":
            sigma = sym.sigma
            if sigma.n != n:
                raise ValueError(f"permutation acts on {sigma.n} points, not {n}")
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
    return tuple(zip(*cols))


def symbol_matrix(sym: GeneratorSymbol, n: int) -> IntMatrix:
    """Exact matrix of a letter in dimension n; validates index ranges."""
    return IntMatrix._trusted(_word_rows(n, ((sym, 1),)))


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

    @classmethod
    def _trusted(cls, n: int, letters: tuple[Letter, ...]) -> "GeneratorWord":
        """Wrap `letters` as is, without `__post_init__`'s letter check. See the
        module docstring for who may call it."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        return self

    def __len__(self) -> int:
        return len(self.letters)

    def matrix(self) -> IntMatrix:
        return IntMatrix._trusted(_word_rows(self.n, self.letters))

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


# 8 dimensions (n = 1..8 fit) of n^2 references and n(n-1) letters: 9 KB at
# n = 8, 0.7 MB at n = 100 (tracemalloc). Built apart from `E`, so that a
# large n does not evict `E`'s cached letters.
@functools.lru_cache(maxsize=8)
def _e_symbols(n: int) -> tuple[Optional[GeneratorSymbol], ...]:
    """E(dst+1, src+1) at index dst*n + src, None on the diagonal."""
    return tuple(
        GeneratorSymbol("E", d + 1, s + 1) if d != s else None
        for d in range(n) for s in range(n)
    )


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


def _checked_rewrite(e_letter: Letter, g_letter: Letter, n: int) -> tuple[int, list[Letter]]:
    """`_table_rewrite`'s family and word, once the word evaluates to e * g * e^-1.

    A table word that evaluates to anything else raises AssertionError.
    """
    case, letters = _table_rewrite(e_letter, g_letter, n)
    (esym, eexp), (gsym, gexp) = e_letter, g_letter
    target = _word_rows(n, (e_letter, g_letter, (esym, -eexp)))
    if _word_rows(n, letters) != target:
        raise AssertionError(
            f"rewrite table family {case} ({_CASE_FAMILIES[case][0]}) is wrong "
            f"for {esym.token(eexp)} conj {gsym.token(gexp)}"
        )
    return case, letters


def conjugate_rewrite(e_letter: Letter, g_letter: Letter, n: int) -> GeneratorWord:
    """Congruence word equal to e * g * e^-1.

    `e_letter` is an elementary letter with exponent +-1 and `g_letter` is a
    congruence generator, either (E(k,l), 2) or (J(k), 1). Both letters must
    pass `GeneratorWord`'s letter rule. The table word is verified by exact
    evaluation before it is returned; a wrong table entry raises
    AssertionError, and nothing searches for a word in its place.
    """
    GeneratorWord(n, (e_letter, g_letter))
    return GeneratorWord(n, tuple(_checked_rewrite(e_letter, g_letter, n)[1]))


# The audit checks 2n(n-1)^2(n+1) cases at O(n) each, so its time grows as
# n^5: 8.2 s at n = 16 on one Intel Xeon core, and about a day at n = 100.
_AUDIT_MAX_N = 16
_AUDIT_SECONDS_AT_MAX_N = 8.2


@record
class RewriteCaseReport:
    family: str
    sign: int
    generator_kind: str
    condition: str
    instances: int
    corrected: tuple[str, ...]  # always (): the audit raises on a wrong entry

    @property
    def status(self) -> str:
        if not self.corrected:
            return "VERIFIED"
        return "CORRECTED(" + "; ".join(self.corrected) + ")"


def rewrite_table_audit(n: int) -> list[RewriteCaseReport]:
    """Verify all sixteen rewrite case families exhaustively in dimension n.

    A wrong table entry raises AssertionError. The elementary-on-elementary
    families are all populated from n = 3 on; the sign-flip family with both
    indices outside the block first appears at n = 4 (its report simply
    counts zero instances below that). Past n = 16 the audit is refused with
    a ValueError that states its estimated time, before any case is checked.
    """
    if n < 3:
        raise ValueError("the audit needs n >= 3 to populate the case families")
    if n > _AUDIT_MAX_N:
        seconds = _AUDIT_SECONDS_AT_MAX_N * (n / _AUDIT_MAX_N) ** 5
        raise ValueError(
            f"an audit at n = {n} would take about {seconds:.2g} s (it grows as "
            f"n^5 from {_AUDIT_SECONDS_AT_MAX_N:g} s at n = {_AUDIT_MAX_N}); "
            f"the cap is n = {_AUDIT_MAX_N}"
        )
    counts = [0] * 16
    gens = congruence_generators(n)  # the E(k,l)^2 letters, then the J(k)
    for sign in (1, -1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for g_letter in gens:
                    counts[_checked_rewrite((E(i, j), sign), g_letter, n)[0]] += 1
    return [
        RewriteCaseReport(family, sign, gkind, cond, counts[idx], ())
        for idx, (family, sign, gkind, cond) in enumerate(_CASE_FAMILIES)
    ]


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def _eliminate(a: IntMatrix, step: int) -> GeneratorWord:
    """Word for `a` from row elimination with multiples of `step` (2 or 1).

    The row operations L_1 .. L_k satisfy L_k .. L_1 a = D with D diagonal,
    so a = inv(L_1) .. inv(L_k) D and each inverse letter is pushed as soon
    as its operation is made; the letter cap bounds the loop itself.

    Below the diagonal, each iteration either subtracts the nearest multiple
    of step*pivot from the entry or, when that multiple is zero, reduces the
    pivot by the entry (a zero pivot, possible only with step 1, takes the
    entry's row). With step 2 this needs a = I mod 2: the diagonal then
    stays odd and the off-diagonal entries even, so every centered remainder
    is strict and every multiple nonzero. Other input may spin without a
    letter, as [[2,1],[1,1]] does, so with step 2 the engine first refuses
    it with NotInGroupError and `_congruence_failure`'s text.

    Row additions keep the determinant, so once the entries below the
    diagonal are cleared, det(a) is the product of the diagonal. Unless it
    is 1 the elimination stops there with NotInGroupError("determinant is
    d, need 1"); otherwise every pivot is +-1 and those above the
    diagonal clear each entry in one step. The -1 entries of D pair up: as
    NEG at the front in dimension 2, as `jrange_expand` flips in congruence
    words of dimension >= 3, and as a squared quarter turn in elementary
    words.

    Every letter goes through one `push`: on the last letter's symbol it
    adds its exponent there and drops the pair at sum zero, else it is
    appended and the cap checked, so the cap bounds the merged word; a cap
    that trips refuses det(a) != 1 first, so no cap changes a refusal. E
    symbols all come from `_e_symbols(n)`, so `is` decides equality; no J
    flip equals the letter before it.
    """
    if step == 2:
        failure = _congruence_failure(a, 2)
        if failure:
            raise NotInGroupError(failure)
    n = a.n
    m = [list(row) for row in a.rows]  # distinct rows, each its own list
    syms = _e_symbols(n)
    cap = WORD_LETTER_CAP  # looked up per call, not at import
    letters: list[Letter] = []

    def refuse(det: int) -> None:
        if det != 1:
            raise NotInGroupError(f"determinant is {det}, need 1")

    def push(sym: GeneratorSymbol, exp: int) -> None:
        # exp is never 0: the gate keeps the lower phase's t nonzero, the upper tests t
        if letters and letters[-1][0] is sym:
            merged = letters[-1][1] + exp
            if merged:
                letters[-1] = (sym, merged)
            else:
                letters.pop()
        else:
            letters.append((sym, exp))
            if len(letters) > cap:
                refuse(a.det())
                raise WordLengthError(f"word exceeded {cap} letters")

    # Each step adds t times row `src` to row `dst` and pushes the inverse
    # letter E(dst+1, src+1)^-t. Rows c.. are zero left of column c, so the
    # additions start there.
    for c in range(n):
        top = m[c]
        for r in range(c + 1, n):
            row = m[r]
            while row[c]:
                pivot, x = top[c], row[c]
                if pivot == 0:
                    dst, src, sym, t = top, row, syms[c * n + r], 1
                else:
                    # nearest quotients; ties round up for a positive divisor
                    d = abs(step * pivot)
                    q = (2 * x + d) // (2 * d)
                    if q:
                        dst, src, sym, t = row, top, syms[r * n + c], -step * (q if pivot > 0 else -q)
                    else:
                        d = abs(step * x)
                        q = (2 * pivot + d) // (2 * d)
                        t = -step * (q if x > 0 else -q)
                        dst, src, sym = top, row, syms[c * n + r]
                for k in range(c, n):
                    dst[k] += t * src[k]
                push(sym, -t)
    refuse(math.prod(m[c][c] for c in range(n)))
    for c in range(1, n):
        src = m[c]
        pivot = src[c]
        for r in range(c):
            dst = m[r]
            t = -dst[c] * pivot  # pivot is +-1; the entry is even when step is 2
            if t:
                for k in range(c, n):
                    dst[k] += t * src[k]
                push(syms[r * n + c], -t)
    negs = [i for i in range(n) if m[i][i] == -1]
    for i, k in zip(negs[::2], negs[1::2]):
        if step == 1:
            # a quarter turn in the (i,k) plane, squared, is the sign pair there
            ki, ik = syms[k * n + i], syms[i * n + k]
            for sym, exp in 2 * ((ki, 1), (ik, -1), (ki, 1)):
                push(sym, exp)
        elif n == 2:
            push(NEG, 1)
            letters.insert(0, letters.pop())  # central, so it may lead
        else:
            for sym, exp in jrange_expand(i + 1, k + 1, n).letters:
                push(sym, exp)
    # every exponent is a nonzero int and every symbol the library's own
    return GeneratorWord._trusted(n, tuple(letters))


def _verified(word: GeneratorWord, a: IntMatrix, kind: str) -> GeneratorWord:
    """`word` if it evaluates to `a`; otherwise AssertionError naming `kind`."""
    if _word_rows(a.n, word.letters) != a.rows:
        raise AssertionError(f"{kind} decomposition failed re-multiplication")
    return word


def decompose_gamma2(a: IntMatrix) -> GeneratorWord:
    """Write a level-2 congruence matrix of dimension 2 over {E^2, NEG}.

    Row elimination with even multiples (see `_eliminate`); a -1 diagonal
    left at the end becomes one NEG at the front of the word. The word is
    verified by exact re-multiplication before it is returned. Raises
    ValueError("this decomposition is for 2x2 matrices") for n != 2, and
    NotInGroupError("determinant is d, need 1" or "not congruent to the
    identity mod 2") off the subgroup.
    """
    if a.n != 2:
        raise ValueError("this decomposition is for 2x2 matrices")
    return _verified(_eliminate(a, 2), a, "dimension-2")


def decompose_gamma_n(a: IntMatrix) -> GeneratorWord:
    """Write a level-2 congruence matrix (n >= 3) over {E^2, J}.

    Row elimination with even multiples (see `_eliminate`); pairs of -1
    diagonal entries left at the end become products of consecutive J
    flips. The word is verified by exact re-multiplication before it is
    returned. Raises ValueError("this decomposition is for n >= 3") for
    n < 3, and NotInGroupError("determinant is d, need 1" or "not congruent
    to the identity mod 2") off the subgroup.
    """
    if a.n < 3:
        raise ValueError("this decomposition is for n >= 3")
    return _verified(_eliminate(a, 2), a, "congruence")


def decompose_sln(a: IntMatrix) -> GeneratorWord:
    """Write any determinant-one matrix as a product of elementary letters.

    Row elimination with integer multiples (see `_eliminate`); pairs of -1
    diagonal entries left at the end become squared quarter turns. The word
    is verified by exact re-multiplication before it is returned. Raises
    NotInGroupError("determinant is d, need 1") for det(a) = d != 1.
    """
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
        base, caret, exp_part = token.partition("^")
        exp = 1
        if caret:  # a bare ^ is a bad exponent, not ^1
            try:
                exp = int(exp_part)
            except ValueError as exc:
                raise ValueError(f"bad exponent in token {token!r}") from exc
        letters.append((_parse_symbol(base, n), exp))
    return GeneratorWord(n, tuple(letters))


# A bad token raises and is not cached; typed, so that n = 3.0 is not served
# n = 3's entry. An entry keeps a token and its symbol, and a P[...] token a
# Permutation of n points: about 0.6 KB at n = 8 and 1.9 KB at n = 100
# (tracemalloc), so the 1024 entries stay under 2 MB up to n = 100.
@functools.lru_cache(maxsize=1024, typed=True)
def _parse_symbol(base: str, n: int) -> GeneratorSymbol:
    if base == "TAU":
        return TAU
    if base == "NEG":
        return NEG
    if base.startswith("E(") and base.endswith(")"):
        return E(*_parse_index_pair(base, base[2:-1]))
    if base.startswith("JR(") and base.endswith(")"):
        return JR(*_parse_index_pair(base, base[3:-1]))
    if base.startswith("J(") and base.endswith(")"):
        return J(*_parse_ints(base, "index", [base[2:-1]]))
    if base.startswith("P[") and base.endswith("]"):
        body = base[2:-1]
        cycles = []
        for chunk in body.split(")"):
            chunk = chunk.strip("(")
            if not chunk:
                continue
            cycles.append(_parse_ints(base, "cycle point", [x for x in chunk.split(",") if x]))
        return P(Permutation.from_cycles(n, cycles))
    raise ValueError(f"unrecognized token {base!r}")


def _parse_index_pair(base: str, body: str) -> tuple[int, ...]:
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two indices in {body!r}")
    return _parse_ints(base, "index", parts)


def _parse_ints(base: str, what: str, texts: list[str]) -> tuple[int, ...]:
    """`texts` as ints; one that is not an integer raises ValueError naming the token."""
    try:
        return tuple(int(x) for x in texts)
    except ValueError as exc:
        raise ValueError(f"bad {what} in token {base!r}") from exc


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


def random_sln(n: int, rng: random.Random, min_letters: int = 20, max_letters: int = 50) -> IntMatrix:
    """Random element of SL_n(Z): a product of 20..50 uniform elementary matrices.

    The letters E(i,j)^+-1 are drawn first and then evaluated by the word
    evaluator, at O(n) per letter. Pass a seeded random.Random for
    reproducibility.
    """
    if n < 2:
        return IntMatrix.identity(max(n, 1))
    letters = []
    for _ in range(rng.randint(min_letters, max_letters)):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        letters.append((E(i + 1, j + 1), rng.choice((1, -1))))
    return IntMatrix._trusted(_word_rows(n, letters))
