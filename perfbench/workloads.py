"""The four seeded workloads and the metrics each one names.

Each `summarize_*` takes the operations' records `(kind, seconds, ok,
known_defect, work)`, the pass times and the workload's counters.

`prepare(name, seed)` builds a workload's inputs from the seed alone and
returns the list of operations of one pass; each operation calls into
spheremat through the tracer and checks the result with `oracle`. Every
pass runs the same operations on the same inputs, so a pass's output
digest and failure count repeat exactly for a seed.

Which layer each workload stresses, and which it bypasses:

* exact     words and intmat (decompositions, word evaluation, det, inverse),
            plus subgroups, obstruction and permutation; no finitegrp, spheres
            or ledger calls.
* groups    finitegrp: a build phase of BFS enumerations, then queries against
            the built tables; no words calls.
* numerics  spheres (degree estimates, torus windings) plus the ledger; the
            only workload where spheres dominates.
* cli       whole `python -m spheremat.cli` processes, where interpreter start
            and imports dominate; the benchmark process imports no spheremat.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracle as orc
from oracle import expect
from tracing import latency_summary

WORKLOADS = ("exact", "groups", "numerics", "cli")

# How strongly each workload's latencies follow the calibration kernel's
# time when the host changes speed: the slope of log latency against log
# kernel time, fitted over ten runs per workload on a shared 2-vCPU virtual
# machine whose speed swings by about 40 %. Pure-Python arithmetic follows it
# closely; memory-heavy enumeration and process start-up only in part.
SPEED_SENSITIVITY = {"exact": 0.9, "groups": 0.6, "numerics": 0.8, "cli": 0.4}


@dataclass
class Op:
    """One checked call sequence. `run(tracer)` returns (output text, work)."""

    kind: str
    layer: str  # the layer blamed when the check fails
    run: Callable
    known_defect: bool = False


@dataclass
class Workload:
    ops: list[Op]
    stats: dict = field(default_factory=dict)


def prepare(name: str, seed: int) -> Workload:
    return {
        "exact": prepare_exact,
        "groups": prepare_groups,
        "numerics": prepare_numerics,
        "cli": prepare_cli,
    }[name](seed)


def _rows(matrix) -> list[list[int]]:
    return [list(r) for r in matrix.rows]


def _letters(word):
    return [
        (s.kind, s.i, s.j, s.sigma.images if s.sigma is not None else None, e)
        for s, e in word.letters
    ]


# ---------------------------------------------------------------------------
# exact: words, intmat, subgroups, obstruction, permutation
# ---------------------------------------------------------------------------

# (kind, dimensions, tasks per dimension, longest word per dimension)
EXACT_MIX = (
    ("decompose_gamma2", (2,), 48, {2: 300}),
    ("decompose_gamma_n", (3, 4, 5, 6), 12, {3: 150, 4: 60, 5: 30, 6: 16}),
    ("decompose_sln", (2, 3, 4, 5, 6, 7, 8), 8, {2: 300, 3: 200, 4: 100, 5: 50, 6: 30, 7: 20, 8: 14}),
    ("eval_word", (2, 3, 4, 5, 6, 7, 8), 6, {2: 300, 3: 300, 4: 200, 5: 150, 6: 100, 7: 80, 8: 60}),
    ("det", (2, 3, 4, 5, 6, 7, 8), 8, None),
    ("inverse", (2, 3, 4, 5, 6, 7, 8), 4, None),
    ("coset", (2, 3, 4, 5, 6, 7, 8), 4, None),
    ("member", (2, 3, 4, 5, 6, 7, 8), 12, None),
    ("classify", (2, 3, 4, 5, 6, 7, 8), 8, None),
    ("hyperbolic", (2,), 28, None),
    ("permutation", (2, 3, 4, 5, 6, 7, 8), 4, None),
    ("audit", (4,), 1, None),
)

_GAMMA2 = {("E", True), "NEG"}
_GAMMA_N = {("E", True), "J"}
_SLN = {("E", True), ("E", False)}


def prepare_exact(seed: int) -> Workload:
    import spheremat as sm

    rng = random.Random(seed)
    stats = {"letters": [], "rewrite_repairs": []}
    ops: list[Op] = []

    def decompose(kind, fn, n, target, alphabet):
        a = sm.IntMatrix(target)

        def run(tr):
            letters = _letters(tr.call("words", kind, fn, a))
            expect(orc.letter_kinds(letters) <= alphabet, f"{kind}: letters outside the alphabet")
            expect(orc.evaluate(letters, n) == target, f"{kind}: word does not evaluate to the input")
            stats["letters"].append(len(letters))
            return orc.word_text(letters), len(letters)

        return Op(kind, "words", run)

    def eval_word(n, word):
        text, want = orc.word_text(word), orc.evaluate(word, n)

        def run(tr):
            parsed = tr.call("words", "parse_word", sm.parse_word, text, n)
            got = _rows(tr.call("words", "matrix", parsed.matrix))
            expect(got == want, "parsed word evaluates to the wrong matrix")
            return repr(got), len(word)

        return Op("eval_word", "words", run)

    def det_op(n, rows):
        a, want = sm.IntMatrix(rows), orc.det(rows)

        def run(tr):
            got = tr.call("intmat", "det", a.det)
            expect(got == want, "wrong determinant")
            return str(got), 1

        return Op("det", "intmat", run)

    def inverse_op(n, rows):
        a = sm.IntMatrix(rows)

        def run(tr):
            inv = _rows(tr.call("intmat", "inverse_unimodular", a.inverse_unimodular))
            expect(orc.matmul(rows, inv) == orc.identity(n), "inverse does not invert")
            return repr(inv), 1

        return Op("inverse", "intmat", run)

    def coset_op(n, rows):
        a = sm.IntMatrix(rows)

        def run(tr):
            cert = tr.call("subgroups", "coset_certificate", sm.coset_certificate, a)
            sigma, residual = cert.sigma.images, _rows(cert.residual)
            lead = orc.tau(n) if cert.uses_tau else orc.identity(n)
            expect(orc.perm_parity(sigma) == 1, "certificate permutation is odd")
            expect(orc.det(residual) == 1, "residual determinant is not 1")
            expect(
                all((x - (r == c)) % 2 == 0 for r, row in enumerate(residual) for c, x in enumerate(row)),
                "residual is not congruent to the identity mod 2",
            )
            recon = orc.matmul(orc.matmul(lead, orc.perm_matrix(sigma)), residual)
            expect(recon == rows, "certificate does not reconstruct the input")
            return f"{cert.uses_tau} {sigma} {residual}", 1

        return Op("coset", "subgroups", run)

    def member_op(n, rows, which):
        a, d = sm.IntMatrix(rows), orc.det(rows)
        mod2_perm = orc.is_mod2_permutation(rows)
        if which == "w2":
            fn, name, args, want = sm.in_W2, "in_W2", (a,), d == 1 and mod2_perm
        elif which.startswith("gamma"):
            m = int(which[5:])
            want = d == 1 and all(
                (x - (r == c)) % m == 0 for r, row in enumerate(rows) for c, x in enumerate(row)
            )
            fn, name, args = sm.in_congruence, "in_congruence", (a, m)
        else:
            want = {
                "hopf": d in (1, -1),
                "odd_generic": d in (1, -1) and mod2_perm,
                "even": orc.is_signed_permutation(rows),
            }[which]

            def fn(a, k_class=which):
                return sm.hR_member(a, k_class).member

            name, args = "hR_member", (a,)

        def run(tr):
            got = tr.call("subgroups", name, fn, *args)
            expect(got == want, f"{name} verdict is wrong")
            return f"{name} {got}", 1

        return Op("member", "subgroups", run)

    def classify_op(n, rows, k_class):
        a = sm.IntMatrix(rows)
        want = {
            "hopf": True,
            "odd_generic": orc.is_mod2_permutation(rows),
            "even": orc.is_signed_permutation(rows),
        }[k_class]

        def run(tr):
            verdict = tr.call("obstruction", "classify", sm.classify, a, k_class)
            expect(verdict.realizable == want, "wrong realizability verdict")
            expect(bool(verdict.violations) != want, "violations disagree with the verdict")
            return f"{verdict.realizable} {verdict.violations}", 1

        return Op("classify", "obstruction", run)

    def hyperbolic_op(rows):
        a, want = sm.IntMatrix(rows), abs(rows[0][0] + rows[1][1]) > 2

        def run(tr):
            got = tr.call("intmat", "hyperbolic_check", sm.hyperbolic_check, a)
            expect(got == want, "wrong hyperbolicity verdict")
            return str(got), 1

        return Op("hyperbolic", "intmat", run)

    def permutation_op(n, images):
        cycles = orc.cycles(images)
        want_sign = orc.perm_parity(images)

        def run(tr):
            p = tr.call("permutation", "from_cycles", sm.Permutation.from_cycles, n, cycles)
            sign = tr.call("permutation", "sign", p.sign)
            expect(p.images == images and sign == want_sign, "wrong permutation or sign")
            return f"{p.images} {sign}", 1

        return Op("permutation", "permutation", run)

    def audit_op(n):
        pairs = n * (n - 1)
        want_instances = 2 * pairs * pairs + 2 * pairs * (n - 1)

        def run(tr):
            reports = tr.call("words", "rewrite_table_audit", sm.rewrite_table_audit, n)
            expect(len(reports) == 16, "audit must cover sixteen case families")
            expect(sum(r.instances for r in reports) == want_instances, "audit missed instances")
            repairs = sum(len(r.corrected) for r in reports)
            stats["rewrite_repairs"].append(repairs)
            return f"{[r.instances for r in reports]} {repairs}", 1

        return Op("audit", "words", run)

    def conjugated_congruence(n, length):
        # u g u^-1 with g in the level-2 subgroup, as in acceptance criterion 3
        g = orc.evaluate(orc.congruence_word(rng, n, length), n)
        u = orc.sl_word(rng, n, 8)
        return orc.matmul(orc.matmul(orc.evaluate(u, n), g), orc.evaluate(orc.invert_word(u), n))

    def unimodular(n, length):
        rows = orc.typical([orc.evaluate(orc.sl_word(rng, n, length), n) for _ in range(3)])
        if rng.random() < 0.3:
            rows[0] = [-x for x in rows[0]]
        return rows

    def signed_perm_times_congruence(n, length):
        images = orc.random_permutation(rng, n)
        p = orc.perm_matrix(images)
        if orc.perm_parity(images) < 0:
            p[0] = [-x for x in p[0]]
        return orc.matmul(p, orc.evaluate(orc.congruence_word(rng, n, length), n))

    def member_input(n, t):
        choice = t % 5
        length = 2 + t % 11
        if choice == 0:
            return signed_perm_times_congruence(n, length)
        if choice == 1:
            m = rng.choice((2, 3, 4))
            word = [(k, i, j, img, e * m // 2 if k == "E" else e)
                    for k, i, j, img, e in orc.congruence_word(rng, n, length)]
            return orc.evaluate(word, n)
        if choice == 2:
            rows = orc.perm_matrix(orc.random_permutation(rng, n))
            return [[-x for x in row] if rng.random() < 0.5 else row for row in rows]
        rows = orc.evaluate(orc.sl_word(rng, n, length), n)
        if choice == 4:
            rows[0] = [2 * x for x in rows[0]]  # determinant 2
        return rows

    member_kinds = ("w2", "gamma2", "gamma3", "gamma4", "hopf", "odd_generic", "even")
    for kind, dims, per_dim, caps in EXACT_MIX:
        for n in dims:
            lengths = orc.grid_lengths(per_dim, 3, caps[n]) if caps else [0] * per_dim
            for t, length in enumerate(lengths):
                if kind == "decompose_gamma2":
                    target = orc.typical([orc.evaluate(orc.congruence_word(rng, 2, length), 2)
                                          for _ in range(5)])
                    ops.append(decompose(kind, sm.decompose_gamma2, 2, target, _GAMMA2))
                elif kind == "decompose_gamma_n":
                    target = orc.typical([conjugated_congruence(n, length) for _ in range(5)])
                    ops.append(decompose(kind, sm.decompose_gamma_n, n, target, _GAMMA_N))
                elif kind == "decompose_sln":
                    target = orc.typical([orc.evaluate(orc.sl_word(rng, n, length), n)
                                          for _ in range(5)])
                    ops.append(decompose(kind, sm.decompose_sln, n, target, _SLN))
                elif kind == "eval_word":
                    ops.append(eval_word(n, orc.mixed_word(rng, n, length)))
                elif kind == "det":
                    if t % 2:
                        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                    else:
                        rows = unimodular(n, 5 + 10 * (t % 4))
                    ops.append(det_op(n, rows))
                elif kind == "inverse":
                    ops.append(inverse_op(n, unimodular(n, 5 + 8 * t)))
                elif kind == "coset":
                    ops.append(coset_op(n, signed_perm_times_congruence(n, 2 + 6 * t)))
                elif kind == "member":
                    which = member_kinds[(t + n) % len(member_kinds)]
                    ops.append(member_op(n, member_input(n, t), which))
                elif kind == "classify":
                    k_class = ("odd_generic", "even", "hopf")[t % 3]
                    rows = (
                        unimodular(n, 2 + 3 * (t % 4))
                        if t % 2
                        else signed_perm_times_congruence(n, t % 4)
                    )
                    ops.append(classify_op(n, rows, k_class))
                elif kind == "hyperbolic":
                    trace = (t % 12) - 4  # traces -4..7 cover elliptic, parabolic, hyperbolic
                    base = [[trace, -1], [1, 0]]
                    u = orc.sl_word(rng, 2, 1 + t % 8)
                    rows = orc.matmul(
                        orc.matmul(orc.evaluate(u, 2), base), orc.evaluate(orc.invert_word(u), 2)
                    )
                    ops.append(hyperbolic_op(rows))
                elif kind == "permutation":
                    ops.append(permutation_op(n, orc.random_permutation(rng, n)))
                else:
                    ops.append(audit_op(n))
    rng.shuffle(ops)
    return Workload(ops, stats)


def summarize_exact(records, pass_s, stats) -> dict:
    decompose = [r[1] for r in records if r[0].startswith("decompose")]
    evals = [r[1] for r in records if r[0] == "eval_word"]
    lat = latency_summary(decompose)
    return {
        "exact_ops_per_s": (len(records) / sum(r[1] for r in records), "1/s"),
        "decompose_p50_ms": (lat["p50_ms"], "ms"),
        "decompose_tail_ms": (lat["tail_ms"], "ms"),
        "decompose_tail_pct": (lat["tail_pct"], "%"),
        "decompose_count": (lat["count"], "count"),
        "word_evals_per_s": (len(evals) / sum(evals), "1/s"),
    }


# ---------------------------------------------------------------------------
# groups: finitegrp build phase, then queries against the built tables
# ---------------------------------------------------------------------------

# SL_n(Z_m) built each pass, smallest first; the last three are the
# enumeration baselines of the ROADMAP.
GROUP_BUILDS = ((2, 4), (2, 5), (3, 2), (2, 7), (2, 8), (2, 9), (2, 11), (3, 3), (2, 31), (3, 4))
LOOKUPS = 2_540
# share of the lookups per table: the large tables get most of them
LOOKUP_WEIGHTS = {(3, 4): 8, (2, 31): 6, (3, 3): 4, (2, 11): 1, (2, 9): 1}
# The classes of SL_2(Z_11) are queried forty times. With 2600 operations a
# pass the tail is a p99, the 27th-slowest operation; only six are slower than
# these queries, so the tail sits mid-cluster instead of between unlike ones.
CLASS_GROUPS = ((2, 4), (2, 5), (2, 7), (3, 2)) + ((2, 11),) * 40
NORMAL_GROUPS = ((2, 4), (2, 5))
POWER_CASES = (((2, 4), 2), ((2, 4), 3), ((2, 5), 2), ((2, 5), 3))


def prepare_groups(seed: int) -> Workload:
    import spheremat as sm

    rng = random.Random(seed)
    tables: dict = {}
    stats = {"classes": {}, "normal_found": {}}
    gens_rows: dict = {}
    ops: list[Op] = []

    for n, m in GROUP_BUILDS:
        # conjugating the elementary generators by a seeded h keeps the group SL_n(Z_m)
        h, h_inv = orc.residue_sl_element(rng, n, m)
        pairs = []
        for e in orc.elementary_residues(n, m):
            e_inv = [[(-x if r != c else x) % m for c, x in enumerate(row)] for r, row in enumerate(e)]
            pairs.append((orc.matmul(orc.matmul(h, e, m), h_inv, m), orc.matmul(orc.matmul(h, e_inv, m), h_inv, m)))
        rng.shuffle(pairs)
        gens_rows[n, m] = pairs
        ops.append(_build_op(sm, n, m, [sm.ResidueMatrix(g, m) for g, _ in pairs], tables))

    query_ops: list[Op] = []
    keys = [k for k, w in LOOKUP_WEIGHTS.items() for _ in range(w)]
    for q in range(LOOKUPS):
        n, m = keys[q % len(keys)]
        x, _ = orc.residue_sl_element(rng, n, m, letters=8)
        inside = q % 2 == 0
        if not inside:  # scaling the first row by d != 1 gives determinant d
            d = rng.choice([r for r in range(m) if r != 1])
            x[0] = [v * d % m for v in x[0]]
        query_ops.append(_lookup_op((n, m), sm.ResidueMatrix(x, m), inside, tables))
    for key in CLASS_GROUPS:
        query_ops.append(_classes_op(sm, key, gens_rows[key], tables, stats))
    for key in NORMAL_GROUPS:
        query_ops.append(_normal_op(sm, key, gens_rows[key], tables, stats))
    for key, t in POWER_CASES:
        samples = [orc.residue_sl_element(rng, *key)[0] for _ in range(8)]
        query_ops.append(_power_op(sm, key, t, samples, gens_rows[key], tables))
    rng.shuffle(query_ops)
    return Workload(ops + query_ops, stats)


def _build_op(sm, n, m, gens, tables) -> Op:
    want = orc.sl_order(n, m)

    def run(tr):
        tables.pop((n, m), None)
        table = tr.call("finitegrp", "enumerate_group", sm.enumerate_group, gens, n, m)
        tables[n, m] = table
        expect(len(table.elements) == want, f"|SL_{n}(Z_{m})| is {want}, got {len(table.elements)}")
        for x in itertools.islice(table.elements, 64):
            expect(orc.det(x.rows) % m == 1, "enumerated element has determinant != 1")
        return f"SL_{n}(Z_{m}) {len(table.elements)}", len(table.elements)

    return Op("build", "finitegrp", run)


def _lookup_op(key, x, inside, tables) -> Op:
    def run(tr):
        table = tables[key]
        got = tr.call("finitegrp", "contains", table.__contains__, x)
        expect(got == inside, "wrong membership answer")
        return str(int(got)), 1

    return Op("lookup", "finitegrp", run)


def _conjugates_stay(members: set, gens, m) -> bool:
    """Every member conjugated by every generator lands in `members` again."""
    for g, g_inv in gens:
        for x in members:
            y = orc.matmul(orc.matmul(g, x, m), g_inv, m)
            if tuple(map(tuple, y)) not in members:
                return False
    return True


def _classes_op(sm, key, gens, tables, stats) -> Op:
    n, m = key

    def run(tr):
        table = tables[key]
        classes = tr.call("finitegrp", "conjugacy_classes", sm.conjugacy_classes, table)
        as_rows = [{x.rows for x in c} for c in classes]
        expect(sum(map(len, as_rows)) == len(table.elements), "classes do not partition the group")
        expect(len(set().union(*as_rows)) == len(table.elements), "classes overlap")
        expect(all(_conjugates_stay(c, gens, m) for c in as_rows), "a class is not closed under conjugation")
        stats["classes"][key] = len(classes)
        return f"{key} {sorted(map(len, as_rows))}", 1

    return Op("classes", "finitegrp", run)


def _normal_op(sm, key, gens, tables, stats) -> Op:
    n, m = key

    def run(tr):
        table = tables[key]
        subs = tr.call("finitegrp", "normal_subgroups", sm.normal_subgroups, table)
        orders = []
        for sub in subs:
            rows = {x.rows for x in sub.elements}
            expect(tuple(map(tuple, orc.identity(n))) in rows, "subgroup lacks the identity")
            expect(
                all(tuple(map(tuple, orc.matmul(x, y, m))) in rows for x in rows for y in rows),
                "normal subgroup is not closed under products",
            )
            expect(_conjugates_stay(rows, gens, m), "subgroup is not normal")
            orders.append(len(rows))
        expect(1 in orders and len(table.elements) in orders, "trivial or whole group missing")
        stats["normal_found"][key] = len(subs)
        return f"{key} {orders}", 1

    return Op("normal", "finitegrp", run)


def _power_op(sm, key, t, samples, gens, tables) -> Op:
    n, m = key

    def run(tr):
        group = tables[key]
        sub = tr.call(
            "finitegrp", "power_subgroup", sm.power_subgroup, group, group.generators, t
        )
        normal = tr.call("finitegrp", "is_normal", sm.is_normal, sub, group)
        rows = {x.rows for x in sub.elements}
        for x in samples:
            power = orc.identity(n)
            for _ in range(t):
                power = orc.matmul(power, x, m)
            expect(tuple(map(tuple, power)) in rows, "a t-th power is missing from the subgroup")
        order = len(group.elements)
        expect(order % len(rows) == 0, "subgroup order does not divide the group order")
        expect(_conjugates_stay(rows, gens, m) and normal, "power subgroup must be normal")
        return f"{key} t={t} {len(rows)} of {order} {normal}", 1

    return Op("power", "finitegrp", run)


def summarize_groups(records, pass_s, stats) -> dict:
    build = [r for r in records if r[0] == "build"]
    query = [r for r in records if r[0] != "build"]
    lookups = sum(r[4] for r in query if r[0] == "lookup")
    other = sum(1 for r in query if r[0] != "lookup")
    return {
        "groups_elements_per_s": (sum(r[4] for r in build) / sum(r[1] for r in build), "1/s"),
        "group_queries_per_s": ((lookups + other) / sum(r[1] for r in query), "1/s"),
        "groups_pass_s": (statistics.median(pass_s), "s"),
    }


# ---------------------------------------------------------------------------
# numerics: spheres (degree estimates, windings) and the ledger
# ---------------------------------------------------------------------------

DEGREE_SAMPLES = 50_000
INDUCED_PER_PASS = 600  # with ten other operations the tail is a p95 inside the windings
WIDE_EVERY = 8  # one matrix in this many has an entry past resolution / 4
RESOLUTION = 1024  # the library default


def prepare_numerics(seed: int) -> Workload:
    import numpy as np

    import spheremat as sm

    rng = random.Random(seed)
    stats = {"psi_stderr": []}
    ops: list[Op] = []
    for k in (1, 2, 3, 4):
        base = np.zeros(k + 1)
        base[0] = 1.0
        ops.append(_degree_op(sm, "psi", sm.psi_map(base), k, orc.psi_degree(k), rng.randrange(2**31), stats))
        ops.append(_degree_op(sm, "antipodal", sm.antipodal_map, k, orc.antipodal_degree(k), rng.randrange(2**31), stats))
    # exactly one winding in eight is wide, so the failure count is the same
    # for every seed
    wide_ops = set(rng.sample(range(INDUCED_PER_PASS), INDUCED_PER_PASS // WIDE_EVERY))
    for t in range(INDUCED_PER_PASS):
        n = 1 + t % 4
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        wide = t in wide_ops
        if wide:
            r, c = rng.randrange(n), rng.randrange(n)
            rows[r][c] = rng.choice((1, -1)) * rng.randint(RESOLUTION // 4 + 1, 2 * RESOLUTION)
        ops.append(_induced_op(sm, n, rows, wide))
    ops.append(Op("witness", "spheres", _witness_run(sm)))
    ops.append(Op("ledger", "ledger", _ledger_run(sm)))
    rng.shuffle(ops)
    return Workload(ops, stats)


def _degree_op(sm, map_name, fn, k, law, sample_seed, stats) -> Op:
    def run(tr):
        est, err = tr.call(
            "spheres", "degree_estimate_details", sm.degree_estimate_details,
            fn, k, DEGREE_SAMPLES, sample_seed,
        )
        if map_name == "psi":
            stats["psi_stderr"].append(err)
        expect(orc.degree_agrees(est, err, law), f"{map_name} on S^{k}: {est} +- {err}, law {law}")
        return f"{map_name} {k} {est!r} {err!r}", DEGREE_SAMPLES

    return Op("degree", "spheres", run)


def _induced_op(sm, n, rows, wide) -> Op:
    torus_map = sm.p_a_torus_map(sm.IntMatrix(rows))

    def run(tr):
        got = tr.call("spheres", "induced_matrix_on_torus", sm.induced_matrix_on_torus, torus_map, n)
        got = _rows(got)
        expect(got == rows, f"winding measured {got} for {rows}")
        return repr(got), 1

    return Op("induced", "spheres", run, known_defect=wide)


def _witness_run(sm):
    def run(tr):
        w = tr.call("spheres", "quaternion_collision_witness", sm.quaternion_collision_witness)
        unit_i = (0.0, 1.0, 0.0, 0.0)
        error = max(
            abs(float(x) - y) for img in w.first_image + w.second_image
            for x, y in zip(img.components, unit_i)
        )
        gap = math.sqrt(sum(
            float(((a.components - b.components) ** 2).sum())
            for a, b in zip(w.first_input, w.second_input)
        ))
        expect(error < 1e-12 and gap > 1.0, "the collision witness does not collide")
        return f"{error!r} {gap!r}", 1

    return run


def _ledger_run(sm):
    def run(tr):
        results = tr.call("ledger", "run_ledger", sm.run_ledger)
        bad = [r.key for r in results if not r.ok]
        expect(len(results) >= 10 and not bad, f"ledger entries failed: {bad}")
        return " ".join(r.key for r in results), len(results)

    return run


def summarize_numerics(records, pass_s, stats) -> dict:
    degree = [r for r in records if r[0] == "degree"]
    induced = [r[1] for r in records if r[0] == "induced"]
    lat = latency_summary(induced)
    return {
        "degree_samples_per_s": (sum(r[4] for r in degree) / sum(r[1] for r in degree), "1/s"),
        "induced_p50_ms": (lat["p50_ms"], "ms"),
        "induced_tail_ms": (lat["tail_ms"], "ms"),
        "induced_tail_pct": (lat["tail_pct"], "%"),
        "induced_count": (lat["count"], "count"),
    }


# ---------------------------------------------------------------------------
# cli: whole processes, one at a time
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 60


def run_cli(args, stdin):
    return subprocess.run(
        [sys.executable, "-m", "spheremat.cli", *args],
        input=stdin, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )


def _matrix_text(rows) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _cli_op(sub, args, stdin, check) -> Op:
    """`check(payload)` returns the expected exit code after checking the verdict."""

    def run(tr):
        proc = tr.call("cli", sub.replace("-", "_"), run_cli, [sub, *args], stdin)
        payload = json.loads(proc.stdout)
        want = check(payload)
        expect(proc.returncode == want, f"{sub} exited {proc.returncode}, expected {want}")
        return proc.stdout, 1

    return Op("cli_" + sub.replace("-", "_"), "cli", run)


CLI_ROUNDS = 2  # 48 calls a pass, so the tail is a p75 with 12 calls beyond it


def prepare_cli(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = [op for _ in range(CLI_ROUNDS) for op in _cli_calls(rng)]
    rng.shuffle(ops)
    return Workload(ops, {})


def _cli_calls(rng: random.Random) -> list[Op]:
    """One round in realistic proportion: 19 exact calls and 5 that need numpy."""
    ops: list[Op] = []

    def verdict(key, want):
        def check(payload):
            expect(payload[key] == want, f"{key} should be {want}")
            return 0 if want else 1

        return check

    def w2_member(n):
        images = orc.random_permutation(rng, n)
        p = orc.perm_matrix(images)
        if orc.perm_parity(images) < 0:
            p[0] = [-x for x in p[0]]
        return orc.matmul(p, orc.evaluate(orc.congruence_word(rng, n, rng.randint(2, 8)), n))

    def sl(n):
        return orc.evaluate(orc.sl_word(rng, n, rng.randint(3, 10)), n)

    # member: W2 in and out, level-m congruence in and out, realizability classes
    a = w2_member(3)
    ops.append(_cli_op("member", ["-", "--group", "w2"], _matrix_text(a), verdict("member", True)))
    a = [[2, 1], [1, 1]]
    ops.append(_cli_op("member", ["-", "--group", "w2"], _matrix_text(a), verdict("member", False)))
    for m in (2, 3):
        word = [(k, i, j, img, e * m // 2 if k == "E" else e)
                for k, i, j, img, e in orc.congruence_word(rng, 3, rng.randint(2, 8))]
        a = orc.evaluate(word, 3)
        want = m == 2 or all((x - (r == c)) % m == 0 for r, row in enumerate(a) for c, x in enumerate(row))
        ops.append(_cli_op("member", ["-", "--group", "gamma", "--mod", str(m)], _matrix_text(a),
                           verdict("member", want)))
    for k in (3, 5):
        a = sl(3)
        want = k == 3 or orc.is_mod2_permutation(a)
        ops.append(_cli_op("member", ["-", "--group", "hr", "--k", str(k)], _matrix_text(a), verdict("member", want)))

    def coset_check(a):
        def check(payload):
            if not payload["member"]:
                expect(not (orc.det(a) == 1 and orc.is_mod2_permutation(a)), "W2 member refused")
                return 1
            lead = orc.tau(len(a)) if payload["uses_tau"] else orc.identity(len(a))
            recon = orc.matmul(orc.matmul(lead, orc.perm_matrix(payload["sigma"])), payload["residual"])
            expect(payload["verification"] == "OK" and recon == a, "certificate does not reconstruct")
            return 0

        return check

    for a in (w2_member(3), w2_member(4), [[1, 1], [1, 2]]):
        ops.append(_cli_op("coset", ["-"], _matrix_text(a), coset_check(a)))

    def decompose_check(a):
        def check(payload):
            letters = orc.parse_word_text(payload["word"])
            expect(payload["verification"] == "OK", "decomposition not verified")
            expect(orc.evaluate(letters, len(a)) == a, "printed word does not evaluate to the input")
            return 0

        return check

    for n, word in ((2, orc.congruence_word(rng, 2, 12)), (3, orc.congruence_word(rng, 3, 10)),
                    (3, orc.sl_word(rng, 3, 10))):
        a = orc.evaluate(word, n)
        ops.append(_cli_op("decompose", ["-"], _matrix_text(a), decompose_check(a)))

    for k_class, a in (("odd", w2_member(3)), ("odd", sl(3)), ("even", sl(2))):
        want = orc.is_mod2_permutation(a) if k_class == "odd" else orc.is_signed_permutation(a)
        ops.append(_cli_op("obstruction", ["-", "--k-class", k_class], _matrix_text(a),
                           verdict("realizable", want)))

    for trace in (rng.randint(3, 9), rng.randint(-1, 1)):
        u = orc.sl_word(rng, 2, rng.randint(1, 6))
        a = orc.matmul(orc.matmul(orc.evaluate(u, 2), [[trace, -1], [1, 0]]),
                       orc.evaluate(orc.invert_word(u), 2))
        ops.append(_cli_op("hyperbolic", ["-"], _matrix_text(a), verdict("hyperbolic", abs(trace) > 2)))

    def audit_check(payload):
        expect(len(payload["entries"]) == 16, "audit must list sixteen families")
        expect(all(e["status"] == "VERIFIED" for e in payload["entries"]), "audit needed repairs")
        expect(sum(e["instances"] for e in payload["entries"]) == 2 * 36 + 2 * 6 * 2, "audit missed instances")
        return 0

    for _ in range(2):
        ops.append(_cli_op("verify-identities", ["-n", "3"], None, audit_check))

    def witness_check(payload):
        expect(payload["confirmed"] is True and payload["max_error"] < 1e-12, "witness not confirmed")
        return 0

    ops.append(_cli_op("quat-witness", [], None, witness_check))

    for _ in range(2):
        a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]

        def induced_check(payload, a=a):
            expect(payload["measured"] == a, "winding does not recover the matrix")
            return 0

        ops.append(_cli_op("induced", ["--n", "2", "--matrix", "-"], _matrix_text(a), induced_check))

    for k in rng.sample((1, 2, 3, 4), 2):
        def degree_check(payload, k=k):
            expect(orc.degree_agrees(payload["estimate"], payload["stderr"], orc.psi_degree(k)),
                   "degree estimate breaks the degree law")
            return 0

        ops.append(_cli_op("degree", ["--k", str(k), "--map", "psi", "--samples", "1000",
                                      "--seed", str(rng.randrange(1000))], None, degree_check))
    return ops


def summarize_cli(records, pass_s, stats) -> dict:
    lat = latency_summary([r[1] for r in records])
    return {
        "cli_call_p50_ms": (lat["p50_ms"], "ms"),
        "cli_call_tail_ms": (lat["tail_ms"], "ms"),
        "cli_call_tail_pct": (lat["tail_pct"], "%"),
        "cli_call_count": (lat["count"], "count"),
    }


SUMMARIES = {
    "exact": summarize_exact,
    "groups": summarize_groups,
    "numerics": summarize_numerics,
    "cli": summarize_cli,
}
