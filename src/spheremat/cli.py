"""Command line front end.

One exit-code convention across all subcommands:

    0   success, or a positive verdict (member / normal / realizable)
    1   negative verdict (not a member, not normal, obstruction found)
    2   input or usage error, a resource limit (word length, memory), or an
        integer too large for the numerical tools
    3   a verification step failed, or an internal error (a bug, not bad input)

Each `_cmd_*` handler computes and returns `(status, payload)`. It raises
on bad input and writes nothing. `main` is the one output path: it adds the
`schema` and `command` keys, writes the payload as JSON (deterministic:
sorted keys), and maps every exception onto these codes, so no subcommand
ends in a traceback.

Matrices are read from files (or stdin with `-`) in a plain text format:
the first line is n, followed by n rows of n integers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .intmat import (
    DEFAULT_MAX_SIZE,
    GroupSizeLimitError,
    IntMatrix,
    WordLengthError,
    elementary_matrix,
    hyperbolic_check,
    parse_matrix,
    parse_matrices,
)

if TYPE_CHECKING:
    import numpy as np

    from .intmat import ResidueMatrix

# Each subcommand imports the layers it runs, so a call loads only those:
# `member` loads no `words`, `decompose` no `finitegrp`, and no exact call
# loads numpy. `main` maps the size guards' errors, defined in `intmat`,
# without importing the layers that raise them.

SCHEMA = "spheremat/1"

# `degree` differentiates at the geodesic step h of `spheres`. The circle
# power map z -> z^r then measures sin(r*h)/h in place of r, so |r|*h is
# bounded.
_MAX_POWER_STEP = 0.01


def _read_text(source: str) -> str:
    return sys.stdin.read() if source == "-" else Path(source).read_text()


def _read_matrix(source: str) -> IntMatrix:
    return parse_matrix(_read_text(source))


def _read_residues(
    source: Optional[str], args: argparse.Namespace
) -> list[ResidueMatrix]:
    """The matrices in `source` mod `--mod`; all elementary ones if it is None."""
    from .finitegrp import elementary_generators_mod

    if source is None:
        return elementary_generators_mod(args.n, args.mod)
    return [a.reduce_mod(args.mod) for a in parse_matrices(_read_text(source))]


def _rows(a) -> list[list[int]]:
    return [list(r) for r in a.rows]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_k_class(args: argparse.Namespace) -> Optional[str]:
    from .subgroups import k_to_class

    if args.k_class is not None:
        return "odd_generic" if args.k_class == "odd" else args.k_class
    if args.k is not None:
        return k_to_class(args.k)
    return None


def _cmd_member(args: argparse.Namespace) -> tuple:
    from .subgroups import _w2_failure, hR_member, in_congruence

    a = _read_matrix(args.matrix)
    payload: dict = {"n": a.n, "group": args.group}
    if args.group == "w2":
        failure = _w2_failure(a)
        ok = failure is None
        payload["reason"] = failure or "unit determinant, all distinct-row componentwise products even"
    elif args.group == "gamma":
        ok = in_congruence(a, args.mod)
        payload["mod"] = args.mod
        payload["reason"] = (
            "unit determinant and congruent to the identity"
            if ok
            else "determinant or residue test failed"
        )
    else:
        k_class = _resolve_k_class(args)
        if k_class is None:
            raise ValueError("--group hr needs --k or --k-class")
        check = hR_member(a, k_class)
        ok = check.member
        payload["k_class"] = k_class
        payload["reason"] = check.reason
    payload["member"] = ok
    return (0 if ok else 1), payload


def _cmd_coset(args: argparse.Namespace) -> tuple:
    from .subgroups import NotInGroupError, coset_certificate

    a = _read_matrix(args.matrix)
    try:
        # verified by re-multiplication; a failure raises AssertionError
        cert = coset_certificate(a)
    except NotInGroupError as exc:
        return 1, {"member": False, "reason": str(exc)}
    return 0, {
        "member": True,
        "uses_tau": cert.uses_tau,
        "sigma": list(cert.sigma.images),
        "sigma_sign": cert.sigma.sign(),
        "residual": _rows(cert.residual),
        "verification": "OK",
    }


def _cmd_decompose(args: argparse.Namespace) -> tuple:
    from .subgroups import NotInGroupError, in_congruence
    from .words import decompose_gamma2, decompose_gamma_n, decompose_sln, word_to_str

    a = _read_matrix(args.matrix)
    target = args.target
    if target == "auto":
        target = "sln"
        if a.n >= 2 and in_congruence(a, 2):
            target = "gamma2" if a.n == 2 else "gamman"
    decompose = {"gamma2": decompose_gamma2, "gamman": decompose_gamma_n, "sln": decompose_sln}
    try:
        # the library decides every refusal; a wrong word raises AssertionError
        word = decompose[target](a)
    except NotInGroupError as exc:
        return 1, {"member": False, "target": target, "reason": str(exc)}
    return 0, {
        "member": True,
        "target": target,
        "letters": len(word.letters),
        "word": word_to_str(word),
        "verification": "OK",
    }


def _cmd_verify_identities(args: argparse.Namespace) -> tuple:
    from .words import rewrite_table_audit

    reports = rewrite_table_audit(args.n)
    fields = ("family", "generator_kind", "sign", "condition", "instances", "status")
    payload = {
        "n": args.n,
        "families": len(reports),
        "entries": [{f: getattr(r, f) for f in fields} for r in reports],
    }
    return 0, payload


def _cmd_obstruction(args: argparse.Namespace) -> tuple:
    from .subgroups import classify, cross_consistency, whitehead_coeffs

    a = _read_matrix(args.matrix)
    k_class = _resolve_k_class(args)
    if k_class is None:
        raise ValueError("need --k or --k-class")
    verdict = classify(a, k_class)
    payload = {
        "n": a.n,
        "k_class": k_class,
        "realizable": verdict.realizable,
        "violations": [[j, l, s] for (j, l), s in verdict.violations],
    }
    pairs = list(itertools.combinations(range(1, a.n + 1), 2))
    if not all(cross_consistency(a, j, l) for j, l in pairs):
        raise AssertionError("cross-coefficient check failed")
    if args.coefficients:
        coeffs = {}
        for j, l in pairs:
            report = whitehead_coeffs(a, j, l)
            coeffs[f"{j},{l}"] = {
                "cross": {f"{s},{t}": v for (s, t), v in sorted(report.cross.items())},
                "diag": list(report.diag),
            }
        payload["coefficients"] = coeffs
    return (0 if verdict.realizable else 1), payload


def _cmd_enumerate(args: argparse.Namespace) -> tuple:
    from .finitegrp import enumerate_group, sl_order

    gens = _read_residues(args.generators, args)
    table = enumerate_group(gens, args.n, args.mod, max_size=args.max_size)
    payload = {"n": args.n, "mod": args.mod, "order": table.order}
    if args.generators is None:
        expected = sl_order(args.n, args.mod)
        payload["expected_order"] = expected
        payload["matches_formula"] = table.order == expected
    if args.list_elements:
        payload["elements"] = [_rows(x) for x in table.sorted_elements()]
    return (3 if payload.get("matches_formula") is False else 0), payload


def _cmd_normality(args: argparse.Namespace) -> tuple:
    from .finitegrp import enumerate_group, find_normality_violation, power_subgroup

    if args.subgroup is None and args.power is None:
        raise ValueError("need --subgroup FILE, --power T, or both")
    group_gens = _read_residues(args.generators, args)
    group = enumerate_group(group_gens, args.n, args.mod, max_size=args.max_size)
    sub_gens = _read_residues(args.subgroup, args) if args.subgroup else group_gens
    if args.power is not None:
        sub = power_subgroup(group, sub_gens, args.power, max_size=args.max_size)
    else:
        sub = enumerate_group(sub_gens, args.n, args.mod, max_size=args.max_size)
    violation = find_normality_violation(sub, group)
    payload = {
        "n": args.n,
        "mod": args.mod,
        "group_order": group.order,
        "subgroup_order": sub.order,
        "index": group.order // sub.order,
        "normal": violation is None,
    }
    if violation is not None:
        g, h = violation
        payload["violation"] = {
            "conjugator": _rows(g),
            "element": _rows(h),
            "conjugate": _rows(g * h * g.inverse()),
        }
    return (0 if violation is None else 1), payload


def _cmd_quat_witness(args: argparse.Namespace) -> tuple:
    from .spheres import quaternion_collision_witness

    w = quaternion_collision_witness()
    return (0 if w.confirmed else 3), {
        "matrix": _rows(w.matrix),
        "first_input": [x.components.tolist() for x in w.first_input],
        "second_input": [x.components.tolist() for x in w.second_input],
        "first_image": [x.components.tolist() for x in w.first_image],
        "second_image": [x.components.tolist() for x in w.second_image],
        "max_error": w.max_error,
        "input_separation": w.input_separation,
        "confirmed": w.confirmed,
    }


def _degree_map(args: argparse.Namespace) -> Callable[[np.ndarray], np.ndarray]:
    import numpy as np

    from .spheres import _DEGREE_STEP, _require_float_range, antipodal_map, psi_map

    if args.map == "identity":
        return lambda pts: pts
    if args.map == "antipodal":
        return antipodal_map
    if args.map == "psi":
        base = np.zeros(args.k + 1)
        base[0] = 1.0
        return psi_map(base)
    # circle power map z -> z^r
    if args.k != 1:
        raise ValueError("--map power needs --k 1")

    r = args.power
    _require_float_range(r, "--power")
    if abs(r) * _DEGREE_STEP > _MAX_POWER_STEP:
        raise ValueError(
            f"--power {r} gives |r|*h = {abs(r) * _DEGREE_STEP:g} at the step "
            f"h = {_DEGREE_STEP:g}; past {_MAX_POWER_STEP:g} the estimate drifts from r"
        )

    def power(pts: np.ndarray) -> np.ndarray:
        z = pts[:, 0] + 1j * pts[:, 1]
        w = z**r
        return np.stack([w.real, w.imag], axis=1)

    return power


def _cmd_degree(args: argparse.Namespace) -> tuple:
    from .spheres import degree_estimate_details

    fn = _degree_map(args)
    estimate, stderr = degree_estimate_details(
        fn, args.k, sample_count=args.samples, seed=args.seed
    )
    payload = {
        "map": args.map,
        "k": args.k,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": estimate,
        "stderr": stderr,
        "nearest_integer": round(estimate),
    }
    if args.map == "power":
        payload["power"] = args.power
    return 0, payload


def _induced_map_and_expected(
    args: argparse.Namespace,
) -> tuple[Callable[[np.ndarray], np.ndarray], IntMatrix]:
    from .spheres import (
        compose_maps,
        p_a_torus_map,
        p_word_torus_map,
        reflection_shear_torus_map,
        slot_conjugation_torus_map,
    )

    chosen = [
        x for x in (args.matrix, args.word, args.construction) if x is not None
    ]
    if len(chosen) != 1:
        raise ValueError("give exactly one of --matrix, --word, --construction")
    if args.matrix is not None:
        a = _read_matrix(args.matrix)
        if a.n != args.n:
            raise ValueError(f"matrix is {a.n}x{a.n} but --n is {args.n}")
        return p_a_torus_map(a), a
    if args.word is not None:
        from .words import parse_word

        word = parse_word(args.word, args.n)
        return p_word_torus_map(word), word.matrix()
    fn = reflection_shear_torus_map(args.n)  # rejects n < 2 before any matrix is built
    shear = elementary_matrix(args.n, 1, 2, 2)
    if args.construction == "reflection-shear":
        return fn, shear * IntMatrix.diagonal([-1] + [1] * (args.n - 1))
    return compose_maps(fn, slot_conjugation_torus_map(1, args.n)), shear


def _cmd_induced(args: argparse.Namespace) -> tuple:
    from .spheres import PhaseAmbiguityError, induced_matrix_on_torus

    fn, expected = _induced_map_and_expected(args)
    # a loop of R samples steps entry a's phase by 2*pi*a/R, below the pi/2
    # the check allows when R > 4*|a|
    peak = max(abs(x) for row in expected.rows for x in row)
    resolution = max(1024, 4 * peak + 1)
    try:
        measured = induced_matrix_on_torus(fn, args.n, resolution=resolution)
    except PhaseAmbiguityError as exc:  # a RuntimeError: report it as a failed check
        raise AssertionError(str(exc)) from exc
    payload = {"n": args.n, "resolution": resolution, "measured": _rows(measured)}
    payload["expected"] = _rows(expected)
    payload["matches"] = measured == expected
    return (0 if payload["matches"] else 3), payload


def _cmd_ledger(args: argparse.Namespace) -> tuple:
    from .ledger import run_ledger

    results = run_ledger()
    all_ok = all(r.ok for r in results)
    payload = {
        "entries": [
            {"key": r.key, "claim": r.claim, "ok": r.ok, "detail": r.detail}
            for r in results
        ],
        "all_ok": all_ok,
    }
    return (0 if all_ok else 3), payload


def _cmd_hyperbolic(args: argparse.Namespace) -> tuple:
    a = _read_matrix(args.matrix)
    result = hyperbolic_check(a)
    return (0 if result else 1), {"trace": a.trace(), "hyperbolic": result}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremat",
        description="integer matrix groups and the sphere-product maps they induce",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler, parser=p)
        return p

    k_class_choices = ["hopf", "odd", "odd_generic", "even"]

    p = add("member", "membership tests for an integer matrix", _cmd_member)
    p.add_argument("matrix", help="matrix file, or - for stdin")
    p.add_argument("--group", choices=["w2", "gamma", "hr"], default="w2")
    p.add_argument("--mod", type=int, default=2, help="level for --group gamma")
    p.add_argument("--k", type=int, help="sphere dimension (hr group)")
    p.add_argument("--k-class", choices=k_class_choices, dest="k_class")

    p = add("coset", "coset certificate inside the even-products group", _cmd_coset)
    p.add_argument("matrix")

    p = add("decompose", "write a matrix as a word in the standard generators",
            _cmd_decompose)
    p.add_argument("matrix")
    p.add_argument(
        "--target", choices=["auto", "gamma2", "gamman", "sln"], default="auto"
    )

    p = add("verify-identities", "re-verify the conjugation rewrite tables",
            _cmd_verify_identities)
    p.add_argument("-n", "--n", type=int, default=4, dest="n")

    p = add("obstruction", "commutator obstruction verdict for a matrix",
            _cmd_obstruction)
    p.add_argument("matrix")
    p.add_argument("--k", type=int)
    p.add_argument("--k-class", choices=k_class_choices, dest="k_class")
    p.add_argument("--coefficients", action="store_true", help="print all coefficients")

    p = add("enumerate", "enumerate a matrix group over Z_m", _cmd_enumerate)
    p.add_argument("-n", "--n", type=int, required=True, dest="n")
    p.add_argument("-m", "--mod", type=int, required=True, dest="mod")
    p.add_argument("--generators", help="matrix list file (default: all elementary)")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)
    p.add_argument("--list-elements", action="store_true")

    p = add("normality", "check a subgroup for normality, with witness", _cmd_normality)
    p.add_argument("-n", "--n", type=int, required=True, dest="n")
    p.add_argument("-m", "--mod", type=int, required=True, dest="mod")
    p.add_argument("--generators", help="group generators (default: all elementary)")
    p.add_argument("--subgroup", help="subgroup generators file")
    p.add_argument("--power", type=int, help="use t-th powers of the subgroup")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE)

    add("quat-witness", "print the quaternion collision witness", _cmd_quat_witness)

    p = add("degree", "Monte Carlo mapping degree of a built-in sphere map",
            _cmd_degree)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--map",
        choices=["identity", "antipodal", "psi", "power"],
        default="identity",
    )
    p.add_argument("--power", type=int, default=2, help="exponent for --map power, |r| <= 1000")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("induced", "measure the homology matrix of a torus self-map", _cmd_induced)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", help="measure the monomial map of this matrix")
    p.add_argument("--word", help="measure the composite of elementary letters")
    p.add_argument(
        "--construction",
        choices=["reflection-shear", "reflection-shear-conjugated"],
    )

    p = add("hyperbolic", "trace test for a 2x2 unit-determinant matrix",
            _cmd_hyperbolic)
    p.add_argument("matrix")

    add("ledger", "re-run every identity in the built-in ledger", _cmd_ledger)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # the usage of the parser they were given to
        given = sys.argv[1:] if argv is None else list(argv)
        # the top-level parser has no option but -h, so any token before
        # the subcommand is an unknown option of its own
        ahead = given[: given.index(args.command)]
        (parser if ahead else args.parser).error(
            f"unrecognized arguments: {' '.join(ahead or extras)}"
        )
    try:
        status, payload = args.func(args)
        payload.update(schema=SCHEMA, command=args.command)
        out = json.dumps(payload, sort_keys=True, indent=2)
    except GroupSizeLimitError as exc:
        return _fail(f"{exc} (raise --max-size if this is intentional)")
    except (ValueError, FileNotFoundError, WordLengthError, OverflowError) as exc:
        return _fail(str(exc))
    except MemoryError:
        return _fail("out of memory")
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: exit 3, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
