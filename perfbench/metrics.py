"""The metric catalogue: every name the benchmark prints, with its unit.

`BENCHMARK.json` at the repository root lists the same end-to-end and
per-layer metrics; the benchmark's tests check that the two agree.
"""

from __future__ import annotations

# Gated end-to-end metrics, reported by every workload with --trace 0:
# (name, unit, better, bound as a share of the parent's median).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

LAYERS = (
    "intmat", "permutation", "subgroups", "obstruction", "words",
    "finitegrp", "spheres", "ledger", "cli",
)

# Every public function the benchmark calls, as (layer, name in the span).
FUNCTIONS = (
    ("intmat", "det"),
    ("intmat", "inverse_unimodular"),
    ("intmat", "hyperbolic_check"),
    ("permutation", "from_cycles"),
    ("permutation", "sign"),
    ("subgroups", "in_W2"),
    ("subgroups", "in_congruence"),
    ("subgroups", "hR_member"),
    ("subgroups", "coset_certificate"),
    ("obstruction", "classify"),
    ("words", "decompose_gamma2"),
    ("words", "decompose_gamma_n"),
    ("words", "decompose_sln"),
    ("words", "parse_word"),
    ("words", "matrix"),
    ("words", "rewrite_table_audit"),
    ("finitegrp", "enumerate_group"),
    ("finitegrp", "contains"),
    ("finitegrp", "conjugacy_classes"),
    ("finitegrp", "normal_subgroups"),
    ("finitegrp", "power_subgroup"),
    ("finitegrp", "is_normal"),
    ("spheres", "degree_estimate_details"),
    ("spheres", "induced_matrix_on_torus"),
    ("spheres", "quaternion_collision_witness"),
    ("ledger", "run_ledger"),
    ("cli", "member"),
    ("cli", "coset"),
    ("cli", "decompose"),
    ("cli", "obstruction"),
    ("cli", "hyperbolic"),
    ("cli", "verify_identities"),
    ("cli", "quat_witness"),
    ("cli", "induced"),
    ("cli", "degree"),
)

# Functions whose total time a planned optimisation targets directly.
BUSY_FUNCTIONS = (
    ("words", "matrix"),
    ("finitegrp", "enumerate_group"),
    ("spheres", "degree_estimate_details"),
)

# Derived per-layer counters: (name, unit, better).
LAYER_EXTRAS = (
    ("words.letters_per_decompose", "letters", "lower"),
    ("words.rewrite_repairs", "count", "lower"),
    ("finitegrp.bytes_per_element", "B", "lower"),
    ("finitegrp.bfs_useful_ratio", "ratio", "higher"),
    ("finitegrp.normal_closed_ratio", "ratio", "higher"),
    ("spheres.induced_failures", "count", "lower"),
    ("spheres.degree_stderr", "degree", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.numpy_import_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
)

# The ROADMAP baseline table, re-measured in every traced run:
# (name, unit, ROADMAP figure in that unit, what is timed).
BASELINES = (
    ("baseline.intmat_mul_n3_us", "us", 18.0, "IntMatrix product, n=3"),
    ("baseline.intmat_det_n6_us", "us", 20.0, "det, n=6"),
    ("baseline.intmat_inverse_n6_us", "us", 940.0, "inverse_unimodular, n=6"),
    ("baseline.classify_n4_us", "us", 215.0, "classify, n=4"),
    ("baseline.degree_4e5_s", "s", 0.8, "degree estimate, psi on S^3, 4x10^5 samples"),
    ("baseline.enum_sl3_z4_s", "s", 10.8, "enumeration of SL_3(Z_4)"),
    ("baseline.cli_member_ms", "ms", 330.0, "one exact CLI call (member)"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric of the traced run, as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.calls", "count", "higher"),
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.failed", "count", "lower"),
        ]
    for layer, fn in FUNCTIONS:
        out += [(f"{layer}.{fn}.calls", "count", "higher"), (f"{layer}.{fn}.p50_us", "us", "lower")]
    out += [(f"{layer}.{fn}.busy_s", "s", "lower") for layer, fn in BUSY_FUNCTIONS]
    out += list(LAYER_EXTRAS)
    out += [(name, unit, "lower") for name, unit, _, _ in BASELINES]
    return out
