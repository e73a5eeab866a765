"""One workload in one fresh interpreter; prints a JSON result as its last line.

    python perfbench/worker.py --mode run --workload exact --seed 1 --seconds 10 [--trace]

`run.py` starts this with spheremat's sources on PYTHONPATH and the BLAS and
OpenMP thread counts pinned to 1. Modes:

* setup     time the import of spheremat plus the generation of the inputs;
* run       set up, then run whole passes until the next would overrun
            `--seconds` (at least `--min-passes`, default two); with
            `--trace`, also record spans and write them to perfbench/out/;
* baseline  re-measure the ROADMAP baseline table and the interpreter,
            spheremat and numpy import costs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads as wl
from tracing import Calibrator, Timer, Tracer, latency_summary, layer_stats

OUT = Path(__file__).resolve().parent / "out"


def peak_rss_mib() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def setup(name: str, seed: int, cal: Calibrator):
    """The workload and its set-up time, in reference-machine seconds."""
    start, spent = time.perf_counter(), cal.spent
    work = wl.prepare(name, seed)
    if name == "cli":
        # one call first, so the timed calls find spheremat's bytecode cached
        wl.run_cli(["member", "-"], "2\n1 0\n0 1\n")
    end = time.perf_counter()
    slowdown = cal.slowdown(start, end) ** wl.SPEED_SENSITIVITY[name]
    return work, (end - start - (cal.spent - spent)) / slowdown


def run_pass(ops, tracer):
    """One pass over the operations: records and the digest of all outputs."""
    records = []
    digest = hashlib.sha256()
    for op in ops:
        tracer.begin_op()
        try:
            out, work = op.run(tracer)
            ok = True
        except Exception as exc:  # a failed operation is counted, never fatal
            out, work, ok = f"{type(exc).__name__}: {exc}", 0, False
        tracer.end_op(op.kind, None if ok else op.layer)
        records.append((op.kind, tracer.op_time, ok, op.known_defect, work))
        digest.update(out.encode() + b"\0")
    return records, digest.hexdigest()


def run(name: str, seed: int, seconds: float, traced: bool, min_passes: int = 2) -> dict:
    with Calibrator() as cal:
        work, setup_s = setup(name, seed, cal)
        tracer = Tracer(cal) if traced else Timer(cal)
        passes, pass_s, slowdowns, digests = [], [], [], []
        # The workloads leave no cyclic garbage, so the collector is off while
        # passes run (as in timeit): its pauses land on random operations.
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        while True:
            t0, spent = time.perf_counter(), cal.spent
            records, pass_digest = run_pass(work.ops, tracer)
            t1 = time.perf_counter()
            gc.collect()
            slowdowns.append(cal.slowdown(t0, t1) ** wl.SPEED_SENSITIVITY[name])
            pass_s.append((t1 - t0 - (cal.spent - spent)) / slowdowns[-1])
            passes.append([(kind, t / slowdowns[-1], *rest) for kind, t, *rest in records])
            digests.append(pass_digest)
            # gated runs take at least two passes, so that every latency is a
            # median of two or more
            next_end = t1 - start + statistics.median(pass_s) * statistics.median(slowdowns)
            if len(passes) >= min_passes and next_end > seconds:
                break
        gc.enable()
    # Every pass repeats the same inputs, so each operation's latency is its
    # median over the passes; bursts of machine noise stay out of the figures.
    steady = []
    for same in zip(*passes):
        kind, _, ok, known, units = same[0]
        steady.append((kind, statistics.median(r[1] for r in same), ok, known, units))
    # `attempted` and `failed` count the operations of one pass: every pass
    # repeats them and must give the same outputs, failures included, so the
    # counts depend on the seed alone and not on how many passes fit in time.
    failures = [r for r in steady if not r[2]]
    lat = latency_summary([r[1] for r in steady])
    result = {
        "setup_s": setup_s,
        "attempted": len(work.ops),
        "failed": len(failures),
        "known_defect_failed": sum(1 for r in failures if r[3]),
        "digest": digests[0],
        "passes_agree": len(set(digests)) == 1,
        "passes": len(passes),
        "pass_s": pass_s,
        "slowdowns": slowdowns,
        "end_to_end": {
            "ops_per_s": len(steady) / sum(r[1] for r in steady),
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "peak_rss_mib": peak_rss_mib(),
        },
        "op_tail_pct": lat["tail_pct"],
        "op_count": lat["count"],
        "named": wl.SUMMARIES[name](steady, pass_s, work.stats),
    }
    if traced:
        result["layers"] = {
            **layer_stats(tracer.spans, tracer.failed, metrics.LAYERS, metrics.FUNCTIONS,
                          metrics.BUSY_FUNCTIONS),
            **_layer_extras(steady, work.stats),
            "trace.spans": len(tracer.spans),
        }
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "fields": ["span_id", "parent_id", "op_id", "layer", "fn", "start_s", "end_s"],
            "spans": tracer.spans,
        }))
    return result


def _layer_extras(steady, stats) -> dict:
    classes, found = stats.get("classes", {}), stats.get("normal_found", {})
    masks = sum(2 ** (classes[k] - 1) for k in found if k in classes)
    return {
        "words.letters_per_decompose": statistics.mean(stats.get("letters") or [0]),
        "words.rewrite_repairs": max(stats.get("rewrite_repairs") or [0]),
        "finitegrp.normal_closed_ratio": sum(found.values()) / masks if masks else 0.0,
        "spheres.induced_failures": sum(1 for r in steady if r[0] == "induced" and not r[2]),
        "spheres.degree_stderr": statistics.median(stats.get("psi_stderr") or [0.0]),
    }


# ---------------------------------------------------------------------------
# the ROADMAP baseline table
# ---------------------------------------------------------------------------

def _timed(func, number: int, repeat: int) -> dict:
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            func()
        samples.append((time.perf_counter() - t0) / number)
    return {"median": statistics.median(samples), "min": min(samples), "repeat": repeat, "number": number}


def _process_s(args, stdin=None) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                   timeout=wl.CLI_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


def baseline(seed: int) -> dict:
    import numpy as np

    import oracle as orc
    import spheremat as sm

    rng = random.Random(seed)
    rows, extras = {}, {}
    # The enumeration runs first, so the growth of peak RSS is its table.
    gens = sm.elementary_generators_mod(3, 4)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    table = sm.enumerate_group(gens, 3, 4)
    enum_s = time.perf_counter() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    order = len(table.elements)
    if order != orc.sl_order(3, 4):
        raise RuntimeError(f"SL_3(Z_4) enumerated to {order} elements")
    extras["finitegrp.bytes_per_element"] = (rss1 - rss0) * 1024 / order
    # the BFS multiplies every element by each generator and each inverse
    extras["finitegrp.bfs_useful_ratio"] = (order - 1) / (order * 2 * len(gens))
    del table
    rows["baseline.enum_sl3_z4_s"] = {"median": enum_s, "min": enum_s, "repeat": 1, "number": 1}

    def sl(n):
        return sm.IntMatrix(orc.evaluate(orc.sl_word(rng, n, 30), n))

    a3, b3, a4, a6 = sl(3), sl(3), sl(4), sl(6)
    rows["baseline.intmat_mul_n3_us"] = _timed(lambda: a3 * b3, 2000, 7)
    rows["baseline.intmat_det_n6_us"] = _timed(a6.det, 2000, 7)
    rows["baseline.intmat_inverse_n6_us"] = _timed(a6.inverse_unimodular, 100, 7)
    rows["baseline.classify_n4_us"] = _timed(lambda: sm.classify(a4, "odd_generic"), 1000, 7)
    base = np.zeros(4)
    base[0] = 1.0
    psi = sm.psi_map(base)
    rows["baseline.degree_4e5_s"] = _timed(
        lambda: sm.degree_estimate_details(psi, 3, 400_000, seed), 1, 3
    )
    member = ["-m", "spheremat.cli", "member", "-"]
    rows["baseline.cli_member_ms"] = _timed(lambda: _process_s(member, "2\n3 2\n4 3\n"), 1, 7)

    def median_process_ms(code):
        return 1e3 * statistics.median(_process_s(["-c", code]) for _ in range(7))

    interp = median_process_ms("pass")
    extras["cli.interp_ms"] = interp
    extras["cli.import_ms"] = median_process_ms("import spheremat.cli") - interp
    extras["cli.numpy_import_ms"] = median_process_ms("import numpy") - interp
    return {"rows": rows, "extras": extras}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "baseline"), required=True)
    parser.add_argument("--workload", choices=wl.WORKLOADS, default="exact")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--min-passes", type=int, default=2)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        with Calibrator() as cal:
            result = {"setup_s": setup(args.workload, args.seed, cal)[1]}
    elif args.mode == "run":
        result = run(args.workload, args.seed, args.seconds, args.trace, args.min_passes)
    else:
        result = baseline(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
