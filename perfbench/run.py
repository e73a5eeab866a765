"""spheremat benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload {exact,groups,numerics,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root (or any checkout holding `src/spheremat`).
Each workload runs in fresh interpreters started by `worker.py`, with
`src` on PYTHONPATH and the BLAS/OpenMP thread counts pinned to 1; the
library sees only the inputs generated from `--seed`.

With `--trace 0` the benchmark sets up several times (`setup_s` is the
median), runs the workload for `--seconds` and reports the gated end-to-end
metrics. With `--trace 1` it runs the workload untraced and traced for half
of `--seconds` each (one pass at least, so that a groups run ends well
inside the time limit), checks that both give identical outputs, reports the
per-layer metrics with the tracing overhead, and re-measures the ROADMAP
baseline table. A human-readable report comes first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Full results and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
DEADLINE_S = 175
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
UNIT_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not produce a result."""


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **THREAD_PINS)


def worker(deadline: float, *args: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {' '.join(args)} ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit,
        "seed": seed,
        "threads": THREAD_PINS,
    }


def untraced(args, deadline) -> tuple[dict, dict, dict]:
    """Set-up probes, then one run: (worker result, gated metrics, report extras)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [worker(deadline, "--mode", "setup", *common)["setup_s"] for _ in range(SETUP_PROBES)]
    run = worker(deadline, "--mode", "run", "--seconds", str(args.seconds), *common)
    setups = probes + [run["setup_s"]]
    values = {"setup_s": statistics.median(setups), **run["end_to_end"]}
    return run, values, {"setup_samples_s": setups, "op_tail_pct": run["op_tail_pct"],
                         "op_count": run["op_count"]}


def traced(args, deadline) -> tuple[dict, dict, dict]:
    """Untraced and traced runs of half the time each, then the baseline table."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
              "--min-passes", "1"]
    plain = worker(deadline, "--mode", "run", *common)
    run = worker(deadline, "--mode", "run", "--trace", *common)
    base = worker(deadline, "--mode", "baseline", "--seed", str(args.seed))
    values = {**run["layers"], **base["extras"]}
    values["trace.overhead_pct"] = 100 * (
        statistics.median(run["pass_s"]) / statistics.median(plain["pass_s"]) - 1
    )
    for name, unit, _, _ in metrics.BASELINES:
        values[name] = base["rows"][name]["median"] * UNIT_SCALE[unit]
    return run, values, {"digests_equal": plain["digest"] == run["digest"],
                         "baseline_rows": base["rows"]}


def print_report(args, env, run, named, values, units, extra) -> None:
    print(f"spheremat benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes={run['passes']} pass_s={statistics.median(run['pass_s']):.3f} "
          f"slowdown applied={statistics.median(run['slowdowns']):.3f} "
          f"attempted={run['attempted']} failed={run['failed']} "
          f"(known winding defect: {run['known_defect_failed']})")
    print("workload metrics:")
    for name, (value, unit) in named.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print("per-layer metrics:" if args.trace else "gated end-to-end metrics:")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"op_tail_ms is the p{extra['op_tail_pct']:g} of {extra['op_count']} operations, "
              "each the median of its passes")
    if args.trace:
        print("ROADMAP baselines: median, min and repeats, beside the ROADMAP figure")
        for name, unit, figure, what in metrics.BASELINES:
            row = extra["baseline_rows"][name]
            scale = UNIT_SCALE[unit]
            print(f"  {what:<40} {row['median'] * scale:>10.4g} {unit}  "
                  f"min {row['min'] * scale:.4g}  x{row['repeat']}  ROADMAP {figure:g} {unit}")
        print(f"traced and untraced outputs identical: {extra['digests_equal']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spheremat end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spheremat" / "__init__.py").is_file():
        print(f"no spheremat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            run, values, extra = traced(args, deadline)
            units = {name: unit for name, unit, _ in metrics.per_layer()}
        else:
            run, values, extra = untraced(args, deadline)
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed)
    # The winding defect is known and counted; any other failure is not, nor
    # are outputs that differ between passes or between traced and untraced runs.
    correct = (
        run["failed"] == run["known_defect_failed"]
        and run["passes_agree"]
        and extra.get("digests_equal", True)
    )
    named = {
        **{name: tuple(pair) for name, pair in run["named"].items()},
        "fail_ratio": (run["failed"] / run["attempted"], "ratio"),
        "setup_s": (values["setup_s"] if "setup_s" in values else run["setup_s"], "s"),
        "peak_rss_mib": (run["end_to_end"]["peak_rss_mib"], "MiB"),
    }
    print_report(args, env, run, named, values, units, extra)
    result = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "environment": env,
        "correct": correct,
        "metrics": result,
        "workload_metrics": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        **extra,
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
