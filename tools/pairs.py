"""Paired benchmark runs of two commits, in alternating order.

    python3 tools/pairs.py BASE CHANGE --workload exact --pairs 8 --seconds 15 \
        [--seed 9101] [--json BENCH_29.json]

Makes `git archive` copies of the two commits in a temporary directory,
compiles each copy to bytecode once, and runs the copy's own
`perfbench/run.py --trace 0` in it on the seeds SEED, SEED+1, ... Pair i runs BASE first when i is even
and CHANGE first when it is odd, so that a drift of the machine falls on
both sides alike. For each gated end-to-end metric it prints the two
medians, their interquartile ranges, the change of the median and in how
many pairs the change was better, then every pair with the passes each run
made: the exact workload's peak RSS grows with its pass count. With
`--json` the result goes under the workload's name into that file, which is
created if missing and must otherwise name the same two commits. A run of a
workload the file already holds is appended to that entry's `reruns` list,
so the file keeps every run and the first one's keys stay where they were.
The file is written before the report is printed, and a reader that closes
early (`| head`) ends the report quietly.

Exits 1 if a run fails or reports `correct: false`. Reads `perfbench/` in
the copies and changes nothing in the checkout. Standard library only; not
part of the package or of the test suite.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def resolve(rev: str) -> str:
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export(sha: str, dest: Path) -> None:
    """The commit's files under `dest`, compiled to bytecode."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    compileall.compile_dir(dest, quiet=1)


def end_to_end(copy: Path) -> tuple:
    """(name, unit, better, bound) of each gated metric, from the copy's catalogue."""
    spec = importlib.util.spec_from_file_location("pairs_metrics", copy / "perfbench" / "metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.END_TO_END


def bench(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py exited {proc.returncode} in {copy.name} at seed {seed}")
    result = json.loads(lines[-1])
    passes = re.search(r"^passes=(\d+) ", proc.stdout, re.MULTILINE)
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "passes": int(passes.group(1)) if passes else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], catalogue: tuple) -> dict:
    summary = {}
    for name, unit, better, _ in catalogue:
        sides = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        base_median = statistics.median(sides["base"])
        change_median = statistics.median(sides["change"])
        wins = sum((c > b) if better == "higher" else (c < b)
                   for b, c in zip(sides["base"], sides["change"]))
        summary[name] = {
            "unit": unit,
            "better": better,
            "base_median": base_median,
            "base_iqr": quartiles(sides["base"]),
            "change_median": change_median,
            "change_iqr": quartiles(sides["change"]),
            "change_pct": 100 * (change_median / base_median - 1) if base_median else None,
            "better_in": wins,
            "pairs": len(pairs),
        }
    return summary


def report(workload: str, shas: dict, seconds: float, pairs: list[dict], summary: dict) -> None:
    seeds = [p["seed"] for p in pairs]
    print(f"{workload}: base {shas['base'][:12]} vs change {shas['change'][:12]}, "
          f"{len(pairs)} pairs of {seconds:g} s, seeds {seeds[0]}..{seeds[-1]}")
    print(f"  {'metric':<14} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'change':>8}  better")
    for name, s in summary.items():
        base = f"{s['base_median']:.4g} [{s['base_iqr'][0]:.4g}, {s['base_iqr'][1]:.4g}]"
        change = f"{s['change_median']:.4g} [{s['change_iqr'][0]:.4g}, {s['change_iqr'][1]:.4g}]"
        pct = "n/a" if s["change_pct"] is None else f"{s['change_pct']:+.1f} %"
        print(f"  {name:<14} {base:>32} {change:>32} {pct:>8}  {s['better_in']} of {s['pairs']}")
    for p in pairs:
        cells = ", ".join(f"{name} {p['base']['metrics'][name]:.4g}->{p['change']['metrics'][name]:.4g}"
                          for name in summary)
        print(f"  seed {p['seed']} ({p['first']} first): {cells}, "
              f"passes {p['base']['passes']}->{p['change']['passes']}")


def save(path: Path, shas: dict, workload: str, entry: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    if data and {side: data.get(side) for side in SIDES} != shas:
        raise SystemExit(f"{path} holds other commits: {data.get('base')} vs {data.get('change')}")
    data.update(shas)
    data.setdefault("machine", {"python": platform.python_version(), "nproc": os.cpu_count()})
    workloads = data.setdefault("workloads", {})
    if workload in workloads:
        workloads[workload].setdefault("reruns", []).append(entry)
    else:
        workloads[workload] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    shas = {"base": resolve(args.base), "change": resolve(args.change)}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="spheremat-pairs-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], copies[side])
        catalogue = end_to_end(copies["change"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(copies[side], args.workload, seed, args.seconds)
            pairs.append(pair)
    summary = summarize(pairs, catalogue)
    if args.json:  # first, so that a reader that stops early loses nothing
        save(args.json, shas, args.workload,
             {"seconds": args.seconds, "summary": summary, "pairs": pairs})
    try:
        report(args.workload, shas, args.seconds, pairs, summary)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    bad = [(p["seed"], side) for p in pairs for side in SIDES if not p[side]["correct"]]
    if bad:
        print(f"runs not correct (seed, side): {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
