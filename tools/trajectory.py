"""The benchmark trajectory: every BENCH_*.json read as one chain of changes.

    python3 tools/trajectory.py [--root DIR]

Reads each `BENCH_<n>.json` in DIR (the repository root by default) in the
order of n, and the end-to-end metrics with their bounds from
`BENCHMARK.json` there. A file holds the paired runs of one change against
its parent (`tools/pairs.py --json`); a workload may be missing from a file,
and a workload's `reruns` are pooled with its first run. For each workload
and metric it prints, file by file, the medians of the pooled base and
change runs and their ratio, change / base, then the cumulative product of
those ratios: the change since the first file, on the assumption that each
file's base is the previous file's change. A cumulative change worse than
the metric's bound is flagged, also when every single step stayed inside
it, and the flags are listed again at the end.

Exits 0 whatever the trajectory shows; a flag is a finding, not a failure.
A reader that closes early (`| head`) ends the report quietly. Standard
library only; not part of the package or of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(root: Path) -> list[tuple[int, dict]]:
    """(n, contents) of every BENCH_<n>.json under `root`, in the order of n."""
    files = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            files.append((int(match.group(1)), json.loads(path.read_text())))
    return sorted(files, key=lambda item: item[0])


def pooled(entry: dict, metric: str) -> tuple[float, float, int] | None:
    """Base and change medians of `metric` over every pair of a workload's
    entry and its reruns, and the number of pairs; None if no pair has it."""
    pairs = [p for run in [entry, *entry.get("reruns", [])] for p in run["pairs"]]
    sides = [[p[side]["metrics"][metric] for p in pairs if metric in p[side]["metrics"]]
             for side in ("base", "change")]
    if not all(sides):
        return None
    return statistics.median(sides[0]), statistics.median(sides[1]), len(pairs)


def worse_by(ratio: float, better: str) -> float:
    """How far a ratio change / base is on the bad side, as a fraction."""
    return ratio - 1 if better == "lower" else 1 - ratio


def report(files: list[tuple[int, dict]], metrics: list[dict]) -> list[str]:
    """Print the trajectory and return one line per flagged metric."""
    workloads = list(dict.fromkeys(w for _, data in files for w in data["workloads"]))
    print(f"{len(files)} files, BENCH_{files[0][0]} to BENCH_{files[-1][0]}; "
          "ratio = change median / base median, pooled over each file's runs")
    flags = []
    for workload in workloads:
        print(f"\n{workload}")
        for metric in metrics:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            print(f"  {name} ({metric['unit']}, {better} is better, bound {bound:.0%})")
            cumulative = 1.0
            for number, data in files:
                entry = data["workloads"].get(workload)
                point = pooled(entry, name) if entry else None
                if point is None:
                    continue
                base, change, count = point
                cumulative *= change / base
                print(f"    BENCH_{number:<4} {count:3d} pairs  {base:12.6g} -> {change:12.6g}"
                      f"  x{change / base:.3f}  cumulative x{cumulative:.3f}")
            past = worse_by(cumulative, better)
            if past > bound:
                flag = f"{workload} {name}: cumulative x{cumulative:.3f}, worse by {past:.1%}, past its {bound:.0%} bound"
                print(f"    ^ {flag}")
                flags.append(flag)
    print(f"\n{len(flags)} cumulative changes past their bound" + (":" if flags else ""))
    for flag in flags:
        print(f"  {flag}")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    files = load(args.root)
    if not files:
        parser.error(f"no BENCH_*.json in {args.root}")
    metrics = json.loads((args.root / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        report(files, metrics)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
