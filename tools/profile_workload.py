"""cProfile of the library calls of one pass of a perfbench workload.

    python3 tools/profile_workload.py groups 1

Builds the workload's inputs for the seed with perfbench's `workloads`
(read, never changed) and runs two passes of its operations with the
garbage collector off, as perfbench's passes do. The first pass is not
profiled: it fills the library's caches (parsed word tokens, identity
rows, E letters), so the profiled second pass sees the warm state that
perfbench's medians are taken in, not the cold first pass, which overstates
`parse_word`. The profiler runs only inside the calls into spheremat, so
the benchmark's own output checks stay out of the figures. Prints each
traced function's share of the library time, then the functions by self
time; the first line counts the profiled pass's failed operations. Standard
library only; not part of the package or of the test suite.

The cli workload is not offered. Its operations run `python -m spheremat.cli`
in child processes, which do not get the `sys.path` this tool sets up, so
without PYTHONPATH every one of them fails; and with it, the profile of
this process shows only the wait on the children (`select.poll`), not
where a CLI call spends its time.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads as wl  # noqa: E402

TOP = 30  # functions listed by self time


class PlainCalls:
    """Stands in for perfbench's tracer on the warm-up pass: calls only."""

    def call(self, layer, fn, func, *args):
        return func(*args)


class ProfiledCalls:
    """Stands in for perfbench's tracer: profiles and times each library call."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def call(self, layer, fn, func, *args):
        start = time.perf_counter()
        self.profile.enable()
        try:
            return func(*args)
        finally:
            self.profile.disable()
            self.seconds[f"{layer}.{fn}"] += time.perf_counter() - start
            self.calls[f"{layer}.{fn}"] += 1


def run_pass(work, calls) -> int:
    """One pass over the workload's operations, GC off; the number that failed."""
    failed = 0
    gc.collect()
    gc.disable()
    try:
        for op in work.ops:
            try:
                op.run(calls)
            except Exception:  # counted, as perfbench counts a failed operation
                failed += 1
    finally:
        gc.enable()
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[w for w in wl.WORKLOADS if w != "cli"])
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)

    work = wl.prepare(args.workload, args.seed)
    run_pass(work, PlainCalls())
    calls = ProfiledCalls()
    failed = run_pass(work, calls)

    total = sum(calls.seconds.values())
    try:
        print(f"{args.workload} seed {args.seed}: {len(work.ops)} operations, {failed} failed, "
              f"{total:.3f} s in library calls (profiled)")
        for name, seconds in sorted(calls.seconds.items(), key=lambda kv: -kv[1]):
            print(f"  {name:45s} {calls.calls[name]:6d} calls {seconds:9.4f} s "
                  f"{seconds / total:6.1%}")
        print()
        stats = pstats.Stats(calls.profile, stream=sys.stdout)
        stats.strip_dirs().sort_stats("tottime").print_stats(TOP)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
