"""Tests for the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import metrics
import oracle as orc
import workloads as wl
import worker
from conftest import BENCH
from tracing import Calibrator, Timer, Tracer, layer_stats, tail_percentile

import spheremat as sm

ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == metrics.per_layer()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [
        w["name"] for w in doc["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(doc["per_layer"]) <= 128
    assert len(json.dumps(doc)) <= 64 * 1024


def _contract_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_runs_on_a_tiny_seed_and_prints_every_gated_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "numerics", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _contract_line(proc.stdout)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in metrics.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the known winding defect is counted, not hidden, and the same for every seed
    assert result["failed"] == wl.INDUCED_PER_PASS // wl.WIDE_EVERY
    assert result["attempted"] == len(wl.prepare("numerics", 0).ops)
    for name in ("degree_samples_per_s", "induced_p50_ms", "induced_tail_ms", "fail_ratio",
                 "setup_s", "peak_rss_mib"):
        assert re.search(rf"^  {name} +\S+ \S+$", proc.stdout, re.M), name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _small_groups(monkeypatch):
    monkeypatch.setattr(wl, "GROUP_BUILDS", ((2, 4), (2, 5), (3, 2)))
    monkeypatch.setattr(wl, "LOOKUP_WEIGHTS", {(2, 5): 1, (3, 2): 1})
    monkeypatch.setattr(wl, "LOOKUPS", 40)
    monkeypatch.setattr(wl, "CLASS_GROUPS", ((2, 4), (3, 2)))
    monkeypatch.setattr(wl, "NORMAL_GROUPS", ((2, 4),))
    monkeypatch.setattr(wl, "POWER_CASES", (((2, 4), 2),))


@pytest.mark.parametrize("name", ["exact", "groups", "numerics"])
def test_traced_and_untraced_runs_give_identical_outputs(name, monkeypatch):
    _small_groups(monkeypatch)
    ops = wl.prepare(name, 11).ops
    if name == "exact":
        ops = [op for op in ops if op.kind != "audit"][:120]
    plain, plain_digest = worker.run_pass(ops, Timer(Calibrator()))
    tracer = Tracer(Calibrator())
    traced, traced_digest = worker.run_pass(ops, tracer)
    assert plain_digest == traced_digest
    assert [r[2] for r in plain] == [r[2] for r in traced]
    expected_failures = sum(1 for r in plain if r[3])
    assert sum(1 for r in plain if not r[2]) == expected_failures
    stats = layer_stats(tracer.spans, tracer.failed, metrics.LAYERS, metrics.FUNCTIONS,
                        metrics.BUSY_FUNCTIONS)
    per_layer = {n for n, _, _ in metrics.per_layer()}
    assert set(stats) <= per_layer
    assert sum(stats[f"{layer}.calls"] for layer in metrics.LAYERS) == sum(
        1 for s in tracer.spans if s[3] != "bench"
    )


def test_aliasing_windings_are_failures_not_crashes():
    ops = [
        wl._induced_op(sm, 2, [[1, 1000], [0, 1]], True),  # aliases to [[1, -24], [0, 1]]
        wl._induced_op(sm, 2, [[1, 300], [0, 1]], True),  # phase step past pi/2: raises
        wl._induced_op(sm, 2, [[1, 3], [0, -2]], False),
    ]
    records, _ = worker.run_pass(ops, Timer(Calibrator()))
    assert [r[2] for r in records] == [False, False, True]
    assert [r[3] for r in records] == [True, True, False]


def test_oracle_agrees_with_the_library():
    rng = random.Random(5)
    for n in range(2, 7):
        word = orc.mixed_word(rng, n, 40)
        got = sm.parse_word(orc.word_text(word), n).matrix()
        assert [list(r) for r in got.rows] == orc.evaluate(word, n)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert orc.det(rows) == sm.IntMatrix(rows).det()
    for n, m in ((2, 4), (2, 31), (3, 4), (4, 6)):
        assert orc.sl_order(n, m) == sm.sl_order(n, m)
    decomposed = sm.decompose_gamma_n(sm.IntMatrix(orc.evaluate(orc.congruence_word(rng, 3, 9), 3)))
    assert orc.parse_word_text(str(decomposed)) == wl._letters(decomposed)


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in (1, 19, 20, 40, 99, 100, 1000, 20_000):
        pct = tail_percentile(count)
        assert pct == 50.0 or count * (1 - pct / 100) >= 10
