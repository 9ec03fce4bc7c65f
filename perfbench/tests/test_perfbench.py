"""The benchmark's own tests: seeded inputs, metric tables, and a smoke run.

Run from the checkout root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

EXACT_END_TO_END = ("storage_overhead", "repair_read_ratio")
EXACT_PER_LAYER = (
    "repair.helper_symbols_per_stripe",
    "repair.naive_symbols_per_stripe",
    *(f"{op}.linalg.rank_calls" for op in run.OPS),
    *(f"{op}.analysis.kernel_terms" for op in run.DATA_OPS),
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    return {name: m["value"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = run.WORKLOADS[name]
    assert run.make_inputs(wl, 7) == run.make_inputs(wl, 7)
    assert run.plan(wl, 7) == run.plan(wl, 7)
    assert all(a != b for a, b in zip(run.make_inputs(wl, 7), run.make_inputs(wl, 8)))
    assert [len(x) for x in run.make_inputs(wl, 7)] == list(wl.sizes)


def test_seeded_nodes_keep_the_work_fixed():
    wl = run.WORKLOADS["gf256-small-objects"]
    for seed in range(20):
        nodes = {op: n for op, _, n in run.plan(wl, seed) if op != "encode"}
        assert 0 <= nodes["repair_sys"] < wl.k <= nodes["repair_parity"] < wl.n
        assert nodes["decode_sys"] == tuple(range(wl.k))
        degraded = nodes["decode_degraded"]
        assert len(set(degraded)) == wl.k
        assert sum(1 for i in degraded if i >= wl.k) == wl.k - wl.k // 2


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(run.WORKLOADS) and "smoke" not in names


def test_smoke_counts_repeat_exactly():
    first, second = result(bench("smoke", 1, 0)), result(bench("smoke", 2, 0))
    assert set(first) == {name for name, _, _ in run.END_TO_END}
    assert all(v > 0 for v in first.values())
    for name in EXACT_END_TO_END:
        assert first[name] == second[name], name

    first, second = result(bench("smoke", 1, 1)), result(bench("smoke", 2, 1))
    assert set(first) == {name for name, _, _ in run.per_layer_metrics()}
    for name in EXACT_PER_LAYER:
        assert first[name] == second[name], name
    wl = run.WORKLOADS["smoke"]
    assert first["repair.helper_symbols_per_stripe"] == wl.d
    assert first["repair.naive_symbols_per_stripe"] == wl.k * wl.alpha
    # names rebound by `from ... import` and held in cli._BUILDERS are traced
    assert first["encode.analysis.kernel_terms"] > 0
    assert first["encode.construct.build_s"] > 0
    assert first["gen.systematic.remap_generic_s"] > 0


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("gf256-bulk", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
