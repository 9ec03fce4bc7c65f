#!/usr/bin/env python3
"""Measure the baseline: ten untraced seeds and one traced run per workload.

Run from the root of a source checkout::

    python3 perfbench/baseline.py                  # writes perfbench/baseline.json
    python3 perfbench/baseline.py --out /tmp/b.json --seeds 601-610

For every workload of ``BENCHMARK.json`` and every end-to-end metric it
records the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, and prints the spreads.  Runs go one at a
time, so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: wrong output\n{proc.stderr[-2000:]}")
    return result["metrics"]


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="501-510", help="first-last, inclusive")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    end_to_end, per_layer = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(first, last + 1)]
        end_to_end[workload] = {
            name: summary([r[name]["value"] for r in runs], unit) for name, unit, _ in run.END_TO_END
        }
        per_layer[workload] = {
            name: m["value"] for name, m in run_once(workload, 1, seconds, 1).items()
        }
        for name, s in end_to_end[workload].items():
            print(f"{workload:16s} {name:24s} median {s['median']:12.5f}  spread {s['spread']:.3f}")

    baseline = {
        "about": (
            f"Baseline of the pmcode CLI, measured with this benchmark. end_to_end: "
            f"{last - first + 1} untraced runs per workload (seeds {first}-{last}, --seconds "
            f"{seconds}): median, quartiles (statistics.quantiles, n=4) and spread = "
            f"(q3 - q1) / median. per_layer: one traced run, seed 1."
        ),
        "provenance": run.provenance(),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
