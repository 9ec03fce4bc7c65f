"""A hand-written mutation census: one-line mutants of pmcode, each run against the test files
that exercise its module.

Each mutant replaces one exact line fragment of ``src/pmcode`` in a fresh copy of the package
and runs pytest on the listed test files, stopping at the first failure.  A mutant is
"killed" when a test fails, "survived" when all pass and "hung" when the run exceeds
``TIMEOUT`` seconds.  Run from the repository root:

    python scripts/mutation_census.py WORKDIR [--tests DIR]

WORKDIR receives the copies; ``--tests`` runs another checkout's tests against the mutants,
to compare two test sets on the same code.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARDS = ["test_shards.py", "test_cli.py", "test_streaming.py"]
KERNEL = ["test_kernel_buffers.py", "test_analysis.py", "test_streaming.py"]
REPORT = ["test_analysis.py", "test_cli.py", "test_api.py"]
TIMEOUT = 300.0

# name, module, line fragment, its replacement, test files; "equivalent" names say why they survive
MUTANTS = [
    ("padding-one-late", "shards.py", "if data[valid:].any():", "if data[valid + 1:].any():", SHARDS),
    ("zero-row-unwritten", "analysis.py", "acc[...] = 0", "pass", KERNEL),
    ("eof-as-progress", "shards.py", "if got == 0:", "if got < 0:", SHARDS),
    ("equivalent-prime-stride-2^31", "analysis.py", "(8 * dtype.itemsize - 2)", "(8 * dtype.itemsize - 1)", KERNEL),
    ("equivalent-copy-of-pooled-row", "analysis.py", "& (first < inputs) & ~pooled", "& (first < inputs)", KERNEL),
    ("stream-of-no-stripes", "analysis.py", "if not stripes:", "if stripes is None:", ["test_streaming.py"]),
    ("stream-of-negative-stripes", "analysis.py", "if stripes < 0:", "if False:", ["test_streaming.py"]),
    ("symbol-range-off-by-one", "shards.py", "block.max(initial=0) >= field.q", "block.max(initial=0) > field.q", SHARDS),
    ("body-size-only-short", "shards.py", "if body != expected:", "if body < expected:", SHARDS),
    ("padding-left-dirty", "shards.py", "data[want:] = 0", "pass", SHARDS),
    ("node-id-unchecked", "shards.py", "if node != i:", "if False:", SHARDS),
    ("geometry-unchecked", "shards.py", "elif (stripes, payload_len) != geometry:", "elif False:", SHARDS),
    ("decoded-byte-range", "shards.py", "if message.max(initial=0) > 255:", "if message.max(initial=0) > 256:", SHARDS),
    ("no-byteswap", "shards.py", "block.byteswap(inplace=True)", "pass", SHARDS),
    ("xor-tail-skipped", "analysis.py", "if tail < stripes:", "if False:", KERNEL),
    ("partial-block-skipped", "analysis.py", "if stripes - full >= 8:", "if stripes - full > 8:", KERNEL),
    ("reduce-never", "analysis.py", "if n % stride == 0 or n == len(terms):", "if n % stride == 0:", KERNEL),
    ("equivalent-plan-by-cost-first", "core.py", "key=lambda plan: (plan.symbols, kernel_cost(plan.program))",
     "key=lambda plan: (kernel_cost(plan.program), plan.symbols)", ["test_repair_reads.py", "test_cli.py"]),
    ("psi-lambda-reversed", "core.py", "return psi_from_phi_lambda(self.params, self.phi, self.lam)",
     "return psi_from_phi_lambda(self.params, self.phi, self.lam[::-1])", ["test_core.py", "test_construct.py"]),
    ("sparsify-dropped", "construct.py", "return replace(enc, phi=phi)", "return enc", ["test_construct.py"]),
    ("parity-fraction-skips-a-row", "report.py", "self.pattern[self.params.B :]", "self.pattern[self.params.B + 1 :]",
     REPORT),
    ("per-node-max-short", "report.py", "counts[i * alpha : (i + 1) * alpha]", "counts[i * alpha : (i + 1) * alpha - 1]",
     REPORT),
    ("message-bytes-alpha", "report.py", "return self.stripes * self.params.B", "return self.stripes * self.params.alpha",
     REPORT),
    ("certify-ignores-failures", "report.py", "return all(c.ok for c in self.checks)", "return True", REPORT),
    ("overwrite-check-dropped", "cli.py", "if any(os.path.samestat(target, st) for st in inputs):", "if False:",
     ["test_cli.py", "test_streaming.py"]),
    ("stripe-count-zero", "shards.py", "return max(1, -(-payload_len // B))", "return max(0, -(-payload_len // B))",
     SHARDS),
]


def run(name, module, old, new, files, work: Path, tests: Path) -> tuple[str, float]:
    copy = work / name
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(tests, copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pytest.ini", copy)
    path = copy / "src" / "pmcode" / module
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times in {module}")
    path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(f"tests/{f}" for f in files)]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
        outcome = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "hung"
    shutil.rmtree(copy, ignore_errors=True)
    return outcome, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--tests", type=Path, default=ROOT / "tests")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    for name, module, old, new, files in MUTANTS:
        outcome, seconds = run(name, module, old, new, files, args.workdir, args.tests.resolve())
        print(f"{name}\t{module}\t{outcome}\t{seconds:.0f}s\t{' '.join(files)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
