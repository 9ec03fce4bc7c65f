#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``pmcode`` command line.

Run from the root of a source checkout (the directory holding ``src/pmcode``)::

    python3 perfbench/run.py --workload gf256-bulk --seed 1 --seconds 50 --trace 0

One closed-loop client issues one command at a time.  Every ``pmcode``
command runs in a fresh interpreter, as a user runs it, so an in-process
cache can only win what a user of the CLI would see.  Each command is
measured from outside: its CPU time, peak RSS and bytes read are taken from
the finished child, and its output is checked byte for byte against the
seeded input.  The end-to-end times are CPU time, which leaves out the time
the hypervisor gives the CPU to other guests (see README.md, Noise).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every command
both under :mod:`tracing` and plain, and prints the per-layer metrics.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK_ROOT = Path(".perfbench")
MIB = float(1 << 20)
KIB = 1 << 10
MIN_CYCLES = 3  # cycles per untraced run, so every per-run value is a median
DEADLINE_S = 170.0  # the whole run, so a hung command cannot outlive the 180 s limit

OPS = ("gen", "encode", "repair_sys", "repair_parity", "decode_sys", "decode_degraded")
DATA_OPS = OPS[1:]
READ_OPS = ("repair_sys", "repair_parity", "decode_sys", "decode_degraded")
# the ops that take well under a second at the seed; each cycle runs them
# twice, so that they rest on as much measured time as the others.  Encode
# runs twice as well: run once per cycle, it spread the most across seeds.
SHORT_OPS = ("repair_sys", "repair_parity", "decode_sys")
WRITE_OPS = ("encode", "repair_sys", "repair_parity")

# name, unit, better -- reported with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("encode_mib_s", "MiB/s", "higher"),
    ("decode_sys_mib_s", "MiB/s", "higher"),
    ("decode_degraded_mib_s", "MiB/s", "higher"),
    ("repair_sys_mib_s", "MiB/s", "higher"),
    ("repair_parity_mib_s", "MiB/s", "higher"),
    ("op_latency_p50_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("storage_overhead", "ratio", "lower"),
    ("repair_read_ratio", "ratio", "lower"),
)

# layer metric, unit, better, ops that exercise it -- reported per op with --trace 1
LAYER_METRICS = (
    ("cli.code_from_descriptor_s", "s", "lower", DATA_OPS),
    ("construct.build_s", "s", "lower", OPS),
    ("core.validate_properties_s", "s", "lower", OPS),
    ("linalg.rank_calls", "count", "lower", OPS),
    ("linalg.rank_s", "s", "lower", OPS),
    ("systematic.remap_generic_s", "s", "lower", OPS),
    ("analysis.apply_rows_bulk_s", "s", "lower", DATA_OPS),
    ("analysis.kernel_terms", "count", "lower", DATA_OPS),
    ("analysis.kernel_unit_terms", "count", "higher", DATA_OPS),
    ("analysis.kernel_ms_per_mib_term", "ms/MiB", "lower", DATA_OPS),
    ("cli.read_shard_s", "s", "lower", READ_OPS),
    ("cli.read_shard_mib", "MiB", "lower", READ_OPS),
    ("cli.write_shard_s", "s", "lower", WRITE_OPS),
    ("cli.write_shard_mib", "MiB", "lower", WRITE_OPS),
    ("cli.load_descriptor_s", "s", "lower", DATA_OPS),
    ("cli.self_s", "s", "lower", OPS),
    ("linalg.inverse_calls", "count", "lower", OPS),
    ("linalg.inverse_s", "s", "lower", OPS),
    ("proc.startup_s", "s", "lower", OPS),
    ("proc.wall_s", "s", "lower", OPS),
)
# name, unit, better -- whole-run per-layer metrics
RUN_LAYER_METRICS = (
    ("repair.helper_symbols_per_stripe", "count", "lower"),
    ("repair.naive_symbols_per_stripe", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every metric ``--trace 1`` reports: (name, unit, better)."""
    out = [
        (f"{op}.{metric}", unit, better)
        for metric, unit, better, ops in LAYER_METRICS
        for op in ops
    ]
    return out + list(RUN_LAYER_METRICS)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One code, seeded objects, and which object and nodes each op uses."""

    n: int
    k: int
    d: int
    field_args: tuple[str, ...]
    sizes: tuple[int, ...]  # bytes of each seeded object
    # op -> index into sizes, for the four ops after encode
    objects: dict
    # op -> fixed node(s); None means seeded (see plan)
    nodes: dict | None = None

    @property
    def alpha(self) -> int:
        return self.d - self.k + 1


_BULK = {op: 0 for op in READ_OPS}

WORKLOADS = {
    # sparse, shortened from [14,7,12]: the construction of the paper's
    # [17,8,15], with a code rebuild cheap enough that the bulk data path
    # takes most of encode and degraded decode
    "gf256-bulk": Workload(
        13, 6, 11, ("--gf256",), (8 << 20,), _BULK,
        {"repair_sys": 3, "repair_parity": 12,
         "decode_sys": tuple(range(0, 6)), "decode_degraded": tuple(range(7, 13))},
    ),
    # base regime d = 2k-2 over F_257: I/O, memory and the prime-field kernel
    "prime257-bulk": Workload(
        12, 6, 10, ("--q", "257"), (8 << 20,), _BULK,
        {"repair_sys": 1, "repair_parity": 10,
         "decode_sys": tuple(range(0, 6)), "decode_degraded": tuple(range(6, 12))},
    ),
    # The rest are not in BENCHMARK.json (see README.md).
    # the paper's headline [17,8,15], shortened from [18,9,16]
    "gf256-17-8-15-bulk": Workload(
        17, 8, 15, ("--gf256",), (8 << 20,), _BULK,
        {"repair_sys": 3, "repair_parity": 12,
         "decode_sys": tuple(range(0, 8)), "decode_degraded": tuple(range(9, 17))},
    ),
    # [17,8,15] on small objects: the fixed cost per command dominates
    "gf256-small-objects": Workload(
        17, 8, 15, ("--gf256",), (4 * KIB, 64 * KIB, 1 << 20),
        {"repair_sys": 0, "decode_sys": 1, "repair_parity": 2, "decode_degraded": 2},
    ),
    # exercises the harness end to end in seconds
    "smoke": Workload(
        8, 4, 6, ("--gf256",), (64 * KIB,), _BULK,
        {"repair_sys": 1, "repair_parity": 5,
         "decode_sys": tuple(range(0, 4)), "decode_degraded": tuple(range(4, 8))},
    ),
}


def make_inputs(wl: Workload, seed: int) -> list[bytes]:
    """The seeded objects; the program sees nothing else."""
    return [
        np.random.default_rng([seed, i]).integers(0, 256, size, dtype=np.uint8).tobytes()
        for i, size in enumerate(wl.sizes)
    ]


def plan(wl: Workload, seed: int) -> list[tuple[str, int, object]]:
    """One cycle of (op, object index, node or nodes).

    gen, the encodes, the repairs and decodes; then the encodes and SHORT_OPS again.
    """
    nodes = wl.nodes
    if nodes is None:
        rng = np.random.default_rng([seed, len(wl.sizes)])
        half = wl.k // 2
        nodes = {
            "repair_sys": int(rng.integers(0, wl.k)),
            "repair_parity": int(rng.integers(wl.k, wl.n)),
            "decode_sys": tuple(range(wl.k)),
            # half systematic, half parity, so the work does not depend on the seed
            "decode_degraded": tuple(sorted(
                [int(x) for x in rng.choice(wl.k, half, replace=False)]
                + [int(x) for x in rng.choice(np.arange(wl.k, wl.n), wl.k - half, replace=False)]
            )),
        }
    encodes = [("encode", i, None) for i in range(len(wl.sizes))]
    return (
        [("gen", None, None)] + encodes + [(op, wl.objects[op], nodes[op]) for op in READ_OPS]
        + encodes + [(op, wl.objects[op], nodes[op]) for op in SHORT_OPS]
    )


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

@dataclass
class Result:
    op: str
    wall_s: float
    cpu_s: float  # user + system time of the child
    rss_mib: float
    read_bytes: int  # rchar of the child
    exit_code: int
    spans: dict | None = None


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Spawns one command at a time and measures it from outside."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC.resolve()), os.environ.get("PYTHONPATH", "")) if p
        )
        self.stderr_path = work / "stderr.txt"

    def run(self, op: str, args: list[str], traced: bool) -> Result:
        if traced:
            spans_path = self.work / "spans.json"
            argv = [sys.executable, str(HERE / "tracing.py"), *args]
        else:
            argv = [sys.executable, "-m", "pmcode.cli", *args]
        env = self.env
        if traced:
            env = dict(env, PERFBENCH_SPANS=str(spans_path), PERFBENCH_LAUNCH=repr(time.time()))
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(self.stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - time.perf_counter()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            read_bytes = _rchar(pid)
        finally:
            os.close(pidfd)
            _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            print(f"perfbench: {op} exited {code}: {' '.join(args)}\n{tail}", file=sys.stderr)
        spans = None
        if traced and code == 0:
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        cpu = usage.ru_utime + usage.ru_stime
        return Result(op, wall, cpu, usage.ru_maxrss / 1024.0, read_bytes, code, spans)


def _rchar(pid: int) -> int:
    with open(f"/proc/{pid}/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise BenchError(f"/proc/{pid}/io has no rchar")


# ---------------------------------------------------------------------------
# the closed loop and its correctness oracle
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
        self.wl = wl
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.start = time.perf_counter()
        self.runner = Runner(work, self.start + DEADLINE_S)
        self.objects = make_inputs(wl, seed)
        self.steps = plan(wl, seed)
        self.code_dir = work / "code"
        self.descriptor = str(self.code_dir / "descriptor.json")
        self.gen_args = ["gen", "--n", str(wl.n), "--k", str(wl.k), "--d", str(wl.d),
                         *wl.field_args, "--out-dir", str(self.code_dir)]
        self.descriptor_bytes = b""
        self.attempted = 0
        self.failed = 0
        self.timed_out = False
        self.shards: dict[int, dict[int, tuple[int, bytes]]] = {}  # object -> node -> (size, sha256)
        self.baseline_read = 0
        self.samples: list[tuple[int, Result, int]] = []  # (cycle, result, user bytes)
        self.setup: list[Result] = []
        self.plain_pairs: list[tuple[Result, Result]] = []  # (traced, plain) of one command
        for i, data in enumerate(self.objects):
            (work / f"object{i}.bin").write_bytes(data)

    # -- commands ----------------------------------------------------------

    def _run(self, op: str, args: list[str], outputs: tuple[Path, ...] = ()) -> list[Result]:
        """Run the command plain; with --trace 1, traced first and then plain.

        The command's outputs are deleted before each run, so it writes new
        files.  ext4 starts writing a truncated and rewritten file to disk as
        soon as it is closed, and the disk's speed would enter the time.
        """
        if time.perf_counter() >= self.runner.deadline:
            self.timed_out = True
            return []
        runs = []
        for traced in (True, False) if self.trace else (False,):
            for path in outputs:
                _remove(path)
            runs.append(self.runner.run(op, args, traced=traced))
        if any(r.exit_code == -signal.SIGKILL for r in runs):
            self.timed_out = True
        if self.trace:
            self.plain_pairs.append((runs[0], runs[1]))
        return runs

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def run_setup(self) -> None:
        """The first gen, which every other command needs, and the read baseline."""
        for r in self._run("gen", self.gen_args):
            self._count(r.exit_code == 0)
            if r.exit_code != 0:
                raise BenchError("pmcode gen failed; is this a pmcode checkout?")
            self.setup.append(r)
        self.descriptor_bytes = Path(self.descriptor).read_bytes()
        if not self.trace:
            # what any command reads before it does its work: interpreter, imports
            self.baseline_read = self.runner.run("help", ["--help"], traced=False).read_bytes

    def _run_gen(self) -> None:
        """Set up again; the descriptor must come out byte-identical."""
        for r in self._run("gen", self.gen_args):
            ok = r.exit_code == 0 and Path(self.descriptor).read_bytes() == self.descriptor_bytes
            self._count(ok)
            if ok:
                self.setup.append(r)
            else:
                print("perfbench: gen failed or gave a different descriptor", file=sys.stderr)

    def run_step(self, cycle: int, op: str, obj: int, nodes) -> None:
        if op == "gen":
            self._run_gen()
            return
        shard_dir = self.work / f"shards{obj}"
        if op == "encode":
            args = ["encode", "--descriptor", self.descriptor,
                    "--data", str(self.work / f"object{obj}.bin"), "--out-dir", str(shard_dir)]
            check = lambda: self._check_encode(obj, shard_dir)
            user_bytes = len(self.objects[obj])
        elif op.startswith("repair"):
            out = self.work / "rebuilt.shard"
            args = ["repair", "--descriptor", self.descriptor, "--shard-dir", str(shard_dir),
                    "--failed", str(nodes), "--out", str(out)]
            check = lambda: obj in self.shards and _fingerprint(out.read_bytes()) == self.shards[obj][nodes]
            user_bytes = self.shards[obj][nodes][0] if obj in self.shards else 0
        else:
            out = self.work / "decoded.bin"
            args = ["decode", "--descriptor", self.descriptor, "--shard-dir", str(shard_dir),
                    "--nodes", ",".join(map(str, nodes)), "--out", str(out)]
            check = lambda: out.read_bytes() == self.objects[obj]
            user_bytes = len(self.objects[obj])
        for r in self._run(op, args, (shard_dir,) if op == "encode" else (out,)):
            try:
                ok = r.exit_code == 0 and check()
            except OSError:  # an output the command should have written is missing
                ok = False
            self._count(ok)
            if ok:
                self.samples.append((cycle, r, user_bytes))
            else:
                print(f"perfbench: {op} on object {obj} gave wrong output", file=sys.stderr)

    def _check_encode(self, obj: int, shard_dir: Path) -> bool:
        """Every shard present; systematic nodes hold the raw bytes; repeats identical."""
        wl = self.wl
        data = self.objects[obj]
        shards = {i: (shard_dir / f"node_{i:03d}.shard").read_bytes() for i in range(wl.n)}
        if obj in self.shards:
            return {i: _fingerprint(raw) for i, raw in shards.items()} == self.shards[obj]
        b = wl.k * wl.alpha
        stripes = max(1, math.ceil(len(data) / b))
        message = np.frombuffer(data.ljust(stripes * b, b"\0"), dtype=np.uint8).reshape(stripes, b).T
        dtype = np.dtype(np.uint8) if "--gf256" in wl.field_args else np.dtype(">u4")
        body = wl.alpha * stripes * dtype.itemsize
        for i, raw in shards.items():
            if len(raw) < body or (i < wl.k and raw[-body:] != message[i * wl.alpha:(i + 1) * wl.alpha].astype(dtype).tobytes()):
                return False
        self.shards[obj] = {i: _fingerprint(raw) for i, raw in shards.items()}
        return True

    def run_loop(self) -> None:
        loop_start = time.perf_counter()
        min_cycles = 1 if self.trace else MIN_CYCLES
        cycle = 0
        while not self.timed_out:
            for op, obj, nodes in self.steps:
                self.run_step(cycle, op, obj, nodes)
            cycle += 1
            elapsed = time.perf_counter() - loop_start
            # stop at the cycle boundary nearest to --seconds
            if cycle >= min_cycles and elapsed + 0.5 * elapsed / cycle >= self.seconds:
                break

    # -- metrics -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        def rate(op):
            per_cycle: dict[int, list[float]] = {}
            for cycle, r, nbytes in self.samples:
                if r.op == op:
                    acc = per_cycle.setdefault(cycle, [0.0, 0.0])
                    acc[0] += nbytes / MIB
                    acc[1] += r.cpu_s
            return _median([mib / s for mib, s in per_cycle.values()])

        data = [r for _, r, _ in self.samples]
        repairs = [(r, n) for _, r, n in self.samples if r.op.startswith("repair")]
        user = sum(len(x) for x in self.objects)
        stored = sum(size for shards in self.shards.values() for size, _ in shards.values())
        return {
            "setup_s": _median([r.cpu_s for r in self.setup]),
            "encode_mib_s": rate("encode"),
            "decode_sys_mib_s": rate("decode_sys"),
            "decode_degraded_mib_s": rate("decode_degraded"),
            "repair_sys_mib_s": rate("repair_sys"),
            "repair_parity_mib_s": rate("repair_parity"),
            "op_latency_p50_s": _median([r.cpu_s for r in data]),
            "peak_rss_mib": max([r.rss_mib for r in self.setup + data], default=0.0),
            "storage_overhead": stored / user if self.shards else 0.0,
            "repair_read_ratio": (
                sum(r.read_bytes - self.baseline_read for r, _ in repairs) / sum(n for _, n in repairs)
                if repairs else 0.0
            ),
        }

    def per_layer(self) -> dict[str, float]:
        by_op: dict[str, list[dict]] = {op: [] for op in OPS}
        for r in self.setup + [r for _, r, _ in self.samples]:
            if r.spans is not None:
                by_op[r.op].append(tracing.op_metrics(r.spans))
        # wall time of the plain runs, so that the end-to-end metrics' CPU
        # time has its wall-clock counterpart
        wall = {op: [{"proc.wall_s": p.wall_s} for _, p in self.plain_pairs if p.op == op] for op in OPS}
        out = {}
        for metric, _, _, ops in LAYER_METRICS:
            for op in ops:
                runs = wall[op] if metric == "proc.wall_s" else by_op[op]
                out[f"{op}.{metric}"] = _median([m[metric] for m in runs])
        repair = by_op["repair_sys"] + by_op["repair_parity"]
        out["repair.helper_symbols_per_stripe"] = _median([m["repair.helper_symbols_per_stripe"] for m in repair])
        out["repair.naive_symbols_per_stripe"] = _median([m["analysis.kernel_rows_in"] for m in by_op["decode_sys"]])
        passes = max(1, len({c for c, _, _ in self.samples}))
        out["trace.overhead_s"] = sum(t.wall_s - p.wall_s for t, p in self.plain_pairs) / passes
        return out


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _fingerprint(raw: bytes) -> tuple[int, bytes]:
    return len(raw), hashlib.sha256(raw).digest()


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def provenance() -> dict:
    """The machine and source a number was taken on."""
    info = {
        "git_sha": None,
        "src_sha256": _tree_sha256(SRC / "pmcode"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "l3": None,
    }
    if Path(".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        info["git_sha"] = sha.stdout.strip() or None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return info


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pmcode" / "cli.py").is_file():
        print("perfbench: run from the root of a pmcode checkout (src/pmcode/cli.py not found)",
              file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        bench.run_setup()
        bench.run_loop()
        if args.trace:
            metrics, units = bench.per_layer(), {n: u for n, u, _ in per_layer_metrics()}
        else:
            metrics, units = bench.end_to_end(), {n: u for n, u, _ in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{bench.attempted} commands, ops_failed_frac {bench.failed / bench.attempted:.4f}"
          + (" (deadline hit)" if bench.timed_out else ""))
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6f} {units[name]}")
    if args.trace:
        plain = sum(p.wall_s for _, p in bench.plain_pairs)
        traced = sum(t.wall_s for t, _ in bench.plain_pairs)
        print(f"tracing overhead: {traced - plain:+.3f} s ({traced:.3f} s traced, {plain:.3f} s plain, "
              f"{len(bench.plain_pairs)} commands)")
    result = {
        "correct": bench.failed == 0 and not bench.timed_out,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
