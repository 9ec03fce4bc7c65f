"""Reports on a code: generator sparsity, certification and encoding throughput.

The command line loads this module only for ``certify``, ``analyze`` and
``bench``, so the bulk commands never compile it or import ``statistics``.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

from .analysis import encode_stripes, random_stripes
from .core import CheckResult, CodeParams, LinearCode, random_message, subset_cases, validate_properties
from .errors import PmCodeError, PropertyViolation
from .linalg import Matrix


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparsityReport:
    label: str
    params: CodeParams
    pattern: tuple  # one '.'/'*' string per generator row

    @property
    def row_nonzeros(self) -> tuple:
        return tuple(row.count("*") for row in self.pattern)

    @property
    def per_node_max(self) -> tuple:
        counts, alpha = self.row_nonzeros, self.params.alpha
        return tuple(max(counts[i * alpha : (i + 1) * alpha]) for i in range(self.params.n))

    @property
    def zero_fraction(self) -> float:
        return _zero_fraction(self.pattern)

    @property
    def parity_zero_fraction(self) -> float:
        return _zero_fraction(self.pattern[self.params.B :])

    def to_text(self) -> str:
        counts = self.row_nonzeros
        lines = [
            f"label: {self.label}",
            f"params: {self.params}",
            f"zero_fraction: {self.zero_fraction:.6f}",
            f"parity_zero_fraction: {self.parity_zero_fraction:.6f}",
            f"max_row_nonzeros: {max(counts)}",
            f"row_nonzeros: {' '.join(str(c) for c in counts)}",
            f"per_node_max: {' '.join(str(c) for c in self.per_node_max)}",
            "pattern:",
        ]
        lines.extend("  " + row for row in self.pattern)
        return "\n".join(lines) + "\n"

    def to_tsv_rows(self) -> list[str]:
        alpha = self.params.alpha
        return [
            "\t".join(
                [
                    self.label,
                    _tsv_params(self.params),
                    str(t // alpha),
                    str(t % alpha),
                    str(nnz),
                ]
            )
            for t, nnz in enumerate(self.row_nonzeros)
        ]


def _zero_fraction(pattern) -> float:
    return sum(row.count(".") for row in pattern) / sum(len(row) for row in pattern)


def _tsv_params(p: CodeParams) -> str:
    return f"{p.n}/{p.k}/{p.d}/{p.field.order}"


def sparsity_report(code: LinearCode) -> SparsityReport:
    pattern = tuple("".join("*" if x else "." for x in row) for row in code.generator.data)
    return SparsityReport(label=code.label, params=code.params, pattern=pattern)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationRecord:
    label: str
    params: CodeParams
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"label: {self.label}",
            f"params: {self.params}",
            f"seed: {self.seed}",
            f"passed: {self.passed}",
        ]
        for c in self.checks:
            status = "ok" if c.ok else f"FAILED {list(c.failures[:5])}"
            lines.append(f"check {c.name}: {c.mode} cases={c.cases} {status}")
        return "\n".join(lines) + "\n"

    def to_tsv_rows(self) -> list[str]:
        return [
            "\t".join(
                [self.label, c.name, c.mode, str(c.cases), str(len(c.failures)), "ok" if c.ok else "fail"]
            )
            for c in self.checks
        ]


def _failed_cases(cases, holds) -> tuple:
    """The cases for which ``holds`` is false or raises a PmCodeError (a singular block, say)."""
    failed = []
    for case in cases:
        try:
            if holds(case):
                continue
        except PmCodeError:
            pass
        failed.append(case)
    return tuple(failed)


# certify's fixed budgets: every case when there are at most *_LIMIT, else
# *_SAMPLES seeded draws; DECODES of the k-subsets are also decoded.
PROPERTY_LIMIT, PROPERTY_SAMPLES = 100_000, 50
SUBSET_LIMIT, SUBSET_SAMPLES = 1000, 50
DECODES = 10
REPAIR_LIMIT, REPAIR_SAMPLES = 1000, 50


def certify(code: LinearCode, seed: int = 0) -> CertificationRecord:
    """Re-derive the code's guarantees from scratch and report every failure.

    One row per check, with the mode and case count it ran: ``property-1``
    to ``-3`` of the underlying encoding matrix when there is one (a
    violation is one failed row with its witness; the other checks still
    run), ``k-subset-rank``, ``decode-roundtrip`` (exhaustive only when it
    decodes every k-subset), ``repair-exact`` (exact, with d scalars moved),
    ``repair-plans`` (the programs that repair runs give the stored rows)
    and ``systematic-top-block`` when a systematic layout is claimed.  The
    budgets are the module constants above; ``seed`` seeds every draw.
    """
    p = code.params
    rng = random.Random(seed)
    checks = []

    enc = code.enc
    if enc is not None:
        try:
            checks += validate_properties(
                enc.params, enc.phi, list(enc.lam), PROPERTY_LIMIT, PROPERTY_SAMPLES, seed
            )
        except PropertyViolation as exc:
            checks.append(exc.check)

    # reconstruction: every k-subset's stacked block must have rank B
    def full_rank(ids):
        return Matrix.vstack([code.node_block(i) for i in ids]).rank() == p.B

    mode, cases = subset_cases(p.n, p.k, SUBSET_LIMIT, SUBSET_SAMPLES, rng)
    checks.append(CheckResult("k-subset-rank", mode, len(cases), _failed_cases(cases, full_rank)))

    m = random_message(p, rng)
    stored = code.stored_rows(m)

    def decodes_exactly(ids):
        return code.decode(ids, [stored[i] for i in ids]) == m

    decodes = cases if len(cases) <= DECODES else rng.sample(cases, DECODES)
    if len(decodes) < len(cases):
        mode = "sampled"
    checks.append(CheckResult("decode-roundtrip", mode, len(decodes), _failed_cases(decodes, decodes_exactly)))

    # repair: exact rebuild, d scalars moved.  A (failed, helpers) case is a
    # (d+1)-subset with one member failed: all of them, or one drawn per subset.
    def repairs_exactly(case):
        bundle = code.run_repair(stored, *case)
        return list(bundle.rebuilt) == stored[case[0]] and len(bundle.symbols) == p.d

    mode, groups = subset_cases(p.n, p.d + 1, REPAIR_LIMIT // (p.d + 1), REPAIR_SAMPLES, rng)
    repairs = [
        (g[j], g[:j] + g[j + 1 :])
        for g in groups
        for j in (range(p.d + 1) if mode == "exhaustive" else [rng.randrange(p.d + 1)])
    ]
    checks.append(CheckResult("repair-exact", mode, len(repairs), _failed_cases(repairs, repairs_exactly)))

    # the plans that repair runs, through the exact Program @: each of repair-exact's helper
    # sets, and per failed node repair's pick from every other node and the rebuild from k
    plan_of = {"helpers": code.helper_plan, "repair": code.repair_plan, "rebuild": code.rebuild_plan}

    def plan_repairs_exactly(case):
        kind, failed, nodes = case
        plan = plan_of[kind](failed, nodes)
        column = Matrix(p.field, [[stored[h][j]] for h in plan.nodes for j in plan.rows])
        return [row[0] for row in (plan.program @ column).data] == stored[failed]

    plans = [("helpers", f, helpers) for f, helpers in repairs]
    for f in range(p.n):
        others = tuple(i for i in range(p.n) if i != f)
        plans += [("repair", f, others), ("rebuild", f, others[: p.k])]
    checks.append(CheckResult("repair-plans", mode, len(plans), _failed_cases(plans, plan_repairs_exactly)))

    perm = code.column_permutation
    if perm is not None:
        bad = []
        for t in range(p.B):
            row = code.generator.data[t]
            if any(x != (1 if s == perm[t] else 0) for s, x in enumerate(row)):
                bad.append(t)
                if len(bad) >= 5:
                    break
        checks.append(CheckResult("systematic-top-block", "exhaustive", p.B, tuple(bad)))

    return CertificationRecord(label=code.label, params=p, seed=seed, checks=tuple(checks))


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchResult:
    label: str
    params: CodeParams
    stripes: int
    seconds_all: tuple
    generator_nonzeros: int
    parity_nonzeros: int

    @property
    def reps(self) -> int:
        return len(self.seconds_all)

    @property
    def message_bytes(self) -> int:
        return self.stripes * self.params.B

    @property
    def seconds_median(self) -> float:
        return statistics.median(self.seconds_all)

    @property
    def throughput_mib_s(self) -> float:
        med = self.seconds_median
        return self.message_bytes / (1 << 20) / med if med > 0 else float("inf")

    def to_text(self) -> str:
        return (
            f"label: {self.label}\n"
            f"params: {self.params}\n"
            f"stripes: {self.stripes}\n"
            f"message_bytes: {self.message_bytes}\n"
            f"reps: {self.reps}\n"
            f"seconds_median: {self.seconds_median:.6f}\n"
            f"seconds_all: {' '.join(f'{s:.6f}' for s in self.seconds_all)}\n"
            f"throughput_mib_s: {self.throughput_mib_s:.3f}\n"
            f"generator_nonzeros: {self.generator_nonzeros}\n"
            f"parity_nonzeros: {self.parity_nonzeros}\n"
        )

    def to_tsv_row(self) -> str:
        return "\t".join(
            [
                self.label,
                _tsv_params(self.params),
                str(self.stripes),
                str(self.message_bytes),
                f"{self.seconds_median:.6f}",
                f"{self.throughput_mib_s:.3f}",
                str(self.parity_nonzeros),
            ]
        )


def parity_nonzeros(code: LinearCode) -> int:
    return sum(code.generator.nonzeros_per_row()[code.params.B :])


def predicted_speedup(sparse: LinearCode, dense: LinearCode) -> float:
    """Arithmetic-count model: encoding work scales with parity nonzeros."""
    return parity_nonzeros(dense) / parity_nonzeros(sparse)


def benchmark_pair(
    sparse: LinearCode,
    dense: LinearCode,
    workload_mib: float = 64.0,
    reps: int = 5,
    seed: int = 0,
) -> tuple[BenchResult, BenchResult, float, float]:
    """Benchmark a sparse code against its dense counterpart, of the same B and field.

    Both encode one seeded workload, single-threaded: at least
    ``workload_mib`` of file bytes at one byte per message symbol, as
    ``pmcode encode`` carries them, padded up to whole stripes.  After one
    untimed warmup of each, the reps alternate, sparse then dense, so that a
    drift in CPU speed during the run moves both medians alike.  Returns
    (sparse result, dense result, measured speedup, predicted speedup); the
    prediction is the parity nonzero-count ratio.
    """
    p = sparse.params
    stripes = max(1, math.ceil(workload_mib * (1 << 20) / p.B))
    data = random_stripes(p.field, p.B, stripes, seed)
    codes = (sparse, dense)
    for code in codes:
        encode_stripes(code, data)  # warmup
    times = ([], [])
    for _ in range(reps):
        for code, ts in zip(codes, times):
            t0 = time.perf_counter()
            encode_stripes(code, data)
            ts.append(time.perf_counter() - t0)
    rs, rd = (
        BenchResult(label=code.label, params=code.params, stripes=stripes, seconds_all=tuple(ts),
                    generator_nonzeros=sum(code.generator.nonzeros_per_row()), parity_nonzeros=parity_nonzeros(code))
        for code, ts in zip(codes, times)
    )
    return rs, rd, rd.seconds_median / rs.seconds_median, predicted_speedup(sparse, dense)
