"""Acceptance checks for the package, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing pytest's capture so the
lines always reach the console) and pins its own runtime budget and
tolerances as constants inside the test.  Reference values are the
known-good matrices in golden_vectors.py.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from pmcode.analysis import encode_stripes, random_stripes
from pmcode.construct import (
    build_rbt_systematic,
    build_sparse_systematic,
    build_vanilla_systematic,
    equivalence_check,
    sparsify_encoding,
)
from pmcode.core import (
    PmVandermondeCode,
    build_params,
    build_vandermonde_encoding,
    random_message,
)
from pmcode.field import field_of_order
from pmcode.linalg import Matrix
from pmcode.report import benchmark_pair, sparsity_report
from pmcode.systematic import (
    inclusion_remap_matrix,
    packed_coords,
    remap_generic,
)

from golden_vectors import G, G_SPARSE, G_SPARSE_SYS, G_SYS, PSI, PSI_SPARSE

F11 = field_of_order(11)
GF256 = field_of_order(256)


@contextmanager
def criterion(capfd, num: int, description: str, budget_s: float = None):
    """Run one acceptance criterion, print PASS/FAIL, enforce the budget.

    Yields an emit() callable for values the criterion requires to be
    logged; capture is suspended around every line so the report always
    reaches the console.
    """

    def emit(text: str) -> None:
        with capfd.disabled():
            print(text, flush=True)

    start = time.perf_counter()
    try:
        yield emit
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, budget {budget_s:.0f}s"
            )
    except BaseException:
        emit(f"FAIL criterion {num}: {description}")
        raise
    emit(f"PASS criterion {num}: {description} ({time.perf_counter() - start:.2f}s)")


@lru_cache(maxsize=None)
def sparse_code(n, k, d, q=None):
    field = field_of_order(q) if q else None
    return build_sparse_systematic(n, k, d, field=field)


@lru_cache(maxsize=None)
def vanilla_code(n, k, d, q=None):
    field = field_of_order(q) if q else None
    return build_vanilla_systematic(n, k, d, field=field)


def test_criterion_01_golden_vectors(capfd):
    with criterion(capfd, 1, "known-good [8,4,6] matrices reproduced exactly", budget_s=1.0):
        enc = build_vandermonde_encoding(build_params(8, 4, 6, F11))
        assert enc.psi == Matrix(F11, PSI)
        code = PmVandermondeCode(enc)
        assert code.generator == Matrix(F11, G)
        assert remap_generic(code).g_sys == Matrix(F11, G_SYS)

        enc_sparse = sparsify_encoding(enc)
        assert enc_sparse.psi == Matrix(F11, PSI_SPARSE)
        sparse = PmVandermondeCode(enc_sparse)
        assert sparse.generator == Matrix(F11, G_SPARSE)
        assert remap_generic(sparse).g_sys == Matrix(F11, G_SPARSE_SYS)


def test_criterion_02_d_sparse_rows_base_regime(capfd):
    with criterion(capfd, 2, "base-regime sparse generators are d-sparse per row", budget_s=10.0):
        for n, k, d in ((8, 4, 6), (12, 6, 10), (14, 7, 12)):
            code = build_sparse_systematic(n, k, d)
            counts = code.generator.nonzeros_per_row()
            assert max(counts) <= d, (n, k, d, max(counts))
            assert len(counts) == n * code.params.alpha


def test_criterion_03_shortened_sparsity_profile(capfd):
    with criterion(
        capfd,
        3, "shortened parity blocks: exactly i rows <= k nonzeros, rest <= d", budget_s=30.0
    ):
        for n, k, d in ((17, 8, 15), (12, 5, 10)):
            i = d - 2 * k + 2
            assert i in (1, 2)
            code = build_sparse_systematic(n, k, d)
            alpha = code.params.alpha
            counts = code.generator.nonzeros_per_row()
            for node in range(k, n):
                block = counts[node * alpha : (node + 1) * alpha]
                small = sum(1 for c in block if c <= k)
                assert small == i, (n, k, d, node, block)
                assert all(c <= d for c in block), (n, k, d, node, block)
                assert sum(1 for c in block if c <= d) - small == k - 1


def test_criterion_04_parity_zero_fractions(capfd):
    with criterion(capfd, 4, "[17,8,15] parity zero fraction: sparse >= 0.75, vanilla <= 0.25") as emit:
        sparse = sparsity_report(sparse_code(17, 8, 15))
        vanilla = sparsity_report(vanilla_code(17, 8, 15))
        emit(f"sparse parity zero fraction  = {sparse.parity_zero_fraction:.4f}")
        emit(f"vanilla parity zero fraction = {vanilla.parity_zero_fraction:.4f}")
        assert sparse.parity_zero_fraction >= 0.75
        assert vanilla.parity_zero_fraction <= 0.25


def test_criterion_05_exhaustive_decode_and_repair(capfd):
    with criterion(
        capfd,
        5, "[8,4,6]: 70/70 subsets decode, 56/56 repairs rebuild with d=6 scalars", budget_s=10.0
    ):
        code = build_sparse_systematic(8, 4, 6)
        rng = random.Random(5)
        m = random_message(code.params, rng)
        stored = code.stored_rows(m)

        subsets = list(itertools.combinations(range(8), 4))
        assert len(subsets) == 70
        for ids in subsets:
            assert code.decode(ids, [stored[i] for i in ids]) == m, ids

        cases = [
            (f, helpers)
            for f in range(8)
            for helpers in itertools.combinations([x for x in range(8) if x != f], 6)
        ]
        assert len(cases) == 56
        for f, helpers in cases:
            bundle = code.run_repair(stored, f, helpers)
            assert list(bundle.rebuilt) == stored[f], (f, helpers)
            assert len(bundle.symbols) == 6, (f, helpers)


def test_criterion_06_literal_transfer_repairs(capfd):
    with criterion(capfd, 6, "repair-by-transfer: helpers send stored symbol j verbatim"):
        code = build_rbt_systematic(8, 4, 6)
        alpha = code.params.alpha
        rng = random.Random(6)
        m = random_message(code.params, rng)
        stored = code.stored_rows(m)
        unit = [[1 if t == j else 0 for t in range(alpha)] for j in range(alpha)]
        for j in range(alpha):
            assert code.repair_vector(j) == unit[j]
            for i in range(8):
                if i == j:
                    continue
                assert code.helper_symbol(stored[i], j) == stored[i][j], (i, j)
            helpers = [x for x in range(8) if x != j][:6]
            bundle = code.run_repair(stored, j, helpers)
            assert list(bundle.rebuilt) == stored[j]
            assert list(bundle.symbols) == [stored[h][j] for h in helpers]


def test_criterion_07_transform_equivalence(capfd):
    with criterion(
        capfd,
        7, "basis-change equivalence on 100 messages, rotated psi matches exactly"
    ):
        enc = build_vandermonde_encoding(build_params(8, 4, 6, F11))
        p = enc.phi.take_rows(range(3)).transpose()
        result = equivalence_check(enc, p, trials=100, seed=7)
        assert result.ok and result.trials == 100
        assert result.encoding.psi == sparsify_encoding(enc).psi
        assert result.encoding.psi == Matrix(F11, PSI_SPARSE)


def test_criterion_08_inclusion_remap_zero_pattern(capfd):
    with criterion(
        capfd,
        8, "inclusion-route remap is column-block-diagonal (off-pattern entries 0)"
    ):
        enc = sparsify_encoding(build_vandermonde_encoding(build_params(8, 4, 6, F11)))
        code = PmVandermondeCode(enc)
        remap = inclusion_remap_matrix(code)
        params = code.params

        def cell(t):
            _, i, j = packed_coords(params, t)
            return {i, j}

        for t in range(params.B):
            for s in range(params.B):
                if remap.data[t][s]:
                    assert cell(t) <= cell(s), (t, s)


# pinned benchmark protocol shared by criteria 9 and 10
BENCH_PARAMS = (17, 8, 15)
BENCH_MIB = 64.0
BENCH_REPS = 5
BENCH_SEED = 0


def test_criterion_09_encoding_speedup(capfd):
    with criterion(
        capfd,
        9, "[17,8,15]/GF(256) >= 64 MiB: speedup >= 2.5, within 30% of count model"
    ) as emit:
        n, k, d = BENCH_PARAMS
        sparse = sparse_code(n, k, d, 256)
        dense = vanilla_code(n, k, d, 256)
        rs, rd, measured, predicted = benchmark_pair(
            sparse, dense, workload_mib=BENCH_MIB, reps=BENCH_REPS, seed=BENCH_SEED
        )
        emit(f"workload: {rs.message_bytes / (1 << 20):.0f} MiB x {BENCH_REPS} reps (median)")
        emit(f"sparse : {rs.seconds_median:.3f}s  ({rs.throughput_mib_s:.0f} MiB/s)")
        emit(f"dense  : {rd.seconds_median:.3f}s  ({rd.throughput_mib_s:.0f} MiB/s)")
        emit(f"measured speedup = {measured:.2f}, predicted = {predicted:.2f}")
        assert rs.message_bytes >= 64 * (1 << 20)
        assert measured >= 2.5
        assert abs(measured - predicted) / predicted <= 0.30


def test_criterion_10_decoder_and_kernel_agreement(capfd):
    with criterion(
        capfd,
        10, "identity vs generic decode on 100 messages; sparse/dense kernels bit-equal"
    ):
        for n, k, d in ((8, 4, 6), (12, 6, 10)):
            code = sparse_code(n, k, d)
            base = code.base
            rng = random.Random(10)
            ids = list(range(k))
            for _ in range(100):
                m = random_message(code.params, rng)
                stored = base.stored_rows(m)
                rows = [stored[i] for i in ids]
                via_identity = base.decode(ids, rows, method="identity")
                via_generic = base.decode(ids, rows, method="generic")
                assert via_identity == via_generic == m

        n, k, d = BENCH_PARAMS
        for code in (sparse_code(n, k, d, 256), vanilla_code(n, k, d, 256)):
            p = code.params
            stripes = math.ceil(BENCH_MIB * (1 << 20) / p.B)
            data = random_stripes(p.field, p.B, stripes, BENCH_SEED)
            fast = encode_stripes(code, data, skip_zeros=True)
            slow = encode_stripes(code, data, skip_zeros=False)
            assert np.array_equal(fast, slow)
