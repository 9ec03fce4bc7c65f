"""Every small code through the bulk kernels, checked against the exact path and the packet oracle.

The sweep covers each (n, k, d) with 3 <= n <= 9 under the vanilla, sparse
and rbt constructions, over GF(2^8) and over the default prime field.  For
each code it runs a bulk encode, the default repair of every node (the plan
``repair_plan`` chooses, checked against both plans' costs), a d-helper
repair of every node from seeded helpers, and three decodes.  The encode is
checked against ``packet_oracle`` over GF(2^8) and against the exact matrix
product over the prime field; every repair and decode must give back the
encoded rows and the data.  One stripe also goes through the exact
per-stripe path: ``run_repair``, each chosen plan's program, and ``decode``.
rbt builds only d = 2k-2 and must refuse every other d.
"""

import random

import numpy as np
import pytest

from pmcode import analysis
from pmcode.analysis import apply_rows_bulk, decode_stripes, encode_stripes, random_stripes, repair_stripes
from pmcode.construct import build_rbt_systematic, build_sparse_systematic, build_vanilla_systematic
from pmcode.core import random_message
from pmcode.errors import InvalidRegime
from pmcode.field import field_of_order
from pmcode.linalg import Matrix, kernel_cost

from packet_oracle import packet_oracle

PACKET = 2
STRIPES = 43  # two blocks of 16 stripes, a partial block of one 1-byte packet, and 3 stripes on the exact path
BUILDERS = {"vanilla": build_vanilla_systematic, "sparse": build_sparse_systematic, "rbt": build_rbt_systematic}


@pytest.fixture(autouse=True)
def small_packets(monkeypatch):
    monkeypatch.setattr(analysis, "PACKET", PACKET)


def _exact(field, mat, data: np.ndarray) -> np.ndarray:
    """``mat`` on the columns of ``data`` by the exact path: packets through the oracle, prime symbols by ``@``."""
    if field.kind == "binary8":
        return packet_oracle(field, mat, data, PACKET)
    return np.array((mat @ Matrix(field, data.tolist())).data, dtype=np.int64)


def _check_code(code, seed):
    p = code.params
    n, k, d, alpha, field = p.n, p.k, p.d, p.alpha, p.field
    data = random_stripes(field, p.B, STRIPES, seed=seed)
    stored = encode_stripes(code, data)
    assert np.array_equal(stored, _exact(field, code.generator, data))
    node = lambda i: stored[i * alpha : (i + 1) * alpha]  # noqa: E731
    rng = random.Random(seed)
    message = random_message(p, rng)
    exact = code.stored_rows(message)

    for failed in range(n):
        others = [i for i in range(n) if i != failed]
        rows, helper_program = code.repair_program(failed, others[:d])
        helper = (d * len(rows), kernel_cost(helper_program))
        rebuild = (p.B, kernel_cost(code.rebuild_program(failed, others[:k])))
        plan = code.repair_plan(failed, range(n))
        assert plan.rebuild == (rebuild < helper), (failed, helper, rebuild)
        assert (plan.symbols, kernel_cost(plan.program)) == min(helper, rebuild)
        inputs = np.vstack([node(i)[list(plan.rows)] for i in plan.nodes])
        assert np.array_equal(apply_rows_bulk(field, plan.program, inputs), node(failed)), failed
        column = Matrix(field, [[exact[i][j]] for i in plan.nodes for j in plan.rows])
        assert [r[0] for r in (plan.program @ column).data] == exact[failed], failed

        helpers = sorted(rng.sample(others, d))
        selected, _ = code.repair_program(failed, helpers)
        sent = np.vstack([node(h)[list(selected)] for h in helpers])
        assert np.array_equal(repair_stripes(code, failed, helpers, sent), node(failed)), (failed, helpers)
        assert list(code.run_repair(exact, failed, helpers).rebuilt) == exact[failed]

    for ids in (list(range(k)), list(range(n - k, n)), sorted(rng.sample(range(n), k))):
        assert np.array_equal(decode_stripes(code, ids, np.vstack([node(i) for i in ids])), data), ids
        assert code.decode(ids, [exact[i] for i in ids]) == message, ids


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("construction", sorted(BUILDERS))
@pytest.mark.parametrize("q", [256, None], ids=["gf256", "default-prime"])
def test_every_small_code_repairs_and_decodes_through_the_bulk_path(n, construction, q):
    field = field_of_order(q) if q else None
    built = 0
    for k in range(2, n):
        for d in range(2 * k - 2, n):
            try:
                code = BUILDERS[construction](n, k, d, field=field)
            except InvalidRegime:
                assert construction == "rbt" and d != 2 * k - 2, (n, k, d)
                continue
            _check_code(code, seed=n * 100 + k * 10 + d)
            built += 1
    # every d in 2k-2..n-1 builds, except rbt, which builds only d = 2k-2
    expected = sum(1 for k in range(2, n) for d in range(2 * k - 2, n) if construction != "rbt" or d == 2 * k - 2)
    assert built == expected
