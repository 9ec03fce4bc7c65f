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
rbt builds only d = 2k-2 and must refuse every other d.  A seeded
``hypothesis`` sample takes the same checks to codes of up to 16 nodes, for
one drawn node and one drawn set of k nodes each.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcode import analysis
from pmcode.analysis import apply_rows_bulk, encode_stripes, random_stripes
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


def _check_code(code, seed, nodes=None, decodes=None):
    """The checks above, repairing each of ``nodes`` (every node by default) and decoding from each of
    ``decodes`` (by default the first k nodes, the last k and a seeded draw)."""
    p = code.params
    n, k, d, alpha, field = p.n, p.k, p.d, p.alpha, p.field
    data = random_stripes(field, p.B, STRIPES, seed=seed)
    stored = encode_stripes(code, data)
    assert np.array_equal(stored, _exact(field, code.generator, data))
    node = lambda i: stored[i * alpha : (i + 1) * alpha]  # noqa: E731
    rng = random.Random(seed)
    message = random_message(p, rng)
    exact = code.stored_rows(message)

    for failed in range(n) if nodes is None else nodes:
        others = [i for i in range(n) if i != failed]
        helper_plan = code.helper_plan(failed, others[:d])
        helper = (d * len(helper_plan.rows), kernel_cost(helper_plan.program))
        rebuild = (p.B, kernel_cost(code.rebuild_plan(failed, others[:k]).program))
        plan = code.repair_plan(failed, range(n))
        assert plan.rebuild == (rebuild < helper), (failed, helper, rebuild)
        assert (plan.symbols, kernel_cost(plan.program)) == min(helper, rebuild)
        inputs = np.vstack([node(i)[list(plan.rows)] for i in plan.nodes])
        assert np.array_equal(apply_rows_bulk(field, plan.program, inputs), node(failed)), failed
        column = Matrix(field, [[exact[i][j]] for i in plan.nodes for j in plan.rows])
        assert [r[0] for r in (plan.program @ column).data] == exact[failed], failed

        helpers = sorted(rng.sample(others, d))
        helper_plan = code.helper_plan(failed, helpers)
        sent = np.vstack([node(h)[list(helper_plan.rows)] for h in helpers])
        assert np.array_equal(apply_rows_bulk(field, helper_plan.program, sent), node(failed)), (failed, helpers)
        assert list(code.run_repair(exact, failed, helpers).rebuilt) == exact[failed]

    for ids in decodes or (list(range(k)), list(range(n - k, n)), sorted(rng.sample(range(n), k))):
        rows = np.vstack([node(i) for i in ids])
        assert np.array_equal(apply_rows_bulk(field, code.decode_program(ids), rows), data), ids
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


@st.composite
def code_choices(draw):
    """(construction, n, k, d, q) with 3 <= n <= 16, 2 <= k and 2k-2 <= d <= n-1; q None is the default prime."""
    n = draw(st.integers(3, 16))
    k = draw(st.integers(2, (n + 1) // 2))
    d = draw(st.integers(2 * k - 2, n - 1))
    return draw(st.sampled_from(sorted(BUILDERS))), n, k, d, draw(st.sampled_from([256, None]))


# 80 examples build 73 codes, 40 of them with n >= 10, and refuse 7: about 4 s on a 2 vCPU Xeon
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(code_choices(), st.data())
def test_a_sample_of_codes_up_to_16_nodes_repairs_and_decodes_through_the_bulk_path(choice, data):
    construction, n, k, d, q = choice
    field = field_of_order(q) if q else None
    if construction == "rbt" and d != 2 * k - 2:
        with pytest.raises(InvalidRegime):
            build_rbt_systematic(n, k, d, field=field)
        return
    code = BUILDERS[construction](n, k, d, field=field)
    failed = data.draw(st.integers(0, n - 1), label="failed")
    ids = sorted(data.draw(st.permutations(range(n)), label="order")[:k])
    _check_code(code, seed=n * 100 + k * 10 + d, nodes=[failed], decodes=[ids])
