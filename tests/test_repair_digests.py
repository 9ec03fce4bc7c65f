"""Repair pinned coefficient for coefficient.

A node's repair depends only on the encoding matrix, the storage basis P of a
repair-by-transfer code and the shortening depth.  These digests hash every
``repair_vector(f)`` and ``repair_matrix(f, H)`` for H the first d and the
last d other nodes, over codes that cover each of the three (and the
inclusion route), so any change to how repair is derived that moves a single
coefficient fails here.
"""

import hashlib

import pytest

from pmcode.construct import build_rbt_systematic, build_sparse_systematic, build_vanilla_systematic
from pmcode.core import PmVandermondeCode, build_params, encoding_from_phi_lambda
from pmcode.field import field_of_order
from pmcode.linalg import Matrix
from pmcode.systematic import remap_via_inclusion

from golden_vectors import PSI_SPARSE

GF256, F11, F257 = field_of_order(256), field_of_order(11), field_of_order(257)


def _inclusion846():
    params = build_params(8, 4, 6, F11)
    phi = Matrix(F11, [row[:3] for row in PSI_SPARSE])
    return remap_via_inclusion(PmVandermondeCode(encoding_from_phi_lambda(params, phi, [1, 8, 5, 9, 4, 7, 2, 6])))


# name -> (how to build the code, sha256 of its repair vectors, sha256 of its repair matrices)
CODES = {
    "sparse-13-6-11-gf256": (lambda: build_sparse_systematic(13, 6, 11, GF256),
                             "6ff5fd818baabf8a1283dce80cab4ddc5cc4b2b31d503cdb88611682d78487c7",
                             "2fe4df21c5d322718eddb96147a13f85428ce596c86de0490bc0c8a863c6f603"),
    "sparse-12-6-10-f257": (lambda: build_sparse_systematic(12, 6, 10, F257),
                            "af8ae5662a4b59a86a1df5fa8613fb043d2293acc3c6f6079ba22084dca0cf81",
                            "a3b94738c4d04851acc97ea607b3a2d0adc5688109759b9acb642a79104eedf4"),
    "rbt-8-4-6-gf256": (lambda: build_rbt_systematic(8, 4, 6, GF256),
                        "ec2fb9c64ec64ca5b5a36bfa4d237569895ff80246a98be7c84f226662e4f604",
                        "6988f9cef44477fdf23f051bc83cf64625a518f06b4fd251cb50165ab0460e15"),
    "rbt-8-4-6-f11": (lambda: build_rbt_systematic(8, 4, 6, F11),
                      "2e441e54991c08e08cc018319f0498e2524783fb132bdbb43fb5633a74258899",
                      "97c33e6a175cbfb1a2a990e6ba709d024de178c22f0573b9db0842640a06d840"),
    "vanilla-9-4-7": (lambda: build_vanilla_systematic(9, 4, 7),
                      "0e4784568b07e796406e63df40c4bd47934c965f8b4ceba99ae442e439c01e94",
                      "8153fa4134663239c977089809469dc89bdceefd6ade150e867961897360fc8d"),
    "sparse-12-5-10": (lambda: build_sparse_systematic(12, 5, 10),
                       "cb0744adc1d65241578530be174f7715b977359f5993465bb537abb366df507d",
                       "fd773eaeec071872755e193e3d88a228fb7ea4f84952aa30640f48133ee47270"),
    # as rbt-8-4-6-f11: P^-1 phi_f with P = Phi_alpha^T is row f of the sparsified Phi
    "inclusion-8-4-6": (_inclusion846,
                        "2e441e54991c08e08cc018319f0498e2524783fb132bdbb43fb5633a74258899",
                        "97c33e6a175cbfb1a2a990e6ba709d024de178c22f0573b9db0842640a06d840"),
}


def repair_digests(code) -> tuple[str, str]:
    """sha256 of every repair vector, and of every repair matrix from the first and the last d other nodes."""
    n, d = code.params.n, code.params.d
    vectors, matrices = hashlib.sha256(), hashlib.sha256()
    for f in range(n):
        vectors.update(repr(code.repair_vector(f)).encode())
        others = [h for h in range(n) if h != f]
        for helpers in (others[:d], others[-d:]):
            matrices.update(repr((f, helpers, code.repair_matrix(f, helpers).data)).encode())
    return vectors.hexdigest(), matrices.hexdigest()


@pytest.mark.parametrize("name", CODES)
def test_repair_matches_its_pinned_digests(name):
    build, vectors, matrices = CODES[name]
    assert repair_digests(build()) == (vectors, matrices)
