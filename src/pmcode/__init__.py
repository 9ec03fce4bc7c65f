"""Sparse systematic product-matrix regenerating codes.

An [n, k, d] code stores alpha = d-k+1 symbols per node so that any k nodes
recover the message exactly and any d helpers rebuild a lost node by sending
one symbol each.  The constructions here additionally make the generator
sparse (cheap encoding) and, in the base regime d = 2k-2, let every node
serve repairs of the first alpha nodes by handing over one stored symbol
unchanged.

Quick start::

    from pmcode import build_sparse_systematic
    code = build_sparse_systematic(8, 4, 6)     # picks F_11 automatically
    stored = code.stored_rows(message)          # message: list of B symbols
    code.decode([0, 2, 5, 7], [stored[i] for i in (0, 2, 5, 7)])
    code.run_repair(stored, failed=3, helpers=[0, 1, 2, 4, 5, 6])
"""

from .errors import (
    AsymmetryDetected,
    BadCount,
    BadHelperCount,
    BadShorteningIndex,
    DesignMismatch,
    DimensionMismatch,
    DuplicateEvaluationPoint,
    FieldMismatch,
    IndexOutOfRange,
    InvalidRegime,
    LengthMismatch,
    PmCodeError,
    PropertyViolation,
    Singular,
    ZeroInverse,
)
from .field import BinaryField, PrimeField, field_of_order
from .linalg import Matrix, matrix_from_text, vandermonde
from .core import (
    CheckResult,
    CodeParams,
    EncodingMatrix,
    LinearCode,
    MessageMatrix,
    PmVandermondeCode,
    RepairBundle,
    RepairPlan,
    build_params,
    build_vandermonde_encoding,
    decode_identity_block,
    encode,
    encoding_from_phi_lambda,
    generator_matrix,
    pack_message,
    random_message,
    sym_index,
    unpack_message,
    validate_properties,
)
from .systematic import (
    RemappedCode,
    inclusion_matrix,
    inclusion_remap_matrix,
    packed_coords,
    remap_generic,
    remap_via_inclusion,
    triangular_inclusion,
)
from .construct import (
    EquivalenceResult,
    RbtCode,
    build_rbt_systematic,
    build_sparse_systematic,
    build_vanilla_systematic,
    choose_prime_encoding,
    conjugate_message,
    equivalence_check,
    shorten,
    sparsify_encoding,
)

__version__ = "0.1.0"

# analysis imports numpy, and report imports analysis, so their names load on
# first use (PEP 562), each from the module that defines it, and
# ``import pmcode`` stays numpy-free.
_REPORT_NAMES = frozenset({
    "BenchResult",
    "CertificationRecord",
    "SparsityReport",
    "benchmark_pair",
    "certify",
    "predicted_speedup",
    "sparsity_report",
})


def __getattr__(name):
    if name == "encode_stripes":
        from .analysis import encode_stripes
        return encode_stripes
    if name in _REPORT_NAMES:
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsymmetryDetected",
    "BadCount",
    "BadHelperCount",
    "BadShorteningIndex",
    "BenchResult",
    "BinaryField",
    "CertificationRecord",
    "CheckResult",
    "CodeParams",
    "DesignMismatch",
    "DimensionMismatch",
    "DuplicateEvaluationPoint",
    "EncodingMatrix",
    "EquivalenceResult",
    "FieldMismatch",
    "IndexOutOfRange",
    "InvalidRegime",
    "LengthMismatch",
    "LinearCode",
    "Matrix",
    "MessageMatrix",
    "PmCodeError",
    "PmVandermondeCode",
    "PrimeField",
    "PropertyViolation",
    "RbtCode",
    "RemappedCode",
    "RepairBundle",
    "RepairPlan",
    "Singular",
    "SparsityReport",
    "ZeroInverse",
    "benchmark_pair",
    "build_params",
    "build_rbt_systematic",
    "build_sparse_systematic",
    "build_vandermonde_encoding",
    "build_vanilla_systematic",
    "certify",
    "choose_prime_encoding",
    "conjugate_message",
    "decode_identity_block",
    "encode",
    "encode_stripes",
    "encoding_from_phi_lambda",
    "equivalence_check",
    "field_of_order",
    "generator_matrix",
    "inclusion_matrix",
    "inclusion_remap_matrix",
    "matrix_from_text",
    "pack_message",
    "packed_coords",
    "predicted_speedup",
    "random_message",
    "remap_generic",
    "remap_via_inclusion",
    "shorten",
    "sparsify_encoding",
    "sparsity_report",
    "sym_index",
    "triangular_inclusion",
    "unpack_message",
    "validate_properties",
    "vandermonde",
]
