"""Exception types raised by this package.

Every error that callers are expected to catch subclasses :class:`PmCodeError`,
so ``except PmCodeError`` is a safe catch-all for anticipated failures.
"""

from __future__ import annotations


class PmCodeError(Exception):
    """Base class for all package-specific errors."""


class ZeroInverse(PmCodeError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(PmCodeError, ValueError):
    """Matrix or vector shapes are incompatible for the operation."""


class FieldMismatch(PmCodeError, ValueError):
    """Operands live in different finite fields."""


class Singular(PmCodeError, ValueError):
    """Matrix has no inverse (or a linear solve has no unique solution)."""


class DuplicateEvaluationPoint(PmCodeError, ValueError):
    """Evaluation points for a Vandermonde matrix are not pairwise distinct."""


class IndexOutOfRange(PmCodeError, IndexError):
    """Row, column, or node index is outside the valid range."""


class InvalidRegime(PmCodeError, ValueError):
    """Code parameters violate 2k-2 <= d <= n-1 (or another structural bound)."""


class PropertyViolation(PmCodeError, ValueError):
    """A required construction property failed to hold.

    ``which`` is the property number (1, 2, or 3) and ``witness`` identifies
    the offending row subset or value pair.  ``check``, when given, is the
    failed ``CheckResult`` row: what the check ran up to the witness.
    """

    def __init__(self, which: int, witness, message: str = "", check=None):
        self.which = which
        self.witness = witness
        self.check = check
        text = message or f"property {which} violated (witness: {witness})"
        super().__init__(text)


class LengthMismatch(PmCodeError, ValueError):
    """A symbol vector has the wrong length."""


class AsymmetryDetected(PmCodeError, ValueError):
    """A matrix that must be symmetric is not."""


class BadHelperCount(PmCodeError, ValueError):
    """Repair was attempted with a helper set whose size differs from d."""


class BadCount(PmCodeError, ValueError):
    """Decode was attempted with a node set whose size differs from k."""


class DesignMismatch(PmCodeError, ValueError):
    """The encoding matrix does not have the structure the operation requires."""


class BadShorteningIndex(PmCodeError, ValueError):
    """Shortening depth is negative or does not match the parent parameters."""


class CliError(PmCodeError):
    """A problem with command-line inputs or on-disk artifacts."""
