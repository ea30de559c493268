"""Exception types shared across the library.

Every guard in the package raises one of these instead of a bare
ValueError so callers (and the CLI) can react to specific failure modes.
Bad input raises a `GaloisSpanError` (CLI exit code 2); a failed internal
invariant of the exact arithmetic raises `InvariantError` (exit code 3).
"""


class GaloisSpanError(Exception):
    """Base class for all library errors."""


class InvariantError(ArithmeticError):
    """An exact-arithmetic invariant failed inside the library: a bug, not bad
    input.  The CLI reports it as `internal error: ...` with exit code 3."""


class DisconnectedGraphError(GaloisSpanError):
    """Operation requires a connected graph."""


class TooLargeError(GaloisSpanError):
    """Brute-force guard exceeded."""


class InvalidTableError(GaloisSpanError):
    """A Cayley table failed the group axioms."""


class ClosureTooLargeError(GaloisSpanError):
    """Permutation closure exceeded the configured bound."""


class OrderTooLargeError(GaloisSpanError):
    """Group order exceeds the configured bound."""


class NotNormalError(GaloisSpanError):
    """Quotient requested by a non-normal subgroup."""


class NoSuitablePrimeError(GaloisSpanError):
    """No prime found for the character-table computation within bounds."""


class MismatchedGroupError(GaloisSpanError):
    """Operands belong to different groups."""


class NotAbelianError(GaloisSpanError):
    """Operation requires an abelian group."""


class NotRationalValuedError(GaloisSpanError):
    """Class function must be rational-valued."""


class GeneratorDependentError(GaloisSpanError):
    """Character value depends on the choice of cyclic generator."""


class NotGaloisError(GaloisSpanError):
    """Cover is not Galois (derived graph disconnected)."""


class NoConnectedAssignmentFoundError(GaloisSpanError):
    """Random voltage search failed to produce a connected cover."""


class NotBouquetError(GaloisSpanError):
    """Base graph must be a bouquet (single vertex)."""


class EulerZeroError(GaloisSpanError):
    """Operation requires (or forbids) Euler characteristic zero."""


class WrongGroupError(GaloisSpanError):
    """Verifier applied to a group outside its scope."""


class NotABrauerRelationError(GaloisSpanError):
    """Coefficients do not annihilate the induced trivial characters."""


class NonCyclicOnEulerZeroError(GaloisSpanError):
    """Connected cover of a graph with zero Euler characteristic must be cyclic."""


class LengthMismatchError(GaloisSpanError):
    """Componentwise operation on vectors of different lengths."""


class NotSquareError(GaloisSpanError):
    """Determinant of a non-square matrix."""


class InterpolationMismatchError(GaloisSpanError):
    """Interpolated polynomial has an unexpected degree."""
