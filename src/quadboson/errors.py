"""Exception types raised across the package."""


class QuadBosonError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QuadBosonError):
    """Input matrices are not square, not equally sized, or empty."""


class StructureViolation(QuadBosonError):
    """A matrix violates a required structure (hermiticity, symmetry,
    finiteness) beyond the configured tolerance."""


class PairingFailure(QuadBosonError):
    """Eigenvalues could not be matched into (lambda, -lambda) pairs.

    The spectrum of a valid dynamical matrix is symmetric under negation,
    so this signals an eigensolver breakdown or a corrupted input."""


class NullNorm(QuadBosonError):
    """The generalized norm of an eigenvector pair is numerically zero.

    Happens next to defective (Jordan) points, where the two partner
    eigenvectors collapse onto each other."""


class NotDiagonalizable(QuadBosonError):
    """The dynamical matrix has a Jordan block; no Bogoliubov transform
    exists and mode-diagonal representations are unavailable."""


class DegenerateGap(QuadBosonError):
    """|Delta| = epsilon: the closed-form pairing amplitudes diverge."""


class NotDegenerate(QuadBosonError):
    """The maximally-decoupled representation requires |Delta| = epsilon."""


class Overflow(QuadBosonError):
    """A computed value left the float range or its resolution: propagator
    entries beyond the representable guard (1e100), a time where
    ||t M Hmat||_1 reaches 2^53 and no digit of U is correct, or finite input
    entries too large to symmetrize or rank-test."""


class StepTooLarge(QuadBosonError):
    """The requested integration step cannot meet the accuracy target."""


class DimensionCap(QuadBosonError):
    """Truncated Fock space would exceed the configured dimension cap."""


class WrongRegime(QuadBosonError):
    """The requested check is only meaningful for positive (semi)definite
    forms (e.g. truncated spectra diverge otherwise)."""


class ParseError(QuadBosonError):
    """A form file is malformed; the message carries field context."""


class BadRange(QuadBosonError):
    """A usage error: a bad range or option value, an unwritable output path,
    or an input whose buffers would exceed the memory budget."""
