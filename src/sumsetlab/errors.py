"""Exception types shared across the package."""


class SumsetLabError(Exception):
    """Base class for every error raised by this library."""


class CompositeModulus(SumsetLabError):
    """A modulus failed the primality check."""


class ModulusMismatch(SumsetLabError):
    """Two operands live over different prime moduli."""


class ZeroInverse(SumsetLabError):
    """Attempted to invert 0 in the field."""


class ModulusTooSmall(SumsetLabError):
    """A binomial coefficient C(n, r) was requested with n >= p."""


class EmptySet(SumsetLabError):
    """An operation requiring a nonempty set received an empty one."""


class IndexOutOfRange(SumsetLabError):
    """Coefficient index outside the valid triangular range."""


class ZeroPolynomial(SumsetLabError):
    """Root finding on the zero polynomial is undefined."""


class NotVanishing(SumsetLabError):
    """The polynomial does not vanish on the whole grid, so no witness exists.

    Carries the first offending grid point and value when known.
    """

    def __init__(self, message, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value


class DegreeTooHigh(SumsetLabError):
    """A witness polynomial exceeds the degree ceiling for grid extraction."""


class HypothesisViolation(SumsetLabError):
    """Audit preconditions on the pair (sizes, target sumset size, modulus) fail."""


class NotSplitting(SumsetLabError):
    """A power-sum profile does not come from a set: too few distinct roots."""


class InvalidArgument(SumsetLabError, ValueError):
    """A size, index, target or worker count lies outside its valid range."""


class KTooLarge(InvalidArgument):
    """Requested subset size exceeds the field size."""


class CeilingExceeded(SumsetLabError):
    """A sweep was requested above the configured exhaustive ceiling."""


class ShardLost(SumsetLabError):
    """A sweep process ended without sending its shards' results."""
