"""Exception types shared across the toolkit."""


class LefkitError(Exception):
    """Base class for all toolkit errors."""


class VarMismatchError(LefkitError):
    """Operands live in polynomial rings with different variable counts."""


class ZeroPolynomialError(LefkitError):
    """An operation that needs a nonzero (homogeneous) polynomial got zero."""


class NotLinearError(LefkitError):
    """A Lefschetz candidate must be a nonzero homogeneous linear form."""


class NotDominantError(LefkitError):
    """A gl_n highest weight must be weakly decreasing."""


class OutOfRangeError(LefkitError):
    """An index or degree parameter is outside its documented range."""


class InvalidSpecError(LefkitError):
    """A family descriptor violates its size/power constraints."""


class BadPrimeError(LefkitError):
    """A modular probe prime divides one of the stored denominators."""


class TooLargeError(LefkitError):
    """The requested computation exceeds the configured cell budget."""


class InvariantError(LefkitError):
    """An internal invariant that the mathematics guarantees did not hold."""
