"""Exception hierarchy.

The CLI maps ConfigurationError (bad config file, invalid model
parameters) to exit code 2 and every other NonharmonicError, a numerical
guard tripping at run time, to exit code 3.
"""


class NonharmonicError(Exception):
    """Base class for all library errors."""


class ConfigurationError(NonharmonicError):
    """Invalid model spec, config file, or parameter block."""


class ShapeError(NonharmonicError):
    """Grid function or coefficient vector with the wrong length."""


class NumericalConsistencyError(NonharmonicError):
    """A quantity that must be (near-)real or nonnegative is not."""


class WZViolationError(NonharmonicError):
    """An eigenfunction value too close to zero for symbol extraction."""


class WindowExhaustedError(NonharmonicError):
    """A symbol, coefficient vector or bracket table read outside its index window."""


class EllipticityError(NonharmonicError):
    """A symbol fails the invertibility / ellipticity precheck."""


class SpectrumProximityError(NonharmonicError):
    """A shift z is on or numerically too close to the spectrum."""


class BranchCutError(NonharmonicError):
    """Principal power evaluated on the branch cut Re a <= 0, Im a = 0."""


class PicardDivergenceError(NonharmonicError):
    """Fixed-point iteration residuals grew too many times in a row."""

