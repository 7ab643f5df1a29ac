"""Exception types shared across the package."""


class FrogkitError(Exception):
    """Base class for all frogkit-specific errors."""


class InvalidParametersError(FrogkitError, ValueError):
    """Inputs violate a documented precondition (e.g. L does not divide N)."""


class InvalidUseError(FrogkitError, ValueError):
    """Operation called in a way its contract forbids (e.g. fractional shift
    without a bandlimit)."""


class DegenerateSystemError(FrogkitError):
    """Circle system has collinear offsets; the 2x2 linear reduction is rank
    deficient."""


class UnderdeterminedSystemError(FrogkitError):
    """Circle system with all offsets equal; only the modulus of the unknown
    is constrained."""


class DegenerateSignalError(FrogkitError):
    """A leading Fourier coefficient required by the recursion vanishes."""


class AmbiguousBranchError(FrogkitError):
    """Both candidate branches remain consistent with the trace; the input is
    outside the generic set the recursion assumes."""


class InconsistentTraceError(FrogkitError):
    """No candidate at some recursion step fits the trace data."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step

