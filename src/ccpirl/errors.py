"""Exception types shared across the package."""


class CcpIrlError(Exception):
    """Base class for all package-specific errors."""


class MaxSweepsExceeded(CcpIrlError):
    """An iterative solver hit its sweep cap before reaching tolerance.

    Carries the last iterate and the residual so callers can inspect or
    continue from it.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class SingularMatrix(CcpIrlError):
    """A linear solve failed; only possible for ill-formed inputs."""


class EmptyData(CcpIrlError):
    """An operation that needs demonstrations received none."""


class NonPositiveProbability(CcpIrlError):
    """A probability that must be strictly positive was zero or negative."""


class NonFiniteGradient(CcpIrlError):
    """Training produced a NaN or infinite gradient."""


class InvalidInput(CcpIrlError):
    """A model, trajectory set or other input fails validation."""
