"""Error taxonomy shared by all modules.

Exit-code mapping used by the command line front end:
config problems (ConfigError, DomainError, and CapacityError for a
truncation over the size budget) -> 2, solver failures -> 3, FAIL verdicts
and other analysis failures -> 1.
"""


class PolaronError(Exception):
    """Base class for all package errors."""


class ConfigError(PolaronError):
    """Malformed, unknown, or out-of-range configuration input."""


class CapacityError(PolaronError):
    """A requested object exceeds the documented size budget."""


class DomainError(PolaronError):
    """Mathematically invalid argument (negative scale, wrong shape, ...)."""


class SolverError(PolaronError):
    """Iterative eigensolver failed to converge within its budget."""

    def __init__(self, message, best_value=None, best_residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual


class AnalysisError(PolaronError):
    """A fit or certificate could not be formed from valid inputs."""


class BracketError(AnalysisError):
    """Root bracketing failed (target outside the reachable range)."""


class NoBoundStateError(AnalysisError):
    """The discretized Schroedinger operator has no negative-energy state."""


class DocsDriftError(PolaronError):
    """Generated reference tables disagree with the frozen fixtures."""


class AccuracyWarning(UserWarning):
    """Recorded when a documented accuracy budget is exceeded."""
