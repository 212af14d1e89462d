"""Exception hierarchy for the package, and the FDR level check.

The three branches map onto distinct CLI exit codes so callers can tell
bad parameters (2) from bad input data (3) from estimation failures (4).
"""


class CrossrepError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(CrossrepError):
    """Invalid parameters: bin count too small, q outside (0, 1), and so on."""

    exit_code = 2


def fdr_level(q) -> float:
    """q as a float, checking it is a false discovery rate level inside (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ConfigError(f"q must be inside (0, 1), got {q}")
    return q


class SizeLimitError(ConfigError):
    """Study count outside the supported range."""


class DataError(CrossrepError):
    """Malformed or inconsistent input data."""

    exit_code = 3


class ModelError(CrossrepError):
    """Estimation failed or produced a degenerate model."""

    exit_code = 4


class FitError(ModelError):
    """Iterative density fit did not converge; carries diagnostics."""

    def __init__(self, message, iterations=None, deviance_trace=None):
        super().__init__(message)
        self.iterations = iterations
        self.deviance_trace = deviance_trace


class StudyExcludedError(ModelError):
    """Study has no extractable alternative component (null fraction at 1)."""


class DegenerateAlternativeError(ModelError):
    """Alternative density carries no mass on a required half-line."""
