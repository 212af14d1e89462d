"""Exception hierarchy for the package, and the option defaults and range checks.

The three branches map onto distinct CLI exit codes so callers can tell
bad parameters (2) from bad input data (3) from estimation failures (4).
The defaults and checks live here so that the CLI parser, which uses the
checks as option types, can be built without numpy.
"""

import operator

DEFAULT_BIN_COUNT = 50
MIN_BIN_COUNT = 10
EM_DEFAULT_TOL = 1e-8
EM_DEFAULT_MAX_ITER = 10_000


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


# Option checks take a value or its command-line text; operator.index refuses a float count.
# ConfigError passes through argparse, so the CLI exits 2 before it touches a file.

def bin_count(value) -> int:
    bins = int(value) if isinstance(value, str) else operator.index(value)
    if bins < MIN_BIN_COUNT:
        raise ConfigError(f"bin count must be at least {MIN_BIN_COUNT} for a stable density fit,"
                          f" got {bins}")
    return bins


def em_tolerance(value) -> float:
    tol = float(value)
    if not 0.0 <= tol < float("inf"):
        raise ConfigError(f"EM tolerance must be finite and at least 0, got {value}")
    return tol


def em_iterations(value) -> int:
    limit = int(value) if isinstance(value, str) else operator.index(value)
    if limit < 1:
        raise ConfigError(f"EM iteration limit must be at least 1, got {limit}")
    return limit


class SizeLimitError(ConfigError):
    """Study count outside the supported range."""


class DataError(CrossrepError):
    """Malformed or inconsistent input data."""

    exit_code = 3


class ModelError(CrossrepError):
    """Estimation failed or produced a degenerate model."""

    exit_code = 4


def enough_studies(nulls: dict, n: int, studies: str = "studies") -> None:
    """A ModelError for the first label -> u of nulls whose u exceeds the n studies."""
    for label, u in nulls.items():
        if n < u:
            raise ModelError(f"the {label} analysis needs at least u = {u} {studies}, got {n}")


class FitError(ModelError):
    """Iterative density fit did not converge."""


class StudyExcludedError(ModelError):
    """Study has no extractable alternative: null fraction at 1, or no null mass on its grid."""


class DegenerateAlternativeError(ModelError):
    """Alternative density carries no mass on a required half-line."""
