"""Exception hierarchy shared across the package.

The CLI maps them to exit codes in `cli._EXIT_CODES`: ParameterError -> 2,
DataError -> 3.
"""


class LandmarkMinsumError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LandmarkMinsumError):
    """Invalid or inconsistent parameters (bad k, n', T, stability values...)."""


class DataError(LandmarkMinsumError):
    """Malformed or inconsistent input data (files, scores, matrices)."""


class BudgetExhaustedError(ParameterError):
    """A one-versus-all query was attempted past the configured budget."""


class GenerationError(ParameterError):
    """Instance generation could not satisfy the requested geometry."""


class InvariantViolation(DataError):
    """An internal contract did not hold (e.g. no clustered landmark exists)."""
