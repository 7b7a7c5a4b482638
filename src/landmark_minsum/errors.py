"""Exception hierarchy shared across the package.

The CLI maps them to exit codes in `cli._EXIT_CODES`: ParameterError -> 2,
DataError -> 3, SweepFailure -> 4.
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


class SweepFailure(LandmarkMinsumError):
    """No threshold candidate clustered enough points.

    Carries the best run observed so callers can inspect or salvage it.
    """

    def __init__(self, message, best_threshold=None, best_clustering=None,
                 best_coverage=0):
        super().__init__(message)
        self.best_threshold = best_threshold
        self.best_clustering = best_clustering
        self.best_coverage = best_coverage
