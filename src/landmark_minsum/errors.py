"""Exception hierarchy shared across the package, and `open_input`, the
one way the readers open an input file.

The CLI maps them to exit codes in `cli._EXIT_CODES`: ParameterError -> 2,
DataError -> 3.
"""

from contextlib import contextmanager


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


@contextmanager
def open_input(path):
    """Open an input file for reading; one that cannot be opened (missing,
    a directory, unreadable) is a DataError naming the path."""
    try:
        fh = open(path)
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror}") from None
    with fh:
        yield fh
