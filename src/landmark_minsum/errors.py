"""Exception hierarchy shared across the package, and `open_input` and
`open_output`, the one way the package opens a file to read or to write.

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


def open_input(path, mode: str = "r"):
    """Open an input file for reading (`mode` "rb" for bytes); one that
    cannot be opened (missing, a directory, unreadable) or, read as text,
    cannot be decoded is a DataError naming the path."""
    return _open(path, mode, "cannot open")


def open_output(path, mode: str = "w"):
    """Open an output file for writing (`mode` "wb" for bytes); one that
    cannot be created (in a missing directory, a directory, read-only) is a
    DataError naming the path."""
    return _open(path, mode, "cannot write")


@contextmanager
def _open(path, mode: str, failure: str):
    try:
        fh = open(path, mode)
    except OSError as exc:
        raise DataError(f"{path}: {failure}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
