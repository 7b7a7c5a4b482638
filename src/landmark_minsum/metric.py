"""Hidden-metric access, query accounting, explicit matrices and ingestion.

Points are dense integer ids in [0, n).  Distances are float64; missing
distances use the +inf sentinel, which sorts above every finite value.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    BudgetExhaustedError,
    DataError,
    ParameterError,
    open_input,
    open_output,
)

logger = logging.getLogger(__name__)

INFINITE_DISTANCE = float("inf")

#: How asymmetric similarity reports for a pair are reconciled.
#: min_distance keeps the smaller distance (larger bit score).
SYMMETRIZE_POLICIES = ("min_distance", "max_distance", "mean")


class QueryLedger:
    """Counts one-versus-all queries; optionally enforces a hard budget.

    Increments are atomic so sources may be shared between workers.
    """

    def __init__(self, budget: int | None = None):
        if budget is not None and budget < 0:
            raise ParameterError(f"budget must be non-negative, got {budget}")
        self.budget = budget
        self._count = 0
        self._lock = threading.Lock()

    @property
    def queries_issued(self) -> int:
        return self._count

    def charge(self) -> None:
        with self._lock:
            if self.budget is not None and self._count + 1 > self.budget:
                raise BudgetExhaustedError(
                    f"query budget of {self.budget} exhausted"
                )
            self._count += 1


class DistanceSource:
    """One-versus-all oracle over a hidden metric on n points.

    Subclasses provide `_row`.  Every `query_one_vs_all` within the budget
    charges the ledger exactly once; repeated queries return identical
    vectors.  A row holding NaN or a negative value raises DataError, and
    its query stays charged.
    """

    def __init__(self, n: int, ledger: QueryLedger | None = None):
        self.n = n
        self.ledger = ledger if ledger is not None else QueryLedger()

    def query_one_vs_all(self, s: int) -> np.ndarray:
        if not 0 <= s < self.n:
            raise ParameterError(f"point id {s} outside [0, {self.n})")
        self.ledger.charge()
        row = np.array(self._row(s), dtype=np.float64)
        if not (row >= 0).all():
            if np.isnan(row).any():
                raise DataError("distance source returned NaN")
            raise DataError("distance source returned a negative distance")
        row.flags.writeable = False
        return row

    def _row(self, s: int) -> np.ndarray:
        raise NotImplementedError


class MatrixDistanceSource(DistanceSource):
    """Oracle backed by an explicit distance matrix."""

    def __init__(self, matrix: "MetricMatrix", ledger: QueryLedger | None = None):
        super().__init__(matrix.n, ledger)
        self.matrix = matrix

    def _row(self, s: int) -> np.ndarray:
        return self.matrix.values[s]


class PointCloudDistanceSource(DistanceSource):
    """Oracle computing Euclidean rows on demand from an embedding.

    Lets large instances be queried without materializing the n x n matrix.
    """

    def __init__(self, points: np.ndarray, ledger: QueryLedger | None = None):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ParameterError("points must be a 2-d array")
        super().__init__(points.shape[0], ledger)
        self.points = points

    def _row(self, s: int) -> np.ndarray:
        return euclidean_rows(self.points, slice(s, s + 1))[0]


# entries in `euclidean_rows`' scratch buffer: 2 MB
_SCRATCH_ENTRIES = 1 << 18


def euclidean_rows(points: np.ndarray, rows: slice) -> np.ndarray:
    """Euclidean distances from each point in `points[rows]` to every point.

    Squared differences are added one coordinate at a time, in coordinate
    order, so entry (i, j) is the same float whether one row or the full
    matrix is computed: a queried point-cloud row equals that row of a
    generated matrix bit for bit.  (One-shot `einsum` or
    `(diff * diff).sum(-1)` reductions reorder the additions and change
    the last bits from about 8 coordinates on.)

    The points are read a tile at a time, each tile's coordinates about
    1 MB, so a tile stays in cache across its coordinate passes instead of
    every pass striding through the whole array.
    """
    chosen = points[rows]
    n, dim = points.shape
    acc = np.zeros((chosen.shape[0], n))
    # the scratch buffer holds a block of rows, so the result is the one
    # large allocation
    step = max(1, _SCRATCH_ENTRIES // max(1, n))
    tile = max(1, _SCRATCH_ENTRIES // (2 * max(1, dim)))
    tmp = np.empty((min(step, chosen.shape[0]), n))
    for lo in range(0, chosen.shape[0], step):
        mine = chosen[lo:lo + step].T
        for left in range(0, n, tile):
            block = acc[lo:lo + step, left:left + tile]
            scratch = tmp[:block.shape[0], :block.shape[1]]
            for c, x in zip(points[left:left + tile].T, mine):
                np.subtract(x[:, None], c[None, :], out=scratch)
                block += np.square(scratch, out=scratch)
    return np.sqrt(acc, out=acc)


class MetricMatrix:
    """Immutable n x n distance matrix with an explicit +inf sentinel.

    Construction checks symmetry, zero diagonal and non-negativity.  The
    triangle inequality is *not* assumed; use `check_metric` to audit it.
    The matrix keeps a read-only copy of `values`; with `copy=False` it
    keeps `values` itself, for a caller that hands over a fresh array that
    nothing else refers to.
    """

    def __init__(self, values: np.ndarray, *, copy: bool = True):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"expected a square matrix, got shape {values.shape}")
        # one pass on the fast path: NaN, -inf and negatives all fail it
        if not (values >= 0).all():
            if np.isnan(values).any():
                raise DataError("distance matrix contains NaN")
            if np.isneginf(values).any():
                raise DataError("distances must be finite or +inf")
            i, j = np.argwhere(values < 0)[0]
            raise DataError(f"negative distance at ({i},{j})")
        if not np.array_equal(values, values.T):
            i, j = np.argwhere(values != values.T)[0]
            raise DataError(f"matrix not symmetric at ({i},{j})")
        if np.diagonal(values).any():
            i = int(np.nonzero(np.diagonal(values))[0][0])
            raise DataError(f"non-zero diagonal at ({i},{i})")
        if copy:
            values = values.copy()
        values.flags.writeable = False
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """Write `n` on the first line, then n rows of repr-exact values.

        If `path` is a regular file (not a FIFO or a terminal), also write
        its binary twin `<path>.f8`: the SHA-256 of the CSV's bytes, then
        the values as little-endian float64 in row-major order, which
        `from_csv` loads in place of parsing the text.  If the twin cannot
        be written, the CSV is removed again and a DataError names the twin.
        """
        digest = hashlib.sha256()
        with open_output(path, "wb") as fh:
            # repr is the shortest round-trip form, and repr(inf) == "inf"
            rows = (",".join(map(repr, row.tolist())) for row in self.values)
            for line in chain([str(self.n)], rows):
                data = f"{line}\n".encode()
                digest.update(data)
                fh.write(data)
        if os.path.isfile(path):
            try:
                _write_twin(path, digest.digest(), self.values)
            except DataError:
                os.remove(path)
                raise

    @classmethod
    def from_csv(cls, path) -> "MetricMatrix":
        """Read the `to_csv` format bit-exact; malformed input raises DataError.

        Blank lines are skipped and whitespace around values is ignored.
        The values come from the binary twin `<path>.f8` when it holds the
        CSV's current SHA-256 and exactly n x n values; otherwise (no twin,
        an edited CSV, a CSV from another tool) the text is parsed.  Either
        way the constructor's checks run, and no file is written.
        """
        values = _read_twin(path)
        if values is not None:
            return cls(values, copy=False)
        with open_input(path) as fh:
            header = fh.readline().strip()
            try:
                n = int(header)
            except ValueError:
                raise DataError(f"first line must be the point count, got {header!r}")
            try:
                with warnings.catch_warnings():
                    # an empty body is reported below as a row-count mismatch
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(
                        (line for line in fh if not line.isspace()),
                        delimiter=",", ndmin=2, comments=None,
                    )
            except ValueError as exc:
                _raise_csv_problem(path, n)
                raise DataError(f"unreadable matrix CSV: {exc}") from None
        rows, cols = values.shape
        if rows and cols != n:
            raise DataError(f"expected {n} values per row, got {cols}")
        if rows != n:
            raise DataError(f"expected {n} rows, got {rows}")
        # an empty body reads as shape (0, 1)
        return cls(values if rows else np.zeros((0, 0)), copy=False)


# a twin is the CSV's SHA-256 digest, then n * n little-endian float64 values
_TWIN_DTYPE = np.dtype("<f8")
_DIGEST_BYTES = 32


def twin_path(path) -> str:
    """The path of the binary twin that `to_csv` writes beside `path`."""
    return os.fspath(path) + ".f8"


def _write_twin(path, digest: bytes, values: np.ndarray) -> None:
    """Write the twin of the CSV at `path`; an incomplete twin is removed."""
    twin = twin_path(path)
    with open_output(twin, "wb") as fh:
        try:
            fh.write(digest)
            # a view, not a copy, of the C-ordered little-endian values
            fh.write(np.ascontiguousarray(values, dtype=_TWIN_DTYPE).data)
            fh.flush()
        except OSError as exc:
            os.remove(twin)
            raise DataError(f"{twin}: cannot write: {exc.strerror}") from None


def _read_twin(path) -> np.ndarray | None:
    """The values of the twin of the CSV at `path`, or None unless the twin
    holds the CSV's SHA-256 and is exactly 32 + 8 n^2 bytes long."""
    if not os.path.isfile(path):  # a FIFO's bytes can be read only once
        return None
    try:
        with (open_input(path, "rb") as csv,
              open_input(twin_path(path), "rb") as twin):
            header = csv.readline()
            try:
                n = int(header)
            except ValueError:
                return None
            size = os.fstat(twin.fileno()).st_size
            if n < 0 or size != _DIGEST_BYTES + 8 * n * n:
                return None
            digest = hashlib.sha256(header)
            for block in iter(lambda: csv.read(1 << 20), b""):
                digest.update(block)
            if twin.read(_DIGEST_BYTES) != digest.digest():
                return None
            values = np.empty((n, n), dtype=_TWIN_DTYPE)
            if twin.readinto(values) != values.nbytes:
                return None  # the twin shrank after its size was read
    except (DataError, OSError):  # no twin, a directory there, a read error
        return None
    return values


def _raise_csv_problem(path, n: int) -> None:
    """Raise the first problem of a matrix CSV body that `np.loadtxt` refused.

    Runs only on that error path, so the fast path keeps no per-value loop.
    Returns if every line splits into n floats (e.g. `1_0`, which `float`
    accepts and `np.loadtxt` does not).
    """
    with open_input(path) as fh:
        fh.readline()
        row = 0
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n:
                raise DataError(f"expected {n} values per row, got {len(parts)}")
            for col, part in enumerate(parts):
                try:
                    float(part)
                except ValueError:
                    raise DataError(
                        f"line {lineno}: non-numeric value {part!r} "
                        f"at row {row}, column {col}"
                    ) from None
            row += 1


@dataclass
class MetricReport:
    """Outcome of a triangle-inequality audit.  Report-only, never fatal."""

    n: int
    mode: str
    triples_checked: int
    violations: int = 0
    witness: tuple[int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def fraction_violating(self) -> float:
        return self.violations / max(self.triples_checked, 1)


# Relative slack absorbing float rounding in Euclidean-embedded instances;
# genuine violations in ingested data are orders of magnitude larger.
_TRIANGLE_REL_TOL = 1e-12


def _violates(ac, ab, bc):
    """Elementwise d(a,c) > d(a,b) + d(b,c) beyond the relative tolerance.

    Sides that are +inf, or sum past the largest float, are not tested.
    """
    with np.errstate(over="ignore"):
        rhs = ab + bc
        over = ac > rhs + _TRIANGLE_REL_TOL * rhs
    return over & np.isfinite(ac) & np.isfinite(rhs)


def check_metric(
    m: MetricMatrix,
    mode: str = "exhaustive",
    sample_triples: int = 10_000,
    seed: int = 0,
) -> MetricReport:
    """Audit the triangle inequality over finite entries.

    Exhaustive mode examines all C(n,3) unordered triples; sampled mode
    examines `sample_triples` uniform ones.  A triple is counted once when
    d(i,k) > d(i,j) + d(j,k); the witness (i, j, k) is the first met: by j,
    then row-major (i, k) with i < k, or in draw order.
    """
    d = m.values
    n = m.n
    violations, witness = 0, None
    if mode == "exhaustive":
        checked = n * (n - 1) * (n - 2) // 6
        for j in range(n):
            # via-j sums for all (i, k); a violated d(i,k) is its triple's
            # strict largest side, so only this j counts it, at (i, k) and
            # at (k, i): `bad` is symmetric, and its first entry has i < k
            bad = _violates(d, d[:, j][:, None], d[j, :][None, :])
            bad[j, :] = False
            bad[:, j] = False
            if bad.any():  # a metric input pays this test alone
                violations += int(np.count_nonzero(bad)) // 2
                if witness is None:
                    i, k = divmod(int(bad.argmax()), n)
                    witness = (i, j, k)
    elif mode == "sampled":
        if sample_triples < 0:
            raise ParameterError(
                f"sample_triples must be non-negative, got {sample_triples}"
            )
        rng = np.random.default_rng(seed)
        checked = sample_triples if n >= 3 else 0  # no triple to draw
        i, j, k = np.array(
            [rng.choice(n, size=3, replace=False) for _ in range(checked)],
            dtype=np.intp,
        ).reshape(-1, 3).T
        orients = np.stack([(i, j, k), (j, i, k), (i, k, j)])
        a, b, c = orients.swapaxes(0, 1)
        bad = _violates(d[a, c], d[a, b], d[b, c])
        # in draw order; at most one orientation of a triple is violated
        # (its strict largest side), so each draw has at most one witness
        draw, orient = np.nonzero(bad.T)
        witnesses = orients[orient, :, draw]
        violations = len(np.unique(np.sort(witnesses, axis=1), axis=0))
        witness = tuple(witnesses[0].tolist()) if violations else None
    else:
        raise ParameterError(f"unknown check mode {mode!r}")
    return MetricReport(n, mode, checked, violations, witness)


def _combine(distances: list[float], policy: str) -> float:
    if policy == "min_distance":
        return min(distances)
    if policy == "max_distance":
        return max(distances)
    if policy == "mean":
        return sum(distances) / len(distances)
    raise ParameterError(f"unknown symmetrize policy {policy!r}")


def ingest_similarity(
    pairs,
    n: int | None = None,
    policy: str = "min_distance",
) -> MetricMatrix:
    """Build a distance matrix from (id_a, id_b, bit_score) triples.

    Distances are reciprocal bit scores; unreported pairs get the +inf
    sentinel and the diagonal is forced to zero.  Ids must already be dense
    integers in [0, n) -- see `read_pair_file` for labelled input.
    Asymmetric or duplicate reports are reconciled per `policy` and logged.
    """
    pairs = list(pairs)
    if n is None:
        if not pairs:
            raise DataError("cannot infer point count from an empty pair list")
        n = max(max(a, b) for a, b, _ in pairs) + 1
    by_pair: dict[tuple[int, int], list[float]] = {}
    for a, b, score in pairs:
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise DataError(f"pair ({a},{b}) outside dense id range [0,{n})")
        if not score > 0:
            raise DataError(f"non-positive bit score {score} for pair ({a},{b})")
        if a == b:
            continue  # diagonal is pinned to zero regardless of self-scores
        key = (a, b) if a < b else (b, a)
        by_pair.setdefault(key, []).append(1.0 / float(score))
    values = np.full((n, n), INFINITE_DISTANCE)
    np.fill_diagonal(values, 0.0)
    conflicts = 0
    for (a, b), dists in by_pair.items():
        if len(set(dists)) > 1:
            conflicts += 1
        d = _combine(dists, policy)
        values[a, b] = d
        values[b, a] = d
    if conflicts:
        logger.info(
            "ingest: reconciled %d conflicting pair reports via %s",
            conflicts, policy,
        )
    return MetricMatrix(values, copy=False)


def read_pair_file(path):
    """Read a similarity TSV `id_a  id_b  bit_score`.

    The first non-blank, non-comment line is a header if its third column
    is non-numeric; a non-numeric score on any later line is a DataError.
    Returns (pairs with dense integer ids, label list in id order).
    """
    raw = []
    first = True
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns")
            may_be_header, first = first, False
            try:
                score = float(parts[2])
            except ValueError:
                if may_be_header:
                    continue
                raise DataError(f"{path}:{lineno}: bad bit score {parts[2]!r}")
            raw.append((parts[0], parts[1], score))
    if not raw:
        raise DataError(f"{path}: no similarity pairs found")
    labels = sorted({a for a, _, _ in raw} | {b for _, b, _ in raw},
                    key=_label_sort_key)
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = [(index[a], index[b], s) for a, b, s in raw]
    return pairs, labels


def _label_sort_key(label: str):
    # the one label order, for pair-file ids and label-file clusters alike:
    # integer labels sort numerically so a dense 0..n-1 id space maps onto
    # itself; everything else sorts lexicographically after them
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)
