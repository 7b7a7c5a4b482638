import hashlib
import importlib
import itertools
import math
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from landmark_minsum import (
    BudgetExhaustedError,
    DataError,
    DistanceSource,
    InstanceSpec,
    MatrixDistanceSource,
    MetricMatrix,
    ParameterError,
    PointCloudDistanceSource,
    QueryLedger,
    build_landmark_table,
    check_metric,
    embed_kmeans_baseline,
    generate,
    ingest_similarity,
    read_pair_file,
    read_target_labels,
    write_labels_csv,
)
from landmark_minsum.metric import _TRIANGLE_REL_TOL, euclidean_rows

from conftest import euclidean_matrix, random_metric
from oracles import emit_pairs, sampled_check_metric

generate_module = importlib.import_module("landmark_minsum.generate")
metric_module = importlib.import_module("landmark_minsum.metric")


class TestQueryLedger:
    def test_counts_every_query(self):
        m = random_metric(20, 2, seed=0)
        src = MatrixDistanceSource(m)
        for s in range(7):
            src.query_one_vs_all(s)
        assert src.ledger.queries_issued == 7

    def test_repeated_queries_identical_and_both_charged(self):
        m = random_metric(10, 2, seed=1)
        src = MatrixDistanceSource(m)
        a = src.query_one_vs_all(3)
        b = src.query_one_vs_all(3)
        assert np.array_equal(a, b)
        assert src.ledger.queries_issued == 2

    def test_self_distance_zero(self):
        m = random_metric(10, 2, seed=2)
        src = MatrixDistanceSource(m)
        assert src.query_one_vs_all(4)[4] == 0.0

    def test_budget_enforced(self):
        m = random_metric(10, 2, seed=3)
        src = MatrixDistanceSource(m, QueryLedger(budget=2))
        src.query_one_vs_all(0)
        src.query_one_vs_all(1)
        with pytest.raises(BudgetExhaustedError):
            src.query_one_vs_all(2)
        # the exceeding call failed without charging
        assert src.ledger.queries_issued == 2

    def test_invalid_point(self):
        src = MatrixDistanceSource(random_metric(5, 2, seed=4))
        with pytest.raises(ParameterError):
            src.query_one_vs_all(5)
        with pytest.raises(ParameterError):
            src.query_one_vs_all(-1)

    def test_eighteen_landmark_rows_on_thousand_points(self):
        from landmark_minsum import PointCloudDistanceSource, build_landmark_table
        from landmark_minsum import sample_landmarks

        rng = np.random.default_rng(5)
        src = PointCloudDistanceSource(rng.uniform(0, 1, size=(1000, 3)))
        build_landmark_table(src, sample_landmarks(1000, 18, seed=0))
        assert src.ledger.queries_issued == 18

    def test_concurrent_queries_counted_exactly(self):
        from concurrent.futures import ThreadPoolExecutor

        src = MatrixDistanceSource(random_metric(64, 2, seed=6))
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(src.query_one_vs_all, list(range(64)) * 4))
        assert src.ledger.queries_issued == 256


class _BadRowSource(DistanceSource):
    """Rows |s - p|, except one entry per row set to `bad`."""

    def __init__(self, n: int, bad: float):
        super().__init__(n)
        self.bad = bad

    def _row(self, s: int) -> np.ndarray:
        row = np.abs(np.arange(self.n, dtype=np.float64) - s)
        row[(s + 1) % self.n] = self.bad
        return row


BAD_ROWS = pytest.mark.parametrize("bad, message", [
    (math.nan, "returned NaN"),
    (-1.0, "returned a negative distance"),
    (-math.inf, "returned a negative distance"),
], ids=["nan", "negative", "minus-inf"])


class TestRowsCheckedAtQuery:
    @BAD_ROWS
    def test_query_rejects_row(self, bad, message):
        src = _BadRowSource(6, bad)
        with pytest.raises(DataError, match=message):
            src.query_one_vs_all(2)
        # the failed query was charged
        assert src.ledger.queries_issued == 1

    @BAD_ROWS
    def test_landmark_table_rejects_row(self, bad, message):
        src = _BadRowSource(8, bad)
        with pytest.raises(DataError, match=message):
            build_landmark_table(src, [3, 0, 5])
        assert src.ledger.queries_issued == 1

    @BAD_ROWS
    def test_baseline_rejects_row(self, bad, message):
        src = _BadRowSource(8, bad)
        with pytest.raises(DataError, match=message):
            embed_kmeans_baseline(src, d_landmarks=3, k=2, seed=0)
        assert src.ledger.queries_issued == 1

    def test_point_cloud_with_nan_coordinate(self):
        points = np.random.default_rng(10).uniform(0, 1, size=(10, 2))
        points[4, 1] = math.nan
        src = PointCloudDistanceSource(points)
        with pytest.raises(DataError, match="returned NaN"):
            build_landmark_table(src, [0, 7])
        assert src.ledger.queries_issued == 1


class TestEuclideanRows:
    def test_matches_pairwise_oracle_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            dim = int(rng.integers(1, 121))
            points = rng.standard_normal((60, dim)) * 10.0 ** rng.uniform(-1, 3)
            assert np.array_equal(
                euclidean_rows(points, slice(None)), squareform(pdist(points))
            )

    def test_blocks_of_rows_give_the_same_bits(self, monkeypatch):
        points = np.random.default_rng(21).standard_normal((50, 9)) * 100.0
        whole = euclidean_rows(points, slice(None))  # one block
        # blocks of 7 rows, the last one short
        monkeypatch.setattr(metric_module, "_SCRATCH_ENTRIES", 7 * 50 + 3)
        assert np.array_equal(euclidean_rows(points, slice(None)), whole)
        assert np.array_equal(euclidean_rows(points, slice(5, 30)), whole[5:30])

    @pytest.mark.parametrize("sizes", [(20, 15), (10,) * 9, (8,) * 12])
    def test_point_cloud_rows_equal_generated_matrix(self, sizes):
        # generate embeds in max(2, k) dimensions; a reordered sum of the
        # squares changes last bits from about 8 dimensions on
        inst = generate(
            InstanceSpec(sizes=sizes, theta=5.0, bad_fraction=0.05, seed=1)
        )
        src = PointCloudDistanceSource(inst.points)
        for s in range(inst.n):
            assert np.array_equal(src.query_one_vs_all(s), inst.matrix.values[s])


class TestMetricMatrix:
    def test_rejects_asymmetry(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = 1.0
        with pytest.raises(DataError):
            MetricMatrix(vals)

    def test_rejects_nonzero_diagonal(self):
        vals = np.ones((3, 3))
        with pytest.raises(DataError):
            MetricMatrix(vals)

    def test_rejects_negative_and_nan(self):
        vals = np.zeros((2, 2))
        vals[0, 1] = vals[1, 0] = -1.0
        with pytest.raises(DataError):
            MetricMatrix(vals)
        vals[0, 1] = vals[1, 0] = float("nan")
        with pytest.raises(DataError):
            MetricMatrix(vals)

    @pytest.mark.parametrize("cells, message", [
        ({(0, 2): math.nan}, "contains NaN"),
        ({(0, 2): -math.inf}, "finite or \\+inf"),
        ({(1, 2): -1.0}, r"negative distance at \(1,2\)"),
        # with several faults NaN is named first, then -inf, then a negative
        ({(0, 1): -1.0, (0, 2): -math.inf, (1, 2): math.nan}, "contains NaN"),
        ({(0, 1): -1.0, (1, 2): -math.inf}, "finite or \\+inf"),
    ], ids=["nan", "minus-inf", "negative", "all-three", "minus-inf-and-negative"])
    def test_bad_value_named(self, cells, message):
        vals = np.zeros((3, 3))
        for (i, j), v in cells.items():
            vals[i, j] = vals[j, i] = v
        with pytest.raises(DataError, match=message):
            MetricMatrix(vals)

    def test_checks_free_their_masks_before_the_copy(self):
        # the one copy is the only n x n allocation alive at the peak
        vals = random_metric(600, 2, seed=6).values.copy()
        MetricMatrix(vals)  # first-use allocations
        tracemalloc.start()
        try:
            MetricMatrix(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vals.nbytes + vals.size // 2, peak

    def test_array_from_outside_is_copied(self):
        vals = random_metric(5, 2, seed=7).values.copy()
        m = MetricMatrix(vals)
        assert not np.shares_memory(m.values, vals)
        assert vals.flags.writeable and not m.values.flags.writeable
        vals[0, 1] = vals[1, 0] = 9.0
        assert m.values[0, 1] != 9.0

    def test_generated_array_is_handed_over(self, monkeypatch):
        made = []

        def recorded(points, rows):
            made.append(euclidean_rows(points, rows))
            return made[-1]

        monkeypatch.setattr(generate_module, "euclidean_rows", recorded)
        inst = generate(InstanceSpec(sizes=(6, 5), theta=5.0, seed=2))
        assert inst.matrix.values is made[-1]
        assert not inst.matrix.values.flags.writeable

    @pytest.mark.parametrize("build", ["from_csv", "from_csv_text", "ingest_similarity"])
    def test_read_array_is_handed_over(self, build, tmp_path):
        # the array the reader builds is the matrix's: no second n x n
        # array is alive at the peak, whether it comes from the binary twin
        # or from parsing the text
        m = random_metric(600, 2, seed=8)
        path = tmp_path / "m.csv"
        m.to_csv(path)
        if build == "from_csv_text":
            (tmp_path / "m.csv.f8").unlink()
        pairs = [(i, i + 1, 50.0) for i in range(599)]
        call = {"from_csv": lambda: MetricMatrix.from_csv(path),
                "from_csv_text": lambda: MetricMatrix.from_csv(path),
                "ingest_similarity": lambda: ingest_similarity(pairs)}[build]
        call()  # first-use allocations
        tracemalloc.start()
        try:
            built = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not built.values.flags.writeable
        assert peak < 1.5 * m.values.nbytes, peak

    def test_immutable(self):
        m = random_metric(4, 2, seed=5)
        with pytest.raises(ValueError):
            m.values[0, 1] = 3.0

    def test_csv_round_trip_bit_exact_with_inf(self, tmp_path):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 0.1 + 0.2  # not exactly representable as 0.3
        vals[0, 2] = vals[2, 0] = math.inf
        vals[1, 2] = vals[2, 1] = 1.0 / 3.0
        m = MetricMatrix(vals)
        path = tmp_path / "m.csv"
        m.to_csv(path)
        again = MetricMatrix.from_csv(path)
        assert np.array_equal(m.values, again.values)

    def test_csv_golden_bytes(self, tmp_path):
        # repr is the shortest round-trip form: the file is fixed byte for byte
        upper = [math.inf, -0.0, 0.1 + 0.2, 1.0 / 3.0, 1e-7,
                 1e16, 5e-324, 1.0, 2.5, 123456.789]
        iu = np.triu_indices(5, 1)
        vals = np.zeros((5, 5))
        vals[iu] = upper
        vals.T[iu] = upper
        path = tmp_path / "m.csv"
        MetricMatrix(vals).to_csv(path)
        assert path.read_bytes() == (
            b"5\n"
            b"0.0,inf,-0.0,0.30000000000000004,0.3333333333333333\n"
            b"inf,0.0,1e-07,1e+16,5e-324\n"
            b"-0.0,1e-07,0.0,1.0,2.5\n"
            b"0.30000000000000004,1e+16,1.0,0.0,123456.789\n"
            b"0.3333333333333333,5e-324,2.5,123456.789,0.0\n"
        )
        again = MetricMatrix.from_csv(path)
        assert np.array_equal(again.values.view(np.uint64), vals.view(np.uint64))

    @pytest.mark.parametrize("body, message", [
        # rejected with DataError, the message matching `message`
        (b"three\n0,1\n1,0\n", "first line must be the point count, got 'three'"),
        (b"\n0,1\n1,0\n", "first line must be the point count, got ''"),
        (b"3\n0,1,2\n1,0\n2,1,0\n", "expected 3 values per row, got 2"),
        (b"2\n0,1,2\n1,0,3\n", "expected 2 values per row, got 3"),
        (b"2\n0,1,\n1,0\n", "expected 2 values per row, got 3"),
        (b"3\n0,1,2\n1,0,3\n", "expected 3 rows, got 2"),
        (b"2\n", "expected 2 rows, got 0"),
        (b"2\n0,1\n1,0\n0,1\n", "expected 2 rows, got 3"),
        (b"2\n0,1\nabc,0\n", "'abc' at row 1, column 0"),
        (b"2\n0, \n1,0\n", "'' at row 0, column 1"),
        (b"2\n0,1_0\n1_0,0\n", "1_0"),
        (b"2\n0,nan\nnan,0\n", "NaN"),
        (b"2\n0,-inf\n-inf,0\n", "finite or \\+inf"),
        # accepted, reading [[0, 1.5], [1.5, 0]]
        (b"2\n0,1.5\n\n1.5,0\n\n", None),
        (b"2\n0,1.5\n  \t\n1.5,0\n", None),
        (b"2\r\n0,1.5\r\n1.5,0\r\n", None),
        (b" 2 \n 0 , 1.5\n1.5 ,\t0 \n", None),
        (b"2\n0,1.5\n1.5,0", None),
    ], ids=["word-header", "empty-header", "short-row", "long-rows",
            "trailing-comma", "too-few-rows", "no-rows", "too-many-rows",
            "non-numeric", "empty-cell", "digit-separator", "nan", "minus-inf",
            "blank-lines", "whitespace-line", "crlf", "spaces", "no-final-newline"])
    def test_csv_reader_table(self, tmp_path, body, message):
        path = tmp_path / "m.csv"
        path.write_bytes(body)
        if message is None:
            assert MetricMatrix.from_csv(path).values.tolist() == [[0.0, 1.5], [1.5, 0.0]]
        else:
            with pytest.raises(DataError, match=message):
                MetricMatrix.from_csv(path)

    def test_csv_infinity_spellings_and_overflow(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3\n0,+inf,1e400\nInfinity,0,inf\n1e400,inf,0\n")
        assert np.isposinf(MetricMatrix.from_csv(path).values[~np.eye(3, dtype=bool)]).all()


def _read_outcome(path):
    """What `from_csv` gives: the values' bytes, or the DataError message."""
    try:
        return "values", MetricMatrix.from_csv(path).values.tobytes()
    except DataError as exc:
        return "error", str(exc)


def _edit_cells(path, cells, text):
    """Rewrite the CSV at `path` with `text` at each (row, column) of `cells`."""
    lines = path.read_text().splitlines()
    for i, j in cells:
        row = lines[1 + i].split(",")
        row[j] = text
        lines[1 + i] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


# adversarial floats for the twin: signed zeros, the smallest subnormal, the
# largest finite float and the +inf sentinel
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf]


class TestCsvTwin:
    """`to_csv` writes `<path>.f8` beside the CSV; `from_csv` reads it only
    while it matches the CSV, and otherwise gives what parsing gives."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_twin_reads_what_the_text_reads(self, data, n):
        value = st.sampled_from(_EDGE_FLOATS) | st.floats(0.0, allow_nan=False)
        upper = data.draw(st.lists(value, min_size=n * (n - 1) // 2,
                                   max_size=n * (n - 1) // 2))
        diagonal = data.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                      min_size=n, max_size=n))
        vals = np.diag(np.array(diagonal, dtype=np.float64))
        iu = np.triu_indices(n, 1)
        vals[iu] = upper
        vals.T[iu] = upper
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            MetricMatrix(vals).to_csv(path)
            twin = Path(tmp) / "m.csv.f8"
            raw = twin.read_bytes()
            assert raw[:32] == hashlib.sha256(path.read_bytes()).digest()
            assert raw[32:] == vals.astype("<f8").tobytes()
            assert metric_module._read_twin(path) is not None
            via_twin = MetricMatrix.from_csv(path).values.tobytes()
            twin.unlink()
            via_text = MetricMatrix.from_csv(path).values.tobytes()
        assert via_twin == via_text == vals.tobytes()

    def test_matching_twin_is_read_without_parsing(self, tmp_path, monkeypatch):
        m = random_metric(30, 3, seed=4)
        path = tmp_path / "m.csv"
        m.to_csv(path)
        monkeypatch.setattr(np, "loadtxt", pytest.fail)
        again = MetricMatrix.from_csv(path)
        assert np.array_equal(again.values.view(np.uint64), m.values.view(np.uint64))
        assert not again.values.flags.writeable

    @pytest.mark.parametrize("tamper", [
        "edited-pair", "edited-cell", "blank-line", "truncated-twin",
        "other-twin", "directory-twin",
    ])
    def test_mismatched_twin_reads_as_text(self, tmp_path, tamper):
        m = random_metric(6, 2, seed=3)
        path = tmp_path / "m.csv"
        twin = tmp_path / "m.csv.f8"
        m.to_csv(path)
        if tamper == "edited-pair":  # a stale twin would give the old value
            _edit_cells(path, [(0, 1), (1, 0)], "7.5")
        elif tamper == "edited-cell":  # now asymmetric: a DataError
            _edit_cells(path, [(2, 4)], "0.25")
        elif tamper == "blank-line":
            with open(path, "a") as fh:
                fh.write("\n")
        elif tamper == "truncated-twin":
            twin.write_bytes(twin.read_bytes()[:-8])
        elif tamper == "other-twin":  # same n, so only the digest differs
            other = tmp_path / "other.csv"
            random_metric(6, 2, seed=9).to_csv(other)
            os.replace(tmp_path / "other.csv.f8", twin)
            other.unlink()
        else:
            twin.unlink()
            twin.mkdir()
        listing = sorted(os.listdir(tmp_path))
        twin_bytes = twin.read_bytes() if twin.is_file() else None
        with_twin = _read_outcome(path)
        assert sorted(os.listdir(tmp_path)) == listing
        assert (twin.read_bytes() if twin.is_file() else None) == twin_bytes
        if twin.is_dir():
            twin.rmdir()
        else:
            twin.unlink()
        assert with_twin == _read_outcome(path)
        if tamper == "edited-pair":
            assert MetricMatrix.from_csv(path).values[0, 1] == 7.5
        if tamper == "edited-cell":
            assert with_twin == ("error", "matrix not symmetric at (2,4)")

    def test_unwritable_twin_removes_the_csv(self, tmp_path):
        (tmp_path / "m.csv.f8").mkdir()
        twin = re.escape(str(tmp_path / "m.csv.f8"))
        with pytest.raises(DataError, match=f"^{twin}: cannot write: "):
            random_metric(5, 2, seed=1).to_csv(tmp_path / "m.csv")
        assert sorted(os.listdir(tmp_path)) == ["m.csv.f8"]
        assert not os.listdir(tmp_path / "m.csv.f8")

    def test_fifo_gets_no_twin(self, tmp_path):
        m = random_metric(40, 2, seed=2)
        m.to_csv(tmp_path / "plain.csv")
        fifo = tmp_path / "m.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        m.to_csv(fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [(tmp_path / "plain.csv").read_bytes()]
        assert sorted(os.listdir(tmp_path)) == ["m.csv", "plain.csv", "plain.csv.f8"]


class TestCheckMetric:
    def test_points_on_a_line_clean(self):
        m = euclidean_matrix([0.0, 1.0, 2.0])
        report = check_metric(m, mode="exhaustive")
        assert report.ok
        assert report.triples_checked == 1

    def test_constructed_violation(self):
        vals = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        m = MetricMatrix(vals)
        report = check_metric(m, mode="exhaustive")
        assert len(report.violations) == 1
        i, j, k = report.violations[0]
        assert vals[i, k] > vals[i, j] + vals[j, k]

    def test_generated_instance_clean_exhaustive(self):
        m = random_metric(100, 3, seed=6)
        assert check_metric(m, mode="exhaustive").ok

    def test_sampled_mode_clean(self):
        m = random_metric(50, 2, seed=7)
        report = check_metric(m, mode="sampled", sample_triples=2000, seed=1)
        assert report.ok
        assert report.triples_checked == 2000

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ParameterError, match="sample_triples"):
            check_metric(random_metric(50, 2, seed=7), mode="sampled",
                         sample_triples=-5)

    def test_infinite_entries_not_counted(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 1.0
        vals[1, 2] = vals[2, 1] = 1.0
        vals[0, 2] = vals[2, 0] = math.inf  # inf side is skipped, not violating
        report = check_metric(MetricMatrix(vals), mode="exhaustive")
        assert report.ok

    @staticmethod
    def draw_matrix(data, min_n: int, max_n: int) -> MetricMatrix:
        # symmetric, not metric: integer ties, integers nudged up by half the
        # triangle tolerance, zeros off the diagonal, +inf, and scales where
        # the tolerance underflows or a sum overflows
        n = data.draw(st.integers(min_n, max_n), label="n")
        nudged = st.integers(1, 6).map(lambda v: v * (1 + _TRIANGLE_REL_TOL / 2))
        upper = data.draw(st.lists(
            st.one_of(st.integers(0, 6).map(float), nudged, st.just(math.inf)),
            min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
        ), label="upper")
        scale = data.draw(st.sampled_from([1.0, 1e-300, 1e300, 2.5e307]),
                          label="scale")
        vals = np.zeros((n, n))
        vals[np.triu_indices(n, 1)] = np.array(upper) * scale
        vals += vals.T
        return MetricMatrix(vals)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_exhaustive_matches_all_triples(self, data):
        m = self.draw_matrix(data, 0, 10)
        n = m.n
        d = m.values.tolist()

        def violates(a, b, c):
            lhs, rhs = d[a][c], d[a][b] + d[b][c]
            return (math.isfinite(lhs) and math.isfinite(rhs)
                    and lhs > rhs + _TRIANGLE_REL_TOL * rhs)

        expected = {
            triple for triple in itertools.combinations(range(n), 3)
            if any(violates(*o) for o in itertools.permutations(triple))
        }
        got = check_metric(m, mode="exhaustive").violations
        assert len({tuple(sorted(v)) for v in got}) == len(got)
        assert {tuple(sorted(v)) for v in got} == expected
        assert all(violates(*v) for v in got)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sampled_matches_per_triple_loop(self, data):
        m = self.draw_matrix(data, 3, 12)
        # up to twice C(12, 3): triples repeat, and 0 draws none
        sample_triples = data.draw(st.integers(0, 440), label="sample_triples")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = check_metric(m, mode="sampled", sample_triples=sample_triples,
                           seed=seed)
        with np.errstate(over="ignore"):  # the loop's scalar sums overflow
            want = sampled_check_metric(m, sample_triples, seed)
        assert got.violations == want.violations
        assert got.triples_checked == want.triples_checked

    def test_overflowing_sums_warn_nothing(self):
        # units of 2.5e307: a sum over 7 units passes the largest float;
        # smaller sums stay finite and some of them are violated
        upper = np.triu(np.random.default_rng(11).integers(0, 7, size=(8, 8)), 1)
        vals = upper * 2.5e307
        m = MetricMatrix(vals + vals.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exhaustive = check_metric(m, mode="exhaustive")
            sampled = check_metric(m, mode="sampled", sample_triples=200)
        found = {tuple(sorted(v)) for v in exhaustive.violations}
        assert sampled.violations
        assert {tuple(sorted(v)) for v in sampled.violations} <= found


class TestIngest:
    def test_reciprocal(self):
        m = ingest_similarity([(0, 1, 50.0)], n=2)
        assert m.values[0, 1] == 0.02

    def test_missing_pair_is_infinite(self):
        m = ingest_similarity([(0, 1, 50.0)], n=3)
        assert math.isinf(m.values[0, 2])
        assert math.isinf(m.values[1, 2])

    def test_default_policy_keeps_larger_score(self):
        m = ingest_similarity([(0, 1, 50.0), (1, 0, 40.0)], n=2)
        assert m.values[0, 1] == 1.0 / 50.0

    def test_max_distance_and_mean_policies(self):
        pairs = [(0, 1, 50.0), (1, 0, 40.0)]
        assert ingest_similarity(pairs, n=2, policy="max_distance").values[0, 1] == 1.0 / 40.0
        expected = (1.0 / 50.0 + 1.0 / 40.0) / 2.0
        assert ingest_similarity(pairs, n=2, policy="mean").values[0, 1] == expected

    def test_non_positive_score_rejected(self):
        with pytest.raises(DataError):
            ingest_similarity([(0, 1, 0.0)], n=2)
        with pytest.raises(DataError):
            ingest_similarity([(0, 1, -3.0)], n=2)

    def test_diagonal_forced_zero(self):
        m = ingest_similarity([(0, 0, 5.0), (0, 1, 2.0)], n=2)
        assert m.values[0, 0] == 0.0

    def test_reingest_idempotent_bit_exact(self):
        rng = np.random.default_rng(8)
        n = 12
        pairs = [
            (i, j, float(rng.uniform(0.5, 300.0)))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.7
        ]
        first = ingest_similarity(pairs, n=n)
        second = ingest_similarity(list(emit_pairs(first)), n=n)
        finite = np.isfinite(first.values)
        assert np.array_equal(first.values[finite], second.values[finite])
        assert np.array_equal(np.isfinite(second.values), finite)


class TestPairAndLabelFiles:
    def test_pair_file_header_detection_and_labels(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "id_a\tid_b\tbit_score\n"
            "b\ta\t10\n"
            "a\tc\t4\n"
        )
        pairs, labels = read_pair_file(path)
        assert labels == ["a", "b", "c"]
        assert (1, 0, 10.0) in pairs and (0, 2, 4.0) in pairs

    def test_pair_file_bad_score_after_header_is_data_error(self, tmp_path):
        # only the first non-blank, non-comment line may be a header;
        # skipping `x y abc` as another would drop point y without a word
        path = tmp_path / "pairs.tsv"
        path.write_text("# comment\nid_a id_b score\nx y abc\nx z 2.0\n")
        with pytest.raises(DataError, match=r"pairs\.tsv:3: bad bit score 'abc'"):
            read_pair_file(path)

    def test_pair_file_numeric_ids_keep_order(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t2\t5\n1\t2\t4\n")
        pairs, labels = read_pair_file(path)
        assert labels == ["0", "1", "2"]
        assert (0, 2, 5.0) in pairs

    def test_labels_csv_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        for labels, clusters in (
            ([0, 1, 1, 0], [[0, 3], [1, 2]]),
            (["b", "a", "b", "c"], [[1], [0, 2], [3]]),
        ):
            write_labels_csv(path, labels)
            assert path.read_text().startswith("point_id,cluster_label\n")
            assert read_target_labels(path, 4).clusters == clusters

    def test_label_file_orders_labels_like_pair_ids(self, tmp_path):
        # 7 and 007 are two labels, --3 is not an integer, and integer
        # labels come first in numeric order
        names = ["b", "007", "--3", "10", "7", "-3", "9", "a"]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "".join(f"{a}\t{b}\t1\n" for a, b in zip(names, names[1:]))
        )
        _, ids = read_pair_file(pairs)
        assert ids == ["-3", "007", "7", "9", "10", "--3", "a", "b"]
        labels = tmp_path / "labels.csv"
        write_labels_csv(labels, names)
        clusters = read_target_labels(labels, len(names)).clusters
        assert [names[c[0]] for c in clusters] == ids
        assert all(len(c) == 1 for c in clusters)

    @pytest.mark.parametrize("text", [
        "\npoint_id,cluster_label\n0,a\n1,b\n",
        "\n\n  \npoint_id,cluster_label\n\n0,a\n\n1,b\n\n",
        "0,a\n\n1,b\n",
    ], ids=["blank-then-header", "blanks-throughout", "no-header"])
    def test_label_header_is_the_first_non_blank_line(self, tmp_path, text):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        assert read_target_labels(path, 2).clusters == [[0], [1]]

    @pytest.mark.parametrize("text, message", [
        ("", "empty label file"),
        ("point_id,cluster_label\n", "empty label file"),
        ("0,a\n1,a,b\n", ":2: expected 2 columns"),
        ("0,a\nx,b\n", ":2: bad point id 'x'"),
        ("\n0,a\n\npoint_id,b\n", ":4: bad point id 'point_id'"),
        ("0,a\n1,b\n0,c\n", ":3: duplicate point id 0"),
    ])
    def test_label_file_faults_are_data_errors(self, tmp_path, text, message):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_target_labels(path, 2)
