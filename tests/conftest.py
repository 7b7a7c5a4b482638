import importlib
import inspect
import itertools
import textwrap

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from landmark_minsum import (
    Clustering,
    InstanceSpec,
    MatrixDistanceSource,
    MetricMatrix,
    StabilityParams,
    build_landmark_table,
    generate,
    plant_landmarks,
    stop_bound_from,
)
from oracles import full_stream

# ---------------------------------------------------------------------------
# shared builders


def euclidean_matrix(points) -> MetricMatrix:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    return MetricMatrix(squareform(pdist(pts)))


def random_metric(n: int, dim: int, seed: int, scale: float = 10.0) -> MetricMatrix:
    rng = np.random.default_rng(seed)
    return euclidean_matrix(rng.uniform(0.0, scale, size=(n, dim)))


def rebuilt(function, edits=()):
    """`function`, or a method, recompiled from its source, with each (old,
    new) text edit applied, in a copy of its module's namespace: the mutant
    of a gate."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, old  # the mutant still applies
        source = source.replace(old, new)
    namespace = dict(function.__globals__)
    exec(compile(source, "<mutant>", "exec"), namespace)
    return namespace[function.__name__]


def assert_saves_match_sorted(kernel, table, k, t):
    """A run by `kernel` over `table.chunks()`, which takes quiet chunks
    unsorted and splits the others, saves the states that the run over the
    same chunks, each sorted whole, saves: the same balls, sizes, clusters,
    fired product and `last` at every record-low extraction.  The offsets
    that the splitting run saves point into the pieces of a chunk, not into
    the chunk, so offsets are left out."""
    runs = []
    for chunks in (table.chunks(), (tuple(c) for c in table.chunks())):
        saves = []
        clusters, fired = kernel(table, k, t, chunks, None, saves)
        runs.append(([s._replace(offset=None) for s in saves], clusters, fired))
    assert runs[0] == runs[1]


def assert_pieces_match_sorted(table):
    """Split every chunk of `table.chunks()` as a single run does, down to
    `_LEAF` pairs or one distance, the lower half first: the pieces, each
    sorted, concatenate to `oracles.full_stream`; no tie straddles two
    pieces, and no distance is below a piece's `lo` or, before the piece,
    above it."""
    leaf = importlib.import_module("landmark_minsum.landmark")._LEAF
    cols = ([], [], [])
    below = -np.inf  # the largest distance before the piece
    for chunk in table.chunks():
        pieces = [chunk]
        while pieces:
            piece = pieces.pop()
            halves = piece.split() if piece.cut[0].size > leaf else None
            if halves:
                pieces += reversed(halves)
                continue
            dist = piece.cut[1]
            assert dist.size <= leaf or np.unique(dist).size == 1
            assert below <= piece.lo <= dist.min() and below < dist.min()
            below = dist.max()
            for col, part in zip(cols, piece):
                col.extend(part)
    for col, ref in zip(cols, full_stream(table)):
        assert np.asarray(col, ref.dtype).tobytes() == ref.tobytes()


def random_symmetric(n: int, seed: int, scale: float = 5.0) -> MetricMatrix:
    """Symmetric, zero-diagonal, non-negative -- but not necessarily a metric."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, scale, size=(n, n))
    upper = np.triu(a, 1)
    return MetricMatrix(upper + upper.T)


def structure_violation_case():
    """(matrix, target, params) whose good sets break parts 1 and 2 only.

    Not a metric: in cluster 0 = {0, 1, 2} points 1 and 2 are 1 from the
    median 0 but 100 apart, and point 2 lies 0.5 from point 4 of
    cluster 1 = {3, 4} while every other cross distance is 1000.  At
    alpha / epsilon = 250 every point is good, the diameter bound of
    cluster 0 is 1.6 * 250 / 180 and the separation bound 1.6 * 250 / 10.
    """
    d = np.full((5, 5), 1000.0)
    d[np.ix_([0, 1, 2], [0, 1, 2])] = [[0, 1, 1], [1, 0, 100], [1, 100, 0]]
    d[np.ix_([3, 4], [3, 4])] = [[0, 1], [1, 0]]
    d[2, 4] = d[4, 2] = 0.5
    target = Clustering(n=5, clusters=[[0, 1, 2], [3, 4]])
    return MetricMatrix(d), target, StabilityParams(alpha=1.0, epsilon=0.004)


def criterion_07_case(trial: int):
    """(table, k, b) of criterion 07's trial: one planted landmark per core,
    b from the instance's declared stability parameters."""
    seed = 700 + trial
    sizes = [(50, 40, 30), (45, 40, 35, 30), (60, 45, 35)][trial % 3]
    inst = generate(InstanceSpec(
        sizes=sizes, theta=5.0,
        bad_fraction=0.01 if trial % 3 == 2 else 0.0, seed=seed,
    ))
    table = build_landmark_table(
        MatrixDistanceSource(inst.matrix),
        plant_landmarks(inst, per_core=1, seed=seed),
    )
    return table, len(sizes), stop_bound_from(inst.stability, inst.n)


def random_partition(n: int, k: int, rng) -> Clustering:
    labels = rng.integers(0, k, size=n)
    clusters = [sorted(np.nonzero(labels == j)[0].tolist()) for j in range(k)]
    return Clustering(n=n, clusters=[c for c in clusters])


def bijection_distance_oracle(c1: Clustering, c2: Clustering) -> float:
    """Exhaustive minimum over all cluster bijections (k! terms)."""
    k = max(c1.k, c2.k)
    a = [set(c) for c in c1.clusters] + [set()] * (k - c1.k)
    b = [set(c) for c in c2.clusters] + [set()] * (k - c2.k)
    best = None
    for sigma in itertools.permutations(range(k)):
        t = sum(len(a[i] - b[sigma[i]]) for i in range(k))
        if best is None or t < best:
            best = t
    return best / c1.n


# ---------------------------------------------------------------------------
# acceptance summary: one PASS/FAIL line per criterion after the run

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_criterion(name: str, passed: bool) -> None:
    _ACCEPTANCE_RESULTS[name] = "PASS" if passed else "FAIL"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if item.module and getattr(item.module, "__name__", "").endswith(
        "test_acceptance"
    ):
        marker = item.get_closest_marker("criterion")
        if marker:
            name = marker.args[0]
            if report.failed:
                _ACCEPTANCE_RESULTS[name] = "FAIL"
            elif name not in _ACCEPTANCE_RESULTS:
                _ACCEPTANCE_RESULTS[name] = "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(name): acceptance criterion covered by this test"
    )
