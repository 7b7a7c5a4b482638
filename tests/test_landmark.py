import importlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from landmark_minsum import (
    Clustering,
    InstanceSpec,
    InvariantViolation,
    MatrixDistanceSource,
    MetricMatrix,
    ParameterError,
    PointCloudDistanceSource,
    StabilityParams,
    assign_remainder,
    build_landmark_table,
    classify_points,
    cluster_min_sum,
    generate,
    ideal_threshold,
    landmark_count_for,
    plant_landmarks,
    sample_landmarks,
    sweep,
    threshold_from_opt,
)
from landmark_minsum.landmark import (
    LandmarkTable,
    _as_clustering,
    _Chunk,
    _stream_min_sum,
)

from conftest import (
    assert_pieces_match_sorted,
    assert_saves_match_sorted,
    criterion_07_case,
    euclidean_matrix,
    random_metric,
    random_symmetric,
)
from oracles import (
    conceptual_cluster_min_sum,
    full_stream,
    loop_stream_min_sum,
)


landmark_module = importlib.import_module("landmark_minsum.landmark")


def two_pairs_matrix():
    vals = np.full((4, 4), 100.0)
    np.fill_diagonal(vals, 0.0)
    vals[0, 1] = vals[1, 0] = 1.0
    vals[2, 3] = vals[3, 2] = 1.0
    return MetricMatrix(vals)


def table_for(m, landmarks):
    return build_landmark_table(MatrixDistanceSource(m), landmarks)


def streamed(table):
    """`table.chunks()` concatenated: the (landmark position, point,
    distance) columns of the whole finite stream."""
    cols = ([np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)])
    for chunk in table.chunks():
        for col, part in zip(cols, chunk):
            col.append(np.asarray(part))
    return tuple(np.concatenate(col) for col in cols)


class TestSampleLandmarks:
    def test_full_sample_is_everything(self):
        assert sorted(sample_landmarks(7, 7, seed=0)) == list(range(7))

    def test_deterministic(self):
        assert sample_landmarks(50, 10, seed=3) == sample_landmarks(50, 10, seed=3)

    def test_distinct(self):
        picks = sample_landmarks(30, 30, seed=1)
        assert len(set(picks)) == 30

    def test_uniform_frequencies(self):
        counts = np.zeros(10)
        for trial in range(100_000):
            counts[sample_landmarks(10, 1, seed=trial)[0]] += 1
        freqs = counts / 100_000
        assert freqs.min() >= 0.09 and freqs.max() <= 0.11

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_landmarks(5, 6, seed=0)
        with pytest.raises(ParameterError):
            sample_landmarks(5, 0, seed=0)


class TestLandmarkCount:
    def test_reference_value(self):
        params = StabilityParams(alpha=1.0, epsilon=0.001, delta=0.05)
        assert landmark_count_for(params, k=8) == 42

    def test_floor_clamp(self):
        params = StabilityParams(alpha=1.0, epsilon=0.001, delta=0.9)
        assert landmark_count_for(params, k=1) == 1

    def test_clamped_to_n(self):
        params = StabilityParams(alpha=1.0, epsilon=0.001, delta=0.05)
        assert landmark_count_for(params, k=8, n=10) == 10

    def test_doubling_k_increment_bound(self):
        params = StabilityParams(alpha=2.0, epsilon=0.01, delta=0.1)
        step = math.ceil(math.log(2) / ((3 + 120 / 2.0) * 0.01))
        for k in (1, 2, 3, 5, 9, 17):
            delta = landmark_count_for(params, 2 * k) - landmark_count_for(params, k)
            assert 0 <= delta <= step

    def test_threshold_from_opt(self):
        assert threshold_from_opt(1.0, 0.01, opt=400.0, n=100) == pytest.approx(10.0)


class TestBuildTable:
    def test_one_query_per_landmark(self):
        m = random_metric(40, 2, seed=0)
        src = MatrixDistanceSource(m)
        build_landmark_table(src, sample_landmarks(40, 9, seed=0))
        assert src.ledger.queries_issued == 9

    def test_single_landmark_sorted(self):
        m = random_metric(15, 2, seed=1)
        t = table_for(m, [4])
        for _, point, dist in (streamed(t), full_stream(t)):
            assert np.all(np.diff(dist) >= 0)
            assert set(point.tolist()) == set(range(15))

    def test_all_equal_tie_break_lexicographic(self):
        vals = np.ones((4, 4))
        np.fill_diagonal(vals, 0.0)
        t = table_for(MetricMatrix(vals), [2, 0])
        for landmark, point, _ in (streamed(t), full_stream(t)):
            # zero batch first (landmark order), then lexicographic
            # (position, point)
            pairs = list(zip(landmark.tolist(), point.tolist()))
            assert pairs[:2] == [(0, 2), (1, 0)]
            expected = [(l, p) for l in (0, 1) for p in range(4)
                        if p != (2 if l == 0 else 0)]
            assert pairs[2:] == expected

    def test_matches_naive_sort_oracle(self):
        m = random_metric(50, 3, seed=2)
        landmarks = sample_landmarks(50, 5, seed=5)
        t = table_for(m, landmarks)
        naive = sorted(
            (m.values[l, p], j, p)
            for j, l in enumerate(landmarks)
            for p in range(50)
        )
        for landmark, point, dist in (streamed(t), full_stream(t)):
            got = list(zip(dist.tolist(), landmark.tolist(), point.tolist()))
            assert got == naive

    def test_matches_lexsort_with_ties_zeros_and_inf(self):
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 4, size=(60, 2)).astype(float)
        pts[10:20] = pts[0]  # duplicate points: zero distances
        vals = np.round(squareform(pdist(pts)))  # many tied distances
        vals[vals == 0] = -0.0
        np.fill_diagonal(vals, 0.0)
        far = np.arange(60) >= 45
        vals[np.ix_(far, ~far)] = vals[np.ix_(~far, far)] = math.inf
        landmarks = sample_landmarks(60, 12, seed=4)
        t = table_for(MetricMatrix(vals), landmarks)
        rows = vals[landmarks]
        l_flat = np.repeat(np.arange(12), 60)
        p_flat = np.tile(np.arange(60), 12)
        order = np.lexsort((p_flat, l_flat, rows.ravel()))
        order = order[np.isfinite(rows.ravel()[order])]
        for landmark, point, dist in (streamed(t), full_stream(t)):
            assert np.array_equal(landmark, l_flat[order])
            assert np.array_equal(point, p_flat[order])
            assert dist.tobytes() == rows.ravel()[order].tobytes()

    def test_infinite_pairs_last(self):
        # +inf pairs sort after every finite one, so the stream a run reads,
        # cut before the first of them, holds no +inf pair at all
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 1.0
        vals[0, 2] = vals[2, 0] = math.inf
        vals[1, 2] = vals[2, 1] = 2.0
        t = table_for(MetricMatrix(vals), [0, 1])
        for landmark, point, dist in (streamed(t), full_stream(t)):
            assert np.all(np.isfinite(dist))
            assert sorted(zip(landmark.tolist(), point.tolist())) == [
                (0, 0), (0, 1), (1, 0), (1, 1), (1, 2)
            ]

    def test_rows_are_read_only(self):
        # each run sorts its stream from the rows, so they must not change
        t = table_for(random_metric(6, 2, seed=3), [0, 2])
        with pytest.raises(ValueError):
            t.rows[0, 1] = 0.0

    def test_duplicate_landmarks_rejected(self):
        with pytest.raises(ParameterError):
            table_for(random_metric(5, 2, seed=3), [1, 1])


@st.composite
def chunk_cases(draw):
    """Landmark rows for the chunked stream and a first-chunk size: the
    rows repeat a few drawn values, so ties straddle chunk edges, 0.0 sits
    beside -0.0 and +inf pairs occur; n' = n often, and n = 1 is a single
    pair.  Tiny first chunks cut the stream at many edges, and sizes from
    64 on read their cuts off a strided sample."""
    n = draw(st.integers(1, 30), label="n")
    n_prime = draw(st.one_of(st.just(n), st.integers(1, n)), label="n_prime")
    pool = draw(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf]),
        st.floats(0.0, 10.0),
    ), min_size=1, max_size=6), label="pool")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = np.array(pool)[rng.integers(0, len(pool), size=(n_prime, n))]
    first = draw(st.one_of(st.integers(1, 7), st.integers(64, 256)),
                 label="first")
    return LandmarkTable(list(range(n_prime)), rows, n), first


class TestChunkedStream:
    """Differential gate: the lazily sorted chunks against
    `oracles.full_stream`, the one full stable sort they replace."""

    @given(chunk_cases())
    @settings(max_examples=300, deadline=None)
    def test_chunks_concatenate_to_the_full_sort(self, case):
        table, first = case
        with mock.patch.object(landmark_module, "_FIRST_CHUNK", first):
            got = streamed(table)
            dists = [np.asarray(dist) for _, _, dist in table.chunks()]
        for col, ref in zip(got, full_stream(table)):
            assert col.dtype == ref.dtype
            assert col.tobytes() == ref.tobytes()
        for dist, after in zip(dists, dists[1:]):
            assert dist.size and dist[-1] < after[0]  # no tie split

    @given(chunk_cases(), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_split_pieces_concatenate_to_the_full_sort(self, case, leaf):
        # leaves of 1-8 pairs split each chunk at many distances
        table, first = case
        with mock.patch.object(landmark_module, "_FIRST_CHUNK", first), \
                mock.patch.object(landmark_module, "_LEAF", leaf):
            assert_pieces_match_sorted(table)


class TestClusterMinSum:
    def test_two_tight_pairs(self):
        t = table_for(two_pairs_matrix(), [0, 1, 2, 3])
        c = cluster_min_sum(t, k=2, threshold=3.0)
        assert c.clusters == [[0, 1], [2, 3]]
        assert c.unassigned == []
        assert c.cluster_landmarks == [[0, 1], [2, 3]]

    def test_k1_large_threshold_single_cluster_via_exhaustion(self):
        m = random_metric(12, 2, seed=4)
        t = table_for(m, [0, 5])
        c = cluster_min_sum(t, k=1, threshold=1e12)
        assert c.clusters == [list(range(12))]
        assert c.unassigned == []

    def test_k1_small_threshold_fires_early_then_remainder_completes(self):
        # a small T legitimately triggers an extraction before exhaustion;
        # remainder assignment then completes the partition
        m = random_metric(12, 2, seed=4)
        t = table_for(m, [0, 5])
        c = cluster_min_sum(t, k=1, threshold=1e-6)
        assert c.k == 1
        assert len(c.clusters[0]) < 12 and c.unassigned
        full = assign_remainder(c, t)
        assert full.is_partition()
        assert full.clusters[0] == list(range(12))

    def test_parameter_errors(self):
        t = table_for(random_metric(5, 2, seed=5), [0])
        with pytest.raises(ParameterError):
            cluster_min_sum(t, k=6, threshold=1.0)
        with pytest.raises(ParameterError):
            cluster_min_sum(t, k=0, threshold=1.0)
        with pytest.raises(ParameterError):
            cluster_min_sum(t, k=2, threshold=0.0)

    def test_padding_warning_when_stream_exhausts_early(self):
        m = random_metric(10, 2, seed=6)
        t = table_for(m, [0, 3])
        c = cluster_min_sum(t, k=3, threshold=1e12)
        assert c.k == 3
        assert c.clusters[0] == list(range(10))
        assert c.clusters[1] == [] and c.clusters[2] == []
        assert any(w.startswith("padded_empty_clusters") for w in c.warnings)

    def test_emitted_clusters_disjoint_and_cover(self):
        m = random_symmetric(30, seed=7)
        t = table_for(m, sample_landmarks(30, 6, seed=7))
        c = cluster_min_sum(t, k=4, threshold=20.0)
        c.validate()  # raises on overlap or dropped points

    def test_determinism_byte_for_byte(self):
        m = random_metric(40, 3, seed=8)
        runs = []
        for _ in range(2):
            t = table_for(m, sample_landmarks(40, 7, seed=11))
            c = cluster_min_sum(t, k=3, threshold=5.0)
            runs.append(json.dumps(c.to_dict(), sort_keys=True))
        assert runs[0] == runs[1]

    def test_size_ordered_core_extraction(self):
        # cores with size*diameter held constant come out largest first
        spec = InstanceSpec(sizes=(40, 20, 10), theta=6.0, seed=21)
        inst = generate(spec)
        landmarks = plant_landmarks(inst, per_core=1, seed=2)
        t = table_for(inst.matrix, landmarks)
        c = cluster_min_sum(t, k=3, threshold=ideal_threshold(inst))
        for i, core in enumerate(inst.core_members):
            assert set(core) <= set(c.clusters[i])

    def test_good_sets_land_in_distinct_clusters(self):
        spec = InstanceSpec(sizes=(50, 35, 25), theta=8.0, bad_fraction=0.02,
                            seed=13)
        inst = generate(spec)
        report = classify_points(inst.matrix, inst.target, inst.stability)
        assert report.all_ok
        t = table_for(inst.matrix, plant_landmarks(inst, 1, seed=3))
        c = cluster_min_sum(t, k=3, threshold=ideal_threshold(inst))
        labels = c.labels()
        homes = []
        for good in report.good_sets:
            where = {int(labels[p]) for p in good}
            assert len(where) == 1  # each good set wholly inside one cluster
            homes.append(where.pop())
        assert -1 not in homes
        assert len(set(homes)) == len(homes)  # no cluster holds two good sets


class TestAssignRemainder:
    def test_identity_when_nothing_unassigned(self):
        t = table_for(two_pairs_matrix(), [0, 2])
        c = cluster_min_sum(t, k=2, threshold=3.0)
        done = assign_remainder(c, t)
        assert done.clusters == c.clusters

    def test_nearest_landmark_wins(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = 1.0
        vals[0, 2] = vals[2, 0] = 5.0
        vals[1, 2] = vals[2, 1] = 4.5
        t = table_for(MetricMatrix(vals), [0, 2])
        c = Clustering(n=3, clusters=[[0], [2]], unassigned=[1])
        done = assign_remainder(c, t)
        assert done.clusters == [[0, 1], [2]]

    def test_matches_brute_force_scan(self):
        m = random_metric(40, 2, seed=10)
        landmarks = sample_landmarks(40, 6, seed=10)
        t = table_for(m, landmarks)
        c = cluster_min_sum(t, k=3, threshold=2.0)
        assert c.unassigned  # the chosen threshold leaves leftovers
        done = assign_remainder(c, t)
        labels = done.labels()
        base = c.labels()
        clustered = [(j, pid) for j, pid in enumerate(landmarks)
                     if base[pid] >= 0]
        for p in c.unassigned:
            best = min(clustered, key=lambda jp: (m.values[jp[1], p], jp[0]))
            assert labels[p] == base[best[1]]

    def test_error_without_clustered_landmark(self):
        m = random_metric(6, 2, seed=11)
        t = table_for(m, [0])
        c = Clustering(n=6, clusters=[[1, 2]], unassigned=[0, 3, 4, 5])
        with pytest.raises(InvariantViolation):
            assign_remainder(c, t)


class TestConceptualOracle:
    def test_single_landmark_k1_large_threshold(self):
        m = random_metric(9, 2, seed=12)
        c = conceptual_cluster_min_sum(m, [4], k=1, threshold=1e12)
        assert c.clusters == [list(range(9))]

    def test_two_tight_pairs(self):
        c = conceptual_cluster_min_sum(two_pairs_matrix(), [0, 1, 2, 3], 2, 3.0)
        assert c.clusters == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("trial", range(40))
    def test_matches_discrete_on_random_instances(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(4, 61))
        if trial % 2:
            m = random_metric(n, int(rng.integers(1, 4)), seed=trial)
        else:
            m = random_symmetric(n, seed=trial)
        n_prime = int(rng.integers(1, min(n, 7) + 1))
        landmarks = sample_landmarks(n, n_prime, seed=trial)
        k = int(rng.integers(1, min(n, 5) + 1))
        t_max = n * float(np.max(m.values[np.isfinite(m.values)]))
        threshold = float(rng.uniform(1e-6, 1.2 * t_max))
        table = table_for(m, landmarks)
        a = cluster_min_sum(table, k, threshold)
        b = conceptual_cluster_min_sum(m, landmarks, k, threshold)
        assert a.clusters == b.clusters
        assert a.unassigned == b.unassigned


@st.composite
def stream_cases(draw):
    """A small table, k and T: grid points give tied and zero distances
    (repeated points), an optional second component sits at +inf, and T is
    often a size x distance product, a fired product or a float next to
    one, where the extraction tests and the dead gaps they open are
    decided."""
    n = draw(st.integers(1, 25), label="n")
    kind = draw(st.sampled_from(["l1", "euclidean", "symmetric"]), label="kind")
    if kind == "symmetric":  # not a metric; ties and zeros off the diagonal
        upper = draw(st.lists(st.integers(0, 5), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2), label="upper")
        vals = np.zeros((n, n))
        vals[np.triu_indices(n, 1)] = upper
        vals += vals.T
    else:
        coords = np.array(draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=n, max_size=n,
        ), label="coords"), dtype=float)
        if kind == "l1":
            vals = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        else:
            vals = euclidean_matrix(coords).values.copy()
    split = draw(st.integers(0, n), label="split")
    far = np.arange(n) >= split  # points from `split` on: the +inf component
    vals[far[:, None] != far[None, :]] = math.inf
    n_prime = draw(st.one_of(st.just(n), st.integers(1, n)), label="n_prime")
    landmarks = draw(st.permutations(range(n)), label="order")[:n_prime]
    k = draw(st.integers(1, n), label="k")
    table = table_for(MetricMatrix(vals), landmarks)
    positive = np.unique(vals[np.isfinite(vals) & (vals > 0)]).tolist()
    if not positive:
        return table, k, draw(st.floats(1e-3, 10.0), label="T")
    t = draw(st.integers(1, n), label="size") * draw(st.sampled_from(positive),
                                                      label="distance")
    if draw(st.booleans(), label="fired"):
        fired = loop_stream_min_sum(table, k, t)[1]
        if fired < math.inf:
            t = fired
    nudge = draw(st.sampled_from([0.0, -math.inf, math.inf]), label="nudge")
    if nudge:
        t = float(np.nextafter(t, nudge))
    return table, k, t


class TestMatchesLoopOracle:
    """Differential gate: the single-pass kernel against
    `oracles.loop_stream_min_sum`, the loop it replaced."""

    @given(stream_cases(), st.integers(1, 7))
    @settings(max_examples=300, deadline=None)
    def test_small_adversarial_tables(self, case, tiny):
        # both stream forms: the chunks a single run takes unsorted where
        # no test can fire, and those chunks sorted whole, as a sweep
        # converts them once; cut at the default chunk size and at a tiny
        # one that puts chunk edges inside the run
        table, k, t = case
        ref, ref_fired = loop_stream_min_sum(table, k, t)
        for first in (landmark_module._FIRST_CHUNK, tiny):
            with mock.patch.object(landmark_module, "_FIRST_CHUNK", first):
                for chunks in (table.chunks(),
                               (tuple(c) for c in table.chunks())):
                    clusters, fired = _stream_min_sum(table, k, t, chunks)
                    run = _as_clustering(table, k, clusters)
                    assert run.clusters == ref.clusters
                    assert run.unassigned == ref.unassigned
                    assert run.cluster_landmarks == ref.cluster_landmarks
                    assert run.warnings == ref.warnings
                    assert fired == ref_fired
                    if fired == math.inf:  # nothing fired: all clustered
                        assert sum(map(len, clusters)) == table.n

    @pytest.mark.parametrize("trial", range(30))
    def test_criterion_07_sweeps(self, trial, monkeypatch):
        # every run of the sweep, not only the winner, matches the oracle,
        # at the default chunk size and at a tiny one; `resume` is the
        # saved state a run starts from and the stack it saves onto
        table, k, b = criterion_07_case(trial)

        def checked(table, k, t, chunks, *resume):
            clusters, fired = _stream_min_sum(table, k, t, chunks, *resume)
            ref, ref_fired = loop_stream_min_sum(table, k, t)
            assert _as_clustering(table, k, clusters).to_dict() == ref.to_dict()
            assert fired == ref_fired
            oracle_runs.append((t, ref))
            return clusters, fired

        # the package's `sweep` attribute is the function, not the module
        sweep_module = importlib.import_module("landmark_minsum.sweep")
        monkeypatch.setattr(sweep_module, "_stream_min_sum", checked)
        for first in (landmark_module._FIRST_CHUNK, 1 + trial % 7):
            monkeypatch.setattr(landmark_module, "_FIRST_CHUNK", first)
            oracle_runs = []
            res = sweep(table, k, b)
            assert res.coverage_per_candidate == [
                (t, ref.points_clustered()) for t, ref in oracle_runs
            ]
            winner = assign_remainder(oracle_runs[-1][1], table)
            assert res.clustering.to_dict() == winner.to_dict()

    def test_sweep_builds_one_clustering(self, monkeypatch):
        # runs return bare clusters; only the winner and its remainder
        # assignment become `Clustering` objects
        table, k, b = criterion_07_case(0)
        built = []

        class Counted(Clustering):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(landmark_module, "Clustering", Counted)
        res = sweep(table, k, b)
        assert res.runs_executed > 2
        assert 1 <= len(built) <= 2
        assert res.clustering is built[-1]


def assert_bulk_matches_loop(table, k, t, leaf, first):
    """`_stream_min_sum`, with leaves of `leaf` pairs and a first chunk of
    about `first` pairs, equals `oracles.loop_stream_min_sum` in clusters
    and fired product, on each chunk form: the chunks a single run takes
    unsorted where no test can fire and splits elsewhere, and those chunks
    sorted whole, as `sweep` converts them.  The run that takes chunks
    unsorted saves the states of the run that sorts them whole."""
    ref, ref_fired = loop_stream_min_sum(table, k, t)
    with mock.patch.object(landmark_module, "_LEAF", leaf), \
            mock.patch.object(landmark_module, "_FIRST_CHUNK", first):
        for chunks in (table.chunks(), (tuple(c) for c in table.chunks())):
            clusters, fired = _stream_min_sum(table, k, t, chunks)
            assert _as_clustering(table, k, clusters).to_dict() == ref.to_dict()
            assert fired == ref_fired
        assert_saves_match_sorted(_stream_min_sum, table, k, t)


# (points on a line or grid, landmark points, k, T, whether a piece must
# read the clustered-point mask)
BULK_CASES = {
    # the run at T = 3 inserts points 0 and 1, then point 2 at the same
    # distance 2: its test is skipped, though 2 * 2 > 3; the two pairs at
    # distance 2 stay in one piece
    "tie across a stretch edge": ([(0, 0), (2, 0), (2, 0)], [0], 1, 3.0, False),
    # every pair at distance 0: nothing fires, the stream runs out
    "zero distances": ([(1, 1)] * 4, [0, 2], 2, 1.0, False),
    # three copies of one point fire at the first distance 1 (3 * 1 > 2.5)
    "duplicate points": ([(0, 0)] * 3 + [(1, 0)] * 2, [0, 3], 2, 2.5, False),
    # the ball {1, 2, 3} fires at distance 2; a piece after it holds the
    # dead pairs of points 1-3 and the live pair (4, 0); two clusters form
    # where k = 5 asks for more
    "dead pairs in a stretch": ([(1, 0), (2, 0), (3, 0), (3, 0), (5, 0)],
                                [3, 4], 5, 4.5, True),
    "nothing fires at T = 1e30": ([(0, 0), (1, 2), (3, 1), (2, 2), (0, 3), (3, 3)],
                                  [1, 4], 2, 1e30, False),
}


class TestBulkStretches:
    """Differential gate for the pieces a single run splits off a chunk and
    takes unsorted where no test can fire: with leaves of 1-8 pairs and
    first chunks of 1-8 pairs, piece edges fall next to ties, inside dead
    gaps and next to extractions."""

    @given(stream_cases(), st.integers(1, 8), st.integers(1, 8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_small_adversarial_tables(self, case, leaf, first, huge):
        table, k, t = case
        assert_bulk_matches_loop(table, k, 1e30 if huge else t, leaf, first)

    @pytest.mark.parametrize("name", BULK_CASES)
    def test_named_cases(self, name):
        coords, landmarks, k, t, masked = BULK_CASES[name]
        table = table_for(euclidean_matrix(coords), landmarks)
        with mock.patch.object(np, "split", wraps=np.split) as inserted, \
                mock.patch.object(np, "fromiter", wraps=np.fromiter) as mask:
            for leaf in range(1, 9):
                for first in range(1, 9):
                    assert_bulk_matches_loop(table, k, t, leaf, first)
        assert inserted.called  # some piece went in unsorted
        assert mask.called or not masked


class TestChunkSorts:
    """Work-count guards for the quiet chunks a run takes unsorted and the
    chunks it splits: a run sorts only pieces of at most `_LEAF` pairs, or
    of one distance, where a test may fire, and never holds a chunk sorted
    and unsorted at once."""

    @pytest.fixture(scope="class")
    def table(self):
        n = 5_000  # 80k pairs, in five chunks from a first one of 4,096 pairs
        pts = np.random.default_rng(23).uniform(0, 100, size=(n, 4))
        return build_landmark_table(PointCloudDistanceSource(pts),
                                    sample_landmarks(n, 16, seed=23))

    @pytest.fixture(autouse=True)
    def first_chunk(self, monkeypatch):
        monkeypatch.setattr(landmark_module, "_FIRST_CHUNK", 4_096)

    @staticmethod
    def sorted_by_run(table, k, t):
        """The `lo`, pair count and distinct distance count of each piece
        that `cluster_min_sum(table, k, t)` sorts, in order, and the run's
        clustering."""
        sorted_pieces = []
        sort = _Chunk._sort

        def counted(chunk):
            dist = chunk.cut[1]
            sorted_pieces.append((chunk.lo, dist.size, np.unique(dist).size))
            sort(chunk)

        with mock.patch.object(_Chunk, "_sort", counted):
            run = cluster_min_sum(table, k, t)
        return sorted_pieces, run

    def test_a_run_in_which_nothing_fires_sorts_no_chunk(self, table):
        assert len(list(table.chunks())) == 5
        sorted_pieces, run = self.sorted_by_run(table, 8, 1e30)
        assert sorted_pieces == []
        assert run.clusters[0] == list(range(table.n))

    @pytest.mark.parametrize("t, first", [(2e4, 1), (8e4, 2), (3.2e5, 3)])
    def test_a_run_sorts_from_its_first_extraction_on(self, table, t, first):
        # the chunk of the first extraction, from the state saved before it;
        # the chunks from 8,192 pairs on exceed a leaf, so they are split
        saves = []
        _stream_min_sum(table, 8, t, (tuple(c) for c in table.chunks()),
                        None, saves)
        assert saves[0].chunk == first
        edge = [c.lo for c in table.chunks()][first]
        sorted_pieces, run = self.sorted_by_run(table, 8, t)
        assert sorted_pieces
        for lo, pairs, distances in sorted_pieces:
            assert lo >= edge
            assert pairs <= landmark_module._LEAF or distances == 1
        ref = _as_clustering(table, 8, _stream_min_sum(
            table, 8, t, (tuple(c) for c in table.chunks()))[0])
        assert run.to_dict() == ref.to_dict()

    def test_a_chunk_is_held_in_one_form(self, monkeypatch):
        # one chunk of 200k pairs that fails the bound: the run counts its
        # live pairs as cut, then splits it, at a peak of 34 bytes a pair;
        # holding the cut beside its halves raises that to 41, and the
        # columns counted from it to 42
        n = 10_000
        pts = np.random.default_rng(24).uniform(0, 100, size=(n, 4))
        table = build_landmark_table(PointCloudDistanceSource(pts),
                                     sample_landmarks(n, 20, seed=24))
        monkeypatch.setattr(landmark_module, "_FIRST_CHUNK", 1 << 20)
        assert len(list(table.chunks())) == 1
        tracemalloc.start()
        try:
            clusters, _ = _stream_min_sum(table, 3, 1.0, table.chunks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clusters) == 3
        assert peak < 40 * table.rows.size, peak / table.rows.size


class TestStreamReadInPlace:
    """Runs keep no copy of the pair stream on the table: it stays as built,
    the build sorts nothing, and a run that stops early allocates next to
    nothing and sorts only the chunks it reached."""

    @pytest.fixture(scope="class")
    def source(self):
        n = 20_000  # 320k pairs
        pts = np.random.default_rng(20).uniform(0, 100, size=(n, 4))
        return PointCloudDistanceSource(pts)

    @pytest.fixture(scope="class")
    def table(self, source):
        return build_landmark_table(source, sample_landmarks(source.n, 16, seed=20))

    def test_runs_leave_the_table_as_built(self, table):
        before = dict(vars(table))
        cluster_min_sum(table, 3, 1.0)
        sweep(table, 3, table.n - 1)  # stops at its first run
        after = vars(table)
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())

    def test_build_allocates_only_the_rows(self, source, table):
        landmarks = sample_landmarks(source.n, 16, seed=20)
        build_landmark_table(source, landmarks)  # first-use allocations
        tracemalloc.start()
        try:
            built = build_landmark_table(source, landmarks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.rows.tobytes() == table.rows.tobytes()
        assert peak <= built.rows.nbytes + 2**20, peak

    def test_short_run_allocates_little(self, table):
        tracemalloc.start()
        try:
            clusters, _ = _stream_min_sum(table, 3, 1.0, table.chunks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clusters) == 3
        assert table.n - sum(map(len, clusters)) > table.n // 2
        assert peak < 5 * 2**20, peak

    def test_sweep_converts_only_the_chunks_its_run_reached(self, table,
                                                            monkeypatch):
        sorted_chunks = list(table.chunks())
        pulled = []

        def counted(self):
            for chunk in sorted_chunks:
                pulled.append(chunk)
                yield chunk

        monkeypatch.setattr(LandmarkTable, "chunks", counted)
        res = sweep(table, 3, table.n - 1)
        assert res.runs_executed == 1
        reached = len(pulled)
        pulled.clear()
        cluster_min_sum(table, 3, res.chosen_threshold)  # the same run
        assert len(pulled) == reached < len(sorted_chunks)
