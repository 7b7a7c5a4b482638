import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from landmark_minsum import (
    Clustering,
    DataError,
    MatrixDistanceSource,
    MetricMatrix,
    ParameterError,
    QueryLedger,
    StabilityParams,
    balanced_k_median,
    check_metric,
    classify_points,
    clustering_distance,
    embed_kmeans_baseline,
    generate,
    generate_adversarial,
    InstanceSpec,
    min_sum,
    verify_stability,
)
from landmark_minsum import evaluation
from landmark_minsum.evaluation import partition_chunks

from conftest import (
    bijection_distance_oracle,
    euclidean_matrix,
    random_metric,
    random_partition,
    random_symmetric,
    structure_violation_case,
)
from oracles import (
    brute_force_optimum,
    partitions_upto_k,
    two_call_classify_points,
    two_call_verify_structure,
    two_pass_verify_stability,
)


def chunk_rows(n: int, k: int) -> list[tuple[int, ...]]:
    """The label rows of `partition_chunks`, head by head and tail by tail."""
    heads, tails = partition_chunks(n, k)
    return [
        tuple(head) + tuple(tail)
        for head in heads.tolist()
        for tail in tails[max(head) + 1].tolist()
    ]


class TestMinSum:
    def test_singletons_zero(self):
        m = random_metric(5, 2, seed=0)
        c = Clustering(n=5, clusters=[[i] for i in range(5)])
        assert min_sum(c, m).value == 0.0

    def test_single_pair(self):
        m = euclidean_matrix([0.0, 2.0])
        c = Clustering(n=2, clusters=[[0, 1]])
        assert min_sum(c, m).value == 2.0

    def test_matches_double_loop_oracle(self):
        m = random_metric(8, 3, seed=1)
        rng = np.random.default_rng(1)
        c = random_partition(8, 3, rng)
        expected = 0.0
        labels = c.labels()
        for i in range(8):
            for j in range(i + 1, 8):
                if labels[i] == labels[j]:
                    expected += m.values[i, j]
        assert min_sum(c, m).value == pytest.approx(expected, rel=1e-12)

    def test_infinite_intra_distance_flagged(self):
        vals = np.zeros((2, 2))
        vals[0, 1] = vals[1, 0] = math.inf
        c = Clustering(n=2, clusters=[[0, 1]])
        assert math.isinf(min_sum(c, MetricMatrix(vals)).value)

    def test_rejects_incomplete_partition(self):
        m = random_metric(3, 2, seed=2)
        c = Clustering(n=3, clusters=[[0]], unassigned=[1, 2])
        with pytest.raises(DataError):
            min_sum(c, m)


class TestBalancedKMedian:
    def test_pair_cluster(self):
        m = euclidean_matrix([0.0, 2.0])
        c = Clustering(n=2, clusters=[[0, 1]])
        got = balanced_k_median(c, m)
        assert got.value == 4.0
        assert got.medians == [0]  # tie resolved to the lowest index

    def test_singletons_zero(self):
        m = random_metric(4, 2, seed=3)
        c = Clustering(n=4, clusters=[[i] for i in range(4)])
        assert balanced_k_median(c, m).value == 0.0

    def test_line_median_is_middle(self):
        m = euclidean_matrix([0.0, 1.0, 2.0])
        c = Clustering(n=3, clusters=[[0, 1, 2]])
        got = balanced_k_median(c, m)
        assert got.medians == [1]
        assert got.value == 6.0

    def test_matches_median_enumeration(self):
        m = random_metric(9, 2, seed=4)
        rng = np.random.default_rng(4)
        c = random_partition(9, 3, rng)
        expected = 0.0
        for members in c.clusters:
            if members:
                best = min(
                    sum(m.values[y, x] for x in members) for y in members
                )
                expected += len(members) * best
        assert balanced_k_median(c, m).value == pytest.approx(expected, rel=1e-12)

    def test_empty_cluster_contributes_zero(self):
        m = euclidean_matrix([0.0, 2.0])
        c = Clustering(n=2, clusters=[[0, 1], []])
        got = balanced_k_median(c, m)
        assert got.value == 4.0
        assert got.medians == [0, None]


def _contingency_table(kind: str, k: int, rng) -> np.ndarray:
    if kind == "zeros":
        return np.zeros((k, k), dtype=np.int64)
    if kind == "constant":
        return np.full((k, k), 7, dtype=np.int64)
    table = rng.integers(0, 50, size=(k, k))
    if kind == "dominant_row":
        table[rng.integers(k)] += 1000
    elif kind == "sparse":
        table *= rng.random((k, k)) < 0.1
    elif kind == "one_column":  # k clusters against one, padded with empties
        table[:, 1:] = 0
    elif kind == "padded":  # fewer non-empty rows than columns
        table[rng.random(k) < 0.5] = 0
    return table


class TestClusteringDistance:
    def test_identity(self):
        rng = np.random.default_rng(5)
        c = random_partition(10, 3, rng)
        assert clustering_distance(c, c) == 0.0

    def test_label_permutation_free(self):
        rng = np.random.default_rng(6)
        c = random_partition(12, 4, rng)
        perm = Clustering(n=12, clusters=[c.clusters[i] for i in (2, 0, 3, 1)])
        assert clustering_distance(c, perm) == 0.0

    def test_worked_example(self):
        c1 = Clustering(n=4, clusters=[[0, 1], [2, 3]])
        c2 = Clustering(n=4, clusters=[[0, 1, 2], [3]])
        assert clustering_distance(c1, c2) == 0.25

    def test_unequal_cluster_counts_padded(self):
        c1 = Clustering(n=4, clusters=[[0, 1], [2], [3]])
        c2 = Clustering(n=4, clusters=[[0, 1, 2, 3]])
        assert clustering_distance(c1, c2) == bijection_distance_oracle(c1, c2)

    def test_mismatched_point_sets_rejected(self):
        c1 = Clustering(n=4, clusters=[[0, 1], [2, 3]])
        c2 = Clustering(n=5, clusters=[[0, 1], [2, 3, 4]])
        with pytest.raises(DataError):
            clustering_distance(c1, c2)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_bijection_oracle(self, seed, k1, k2):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        c1 = random_partition(n, k1, rng)
        c2 = random_partition(n, k2, rng)
        assert clustering_distance(c1, c2) == pytest.approx(
            bijection_distance_oracle(c1, c2), abs=0
        )

    @pytest.mark.parametrize("kind", [
        "random", "zeros", "constant", "dominant_row", "sparse", "one_column",
        "padded",
    ])
    @pytest.mark.parametrize("k", [1, 2, 5, 30, 150])
    def test_agreement_matches_assignment_oracle(self, kind, k):
        rng = np.random.default_rng(k)
        for _ in range(3 if k == 150 else 20):
            table = _contingency_table(kind, k, rng)
            rows, cols = linear_sum_assignment(-table)
            assert evaluation._max_agreement(table) == table[rows, cols].sum()

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pseudometric_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = random_partition(n, int(rng.integers(1, 5)), rng)
        b = random_partition(n, int(rng.integers(1, 5)), rng)
        c = random_partition(n, int(rng.integers(1, 5)), rng)
        dab = clustering_distance(a, b)
        assert dab == clustering_distance(b, a)
        assert clustering_distance(a, a) == 0.0
        assert dab <= clustering_distance(a, c) + clustering_distance(c, b) + 1e-12


class TestBruteForce:
    def test_k_equals_n_gives_singletons(self):
        m = random_metric(5, 2, seed=7)
        best, val = brute_force_optimum(m, k=5, objective="min_sum")
        assert val.value == 0.0
        assert best.clusters == [[i] for i in range(5)]

    def test_two_tight_pairs(self):
        m = euclidean_matrix([[0.0, 0.0], [0.1, 0.0], [9.0, 0.0], [9.1, 0.0]])
        best, _ = brute_force_optimum(m, k=2, objective="balanced_k_median")
        assert best.clusters == [[0, 1], [2, 3]]

    def test_optimum_bounds_random_clusterings(self):
        m = random_metric(6, 2, seed=8)
        _, val = brute_force_optimum(m, k=3, objective="min_sum")
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = random_partition(6, 3, rng)
            assert val.value <= min_sum(c, m).value + 1e-12

    def test_cap_refusal(self):
        m = random_metric(13, 2, seed=9)
        with pytest.raises(ParameterError):
            brute_force_optimum(m, k=2)

    def test_partition_count(self):
        # Stirling S(5,1)+S(5,2)+S(5,3) = 1 + 15 + 25
        assert len(chunk_rows(5, 3)) == 41

    def test_chunks_match_recursive_generator(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert chunk_rows(n, k) == list(partitions_upto_k(n, k)), (n, k)


class TestClassifyAndStructure:
    def test_zero_noise_cores_have_no_bad_points(self):
        inst = generate(InstanceSpec(sizes=(30, 20, 15), theta=4.0, seed=0))
        report = classify_points(inst.matrix, inst.target, inst.stability)
        assert report.bad_points == []
        assert report.all_ok

    def test_bad_points_within_budget_when_verified(self):
        inst = generate(
            InstanceSpec(sizes=(60, 40, 30), theta=6.0, bad_fraction=0.03, seed=1)
        )
        report = classify_points(inst.matrix, inst.target, inst.stability)
        assert report.part3
        assert report.b_observed <= report.bad_point_budget

    def test_average_weight_matches_objective(self):
        inst = generate(InstanceSpec(sizes=(25, 20), theta=3.0, seed=2))
        report = classify_points(inst.matrix, inst.target, inst.stability)
        psi = balanced_k_median(inst.target, inst.matrix).value
        assert np.mean(report.weights) == pytest.approx(psi / inst.n, rel=1e-9)
        assert report.w == pytest.approx(psi / inst.n, rel=1e-9)

    def test_partition_of_good_and_bad(self):
        inst = generate(
            InstanceSpec(sizes=(30, 25, 20), theta=5.0, bad_fraction=0.05, seed=3)
        )
        report = classify_points(inst.matrix, inst.target, inst.stability)
        counted = sum(len(x) for x in report.good_sets) + len(report.bad_points)
        assert counted == inst.n
        all_good = set().union(*map(set, report.good_sets))
        assert all_good.isdisjoint(report.bad_points)

    def test_single_cluster_flagged(self):
        inst = generate(InstanceSpec(sizes=(12,), theta=2.0, seed=4))
        report = classify_points(
            inst.matrix, inst.target,
            StabilityParams(alpha=1.0, epsilon=0.01),
        )
        assert report.single_cluster
        assert np.all(np.isinf(report.second_weights))

    def test_part1_and_part2_violations_witnessed(self):
        m, target, params = structure_violation_case()
        report = classify_points(m, target, params)
        assert report.good_sets == [[0, 1, 2], [3, 4]]
        assert (report.part1, report.part2, report.part3) == (False, False, True)
        assert not report.all_ok
        w1, w2 = report.witnesses["part1"], report.witnesses["part2"]
        assert (w1["cluster"], w1["pair"], w1["distance"]) == (0, [1, 2], 100.0)
        assert w1["bound"] == pytest.approx(1.6 * 250 / 180)
        assert (w2["clusters"], w2["pair"], w2["distance"]) == ([0, 1], [2, 4], 0.5)
        assert w2["bound"] == pytest.approx(1.6 * 250 / 10)
        assert "part3" not in report.witnesses

    def test_part2_witness_is_the_first_cluster_pair(self):
        # pairs (0, 2) and (1, 2) both violate part 2; (0, 2) comes first
        d = np.full((6, 6), 1000.0)
        for i in (0, 2, 4):
            d[i, i + 1] = d[i + 1, i] = 1.0
        np.fill_diagonal(d, 0.0)
        d[1, 5] = d[5, 1] = d[3, 5] = d[5, 3] = 0.5
        target = Clustering(n=6, clusters=[[0, 1], [2, 3], [4, 5]])
        params = StabilityParams(alpha=1.0, epsilon=0.004)
        report = classify_points(MetricMatrix(d), target, params)
        assert report.bad_points == []
        w2 = report.witnesses["part2"]
        assert (w2["clusters"], w2["pair"]) == ([0, 2], [1, 5])

    def test_part3_violation_constructed(self):
        inst = generate(InstanceSpec(sizes=(20, 15), theta=4.0, seed=6))
        params = StabilityParams(alpha=1.0, epsilon=1e-9)
        # with an absurdly small epsilon every point fails the weight cap
        report = classify_points(inst.matrix, inst.target, params)
        assert not report.part3
        assert report.witnesses["part3"]["b_observed"] > 0

    def test_matches_two_call_oracle(self):
        failed = {"part1": 0, "part2": 0, "part3": 0}
        for seed in range(400):
            m, target, params = _structure_case(seed)
            report = classify_points(m, target, params)
            oracle = two_call_classify_points(m, target, params)
            two_call_verify_structure(oracle, m)
            assert report.to_dict() == oracle.to_dict(), seed
            assert np.array_equal(report.weights, oracle.weights), seed
            assert np.array_equal(report.second_weights, oracle.second_weights)
            assert report.bad_points == oracle.bad_points, seed
            for part in failed:
                failed[part] += not getattr(report, part)
        assert min(failed.values()) > 0, failed


_STRUCTURE_KINDS = ("non_metric", "euclidean", "integer_grid", "spoiled")


def _structure_case(seed: int):
    """Blobs around k random centres (a cluster may stay empty), as a
    Euclidean matrix, on the integer grid (ties), scaled pair by pair
    (not a metric) or with one distance shrunk or stretched tenfold."""
    rng = np.random.default_rng(seed)
    kind = _STRUCTURE_KINDS[seed % 4]
    k = int(rng.integers(1, 5))
    n = int(rng.integers(2 * k, 16))
    labels = rng.integers(0, k, size=n)
    spread = rng.uniform(0.1, 2.0)
    pts = rng.uniform(0, 100, size=(k, 2))[labels] + rng.normal(0, spread, (n, 2))
    if kind == "integer_grid":
        pts = np.round(pts)
    d = euclidean_matrix(pts).values.copy()
    if kind == "non_metric":
        scale = np.triu(rng.uniform(0.2, 3.0, size=(n, n)), 1)
        d *= scale + scale.T
    elif kind == "spoiled":
        i, j = rng.choice(n, size=2, replace=False)
        d[i, j] = d[j, i] = d[i, j] * rng.choice([0.01, 10.0])
    target = Clustering(
        n=n, clusters=[np.flatnonzero(labels == j).tolist() for j in range(k)]
    )
    params = StabilityParams(alpha=rng.uniform(0.5, 3.0),
                             epsilon=rng.uniform(0.001, 0.03))
    return MetricMatrix(d), target, params


class TestVerifyStability:
    def test_two_far_pairs_hold(self):
        m = euclidean_matrix([[0.0, 0], [0.05, 0], [50.0, 0], [50.05, 0]])
        target = Clustering(n=4, clusters=[[0, 1], [2, 3]])
        params = StabilityParams(alpha=1.0, epsilon=0.3)
        assert verify_stability(m, target, k=2, params=params).holds

    def test_uniform_metric_fails_small_epsilon(self):
        inst = generate_adversarial("uniform", n=8, k=2, seed=0)
        params = StabilityParams(alpha=1.0, epsilon=0.2)
        verdict = verify_stability(inst.matrix, inst.target, k=2, params=params)
        assert not verdict.holds
        assert verdict.counterexample is not None
        assert verdict.counterexample_distance >= params.epsilon

    def test_near_one_epsilon_vacuous(self):
        m = random_metric(6, 2, seed=10)
        target = Clustering(n=6, clusters=[[0, 1, 2], [3, 4, 5]])
        params = StabilityParams(alpha=0.5, epsilon=0.999)
        assert verify_stability(m, target, k=2, params=params).holds

    def test_cap_refusal(self):
        m = random_metric(13, 2, seed=11)
        target = Clustering(n=13, clusters=[list(range(13))])
        with pytest.raises(ParameterError):
            verify_stability(m, target, 2, StabilityParams(1.0, 0.1))


def stirling_partition_count(n: int, k: int) -> int:
    """Sum over j <= k of S(n, j), by S(i, j) = j S(i-1, j) + S(i-1, j-1)."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


@st.composite
def small_metrics(draw):
    """Metrics on n <= 8 points: L1 distances on a 4 x 4 integer grid (ties
    and duplicate points), a few sites repeated, two components at +inf
    distance, the uniform adversarial metric, Euclidean distances between
    random real points (where the order of a sum shows in the last bit), or
    signed zeros everywhere.  Real points come six or more at a time: a sum
    over blocks changes with its order only from three blocks of two on."""
    kind = draw(st.sampled_from(
        ["grid", "duplicates", "inf", "uniform", "float", "signed_zero"]
    ))
    n = draw(st.integers(6 if kind == "float" else 1, 8))
    if kind == "uniform":
        return generate_adversarial("uniform", n=n, k=1).matrix
    if kind == "signed_zero":
        return MetricMatrix(np.full((n, n), -0.0))
    if kind == "float":
        # hypothesis favours round floats, whose sums are exact in any order
        return random_metric(n, 2, seed=draw(st.integers(0, 2**32 - 1)))
    site = st.tuples(st.integers(0, 3), st.integers(0, 3))
    if kind == "duplicates":
        sites = draw(st.lists(site, min_size=1, max_size=3))
        pts = [sites[i % len(sites)] for i in range(n)]
    else:
        pts = draw(st.lists(site, min_size=n, max_size=n))
    xy = np.asarray(pts, dtype=np.float64)
    d = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
    if kind == "inf":
        cut = draw(st.integers(0, n))
        d[:cut, cut:] = d[cut:, :cut] = math.inf
    return MetricMatrix(d)


class TestSingleWalkMatchesTwoPass:
    """`verify_stability` scores each subset once, sums those scores per
    partition and replays the walk; the oracle walks twice and scores every
    partition through the public objectives."""

    @staticmethod
    def check(m, target, k, params, objective):
        want = two_pass_verify_stability(m, target, k, params, objective)
        scored = []
        score = evaluation._OBJECTIVES[objective]

        def counted(clusters, d):
            scored.extend(tuple(members) for members in clusters)
            return score(clusters, d)

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(evaluation._OBJECTIVES, objective, counted)
            got = verify_stability(m, target, k, params, objective=objective)
        assert len(set(scored)) == len(scored) <= 2**m.n - 1
        # repr tells -0.0 from 0.0 and is exact for every other float
        assert got.holds == want.holds
        assert repr(got.optimum) == repr(want.optimum)
        if want.holds:
            assert got.counterexample is None
        else:
            assert got.counterexample.clusters == want.counterexample.clusters
            assert repr(got.counterexample_value) == repr(
                want.counterexample_value
            )
            assert got.counterexample_distance == want.counterexample_distance
        return got

    @given(
        small_metrics(),
        st.data(),
        st.sampled_from(["min_sum", "balanced_k_median"]),
        st.sampled_from([0.1, 0.5, 1.0, 4.0]),
        st.sampled_from([0.01, 0.2, 0.34, 0.5, 0.99]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_two_pass_oracle(self, m, data, objective, alpha, epsilon):
        n = m.n
        k = data.draw(st.integers(1, n))
        labels = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        )
        target = Clustering(n=n, clusters=[
            [p for p, lab in enumerate(labels) if lab == v]
            for v in sorted(set(labels))
        ])
        params = StabilityParams(alpha=alpha, epsilon=epsilon)
        self.check(m, target, k, params, objective)

    @pytest.mark.parametrize("objective", ["min_sum", "balanced_k_median"])
    def test_real_points_sum_blocks_in_label_order(self, objective):
        # four blocks over eight random real points: a sum in any other
        # order changes the last bit of most optima
        for seed in range(6):
            m = random_metric(8, 2, seed=seed)
            target = Clustering(n=8, clusters=[[0, 1, 2, 3], [4, 5, 6, 7]])
            params = StabilityParams(alpha=0.5, epsilon=0.2)
            self.check(m, target, 4, params, objective)

    def test_uniform_control(self):
        inst = generate_adversarial("uniform", n=9, k=2, seed=0)
        params = StabilityParams(alpha=1.0, epsilon=0.2)
        got = self.check(inst.matrix, inst.target, 2, params, "balanced_k_median")
        assert not got.holds

    def test_memory_beside_the_scores_is_bounded(self):
        # Bell(11) = 678,570 partitions: the walk keeps their 8-byte scores
        # and generates their labels chunk by chunk; a full (P, n) label
        # array alone would take P * n * 8 bytes = 60 MB
        n = 11
        m = random_metric(n, 2, seed=12)
        target = Clustering(n=n, clusters=[[p] for p in range(n)])
        params = StabilityParams(alpha=1.0, epsilon=0.2)
        # a first, small call keeps first-use allocations out of the traced
        # peak, which then counts only what one walk holds at once
        verify_stability(m, target, 2, params)
        tracemalloc.start()
        try:
            assert verify_stability(m, target, n, params).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * stirling_partition_count(n, n) + 16 * 2**20


class TestObjectiveSandwich:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_half_psi_le_phi_le_psi(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = random_metric(n, int(rng.integers(1, 4)), seed=seed % 2**16)
        c = random_partition(n, int(rng.integers(1, 5)), rng)
        phi = min_sum(c, m).value
        psi = balanced_k_median(c, m).value
        assert psi / 2.0 <= phi <= psi


def test_only_min_sum_is_superadditive_on_a_metric():
    """w(A | B) >= w(A) + w(B) for disjoint A, B, the lower bound a branch
    and bound over partitions would prune with, holds for min_sum on every
    non-negative matrix.  It fails for balanced_k_median even on a
    Euclidean metric: the origin and the six unit vectors of R^6."""
    m = euclidean_matrix(np.vstack([np.zeros(6), np.eye(6)]))
    assert check_metric(m).ok
    a, b = [0], list(range(1, 7))

    def w(objective, members):
        return objective([members], m.values).value

    bkm = evaluation._balanced_k_median_of
    assert w(bkm, a) + w(bkm, b) == pytest.approx(30 * math.sqrt(2))  # 42.43
    assert w(bkm, a + b) == pytest.approx(42.0)
    assert w(bkm, a + b) < w(bkm, a) + w(bkm, b)

    ms = evaluation._min_sum_of
    assert w(ms, a) + w(ms, b) == pytest.approx(15 * math.sqrt(2))  # 21.21
    assert w(ms, a + b) == pytest.approx(6 + 15 * math.sqrt(2))  # 27.21
    assert w(ms, a + b) >= w(ms, a) + w(ms, b)


class TestEmbedKMeansBaseline:
    def test_exact_query_count(self):
        m = random_metric(30, 2, seed=12)
        src = MatrixDistanceSource(m, QueryLedger())
        embed_kmeans_baseline(src, d_landmarks=5, k=3, seed=0)
        assert src.ledger.queries_issued == 5

    def test_recovers_two_far_cores(self):
        rng = np.random.default_rng(13)
        pts = np.vstack([
            rng.normal(0.0, 0.1, size=(20, 2)),
            rng.normal(50.0, 0.1, size=(20, 2)),
        ])
        m = euclidean_matrix(pts)
        src = MatrixDistanceSource(m)
        got = embed_kmeans_baseline(src, d_landmarks=4, k=2, seed=3)
        target = Clustering(n=40, clusters=[list(range(20)), list(range(20, 40))])
        assert clustering_distance(got, target) == 0.0

    def test_k1_everything_together(self):
        m = random_metric(10, 2, seed=14)
        got = embed_kmeans_baseline(MatrixDistanceSource(m), 3, k=1, seed=0)
        assert got.clusters == [list(range(10))]

    @pytest.mark.parametrize("max_iters", [0, -4])
    def test_max_iters_below_one_refused(self, max_iters):
        # with no Lloyd round no point gets a label, and _members would put
        # every point into the last cluster; refused before any query
        src = MatrixDistanceSource(random_metric(15, 2, seed=15))
        with pytest.raises(ParameterError, match=f"max_iters >= 1, got {max_iters}"):
            embed_kmeans_baseline(src, 3, k=3, seed=0, max_iters=max_iters)
        assert src.ledger.queries_issued == 0

    def test_one_round_labels_every_point(self):
        m = random_metric(15, 2, seed=15)
        got = embed_kmeans_baseline(MatrixDistanceSource(m), 3, k=3, seed=0, max_iters=1)
        assert got.is_partition()

    def test_infinite_coordinates_warned_and_assigned(self):
        vals = np.zeros((6, 6))
        pts = [0.0, 0.2, 0.4, 10.0, 10.2, 10.4]
        for i in range(6):
            for j in range(6):
                vals[i, j] = abs(pts[i] - pts[j])
        vals[0, 5] = vals[5, 0] = math.inf
        m = MetricMatrix(vals)
        got = embed_kmeans_baseline(MatrixDistanceSource(m), 6, k=2, seed=1)
        assert got.is_partition()
        assert any("infinite" in w for w in got.warnings)
