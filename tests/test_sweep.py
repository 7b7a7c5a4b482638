import importlib
import json
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmark_minsum import (
    DataError,
    InstanceSpec,
    MatrixDistanceSource,
    MetricMatrix,
    ParameterError,
    StabilityParams,
    build_landmark_table,
    cluster_min_sum,
    generate,
    ideal_threshold,
    ingest_similarity,
    plant_landmarks,
    read_pair_file,
    sample_landmarks,
    stop_bound_from,
    sweep,
)
from landmark_minsum.landmark import _as_clustering, _stream_min_sum

from conftest import criterion_07_case, euclidean_matrix, random_metric
from oracles import candidate_sweep, enumerate_thresholds


landmark_module = importlib.import_module("landmark_minsum.landmark")


def table_for(m, landmarks):
    return build_landmark_table(MatrixDistanceSource(m), landmarks)


def small_verified_instance(seed=0, bad_fraction=0.0):
    spec = InstanceSpec(sizes=(40, 30, 25), theta=5.0,
                        bad_fraction=bad_fraction, seed=seed)
    return generate(spec)


def assert_matches_oracle(table, k, b):
    """The jump walk stops where the candidate-by-candidate walk stops, with
    the same clustering, and runs only thresholds the oracle runs.  A tiny
    first chunk, which puts chunk edges inside the runs, gives the same
    result byte for byte."""
    try:
        ref = candidate_sweep(table, k, b)
    except DataError:
        with pytest.raises(DataError):
            sweep(table, k, b)
        return
    res = sweep(table, k, b)
    with mock.patch.object(landmark_module, "_FIRST_CHUNK", 3):
        tiny = sweep(table, k, b)
    assert json.dumps(tiny.to_dict()) == json.dumps(res.to_dict())
    assert res.chosen_threshold == ref.chosen_threshold
    assert res.clustering.clusters == ref.clustering.clusters
    assert res.clustering.unassigned == ref.clustering.unassigned
    assert res.clustering.to_dict() == ref.clustering.to_dict()
    assert res.points_clustered_at_stop == ref.points_clustered_at_stop
    assert res.warnings == ref.warnings
    tried = [t for t, _ in res.coverage_per_candidate]
    assert all(lo < hi for lo, hi in zip(tried, tried[1:]))
    ref_coverage = dict(ref.coverage_per_candidate)
    for t, cov in res.coverage_per_candidate:
        assert ref_coverage[t] == cov  # an oracle threshold, same coverage
    ref_runs = ref.coverage_per_candidate
    coverage_changes = {
        t for i, (t, cov) in enumerate(ref_runs)
        if i == 0 or cov != ref_runs[i - 1][1]
    }
    assert coverage_changes <= set(tried)


class TestEnumerate:
    def test_two_points_one_landmark(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = table_for(MetricMatrix(vals), [0])
        cands = enumerate_thresholds(t, n=2)
        assert cands.tolist() == [1.0, 2.0]  # zero products dropped

    def test_product_set(self):
        vals = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        t = table_for(MetricMatrix(vals), [0])
        cands = enumerate_thresholds(t, n=3)
        assert cands.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0]

    def test_no_finite_distances(self):
        vals = np.zeros((3, 3))
        vals[0, 1] = vals[1, 0] = np.inf
        vals[0, 2] = vals[2, 0] = np.inf
        vals[1, 2] = vals[2, 1] = np.inf
        t = table_for(MetricMatrix(vals), [0])
        with pytest.raises(DataError):
            enumerate_thresholds(t, n=3)
        with pytest.raises(DataError):
            sweep(t, 1, stop_bound_b=0)


class TestStopBound:
    def test_reference_values(self):
        assert stop_bound_from(StabilityParams(1.0, 0.001), n=10_000) == 1220
        assert stop_bound_from(StabilityParams(120.0, 0.01), n=1_000) == 30

    def test_inconsistent_params_rejected(self):
        with pytest.raises(ParameterError):
            stop_bound_from(StabilityParams(1.0, 0.5), n=100)

    def test_zero_bound_demands_everything(self):
        # the epsilon -> 0 limit: an explicit b=0 makes the sweep stop only
        # on full coverage
        inst = small_verified_instance(seed=1)
        t = table_for(inst.matrix, plant_landmarks(inst, 1, seed=1))
        res = sweep(t, 3, stop_bound_b=0)
        assert res.points_clustered_at_stop == inst.n


class TestSweep:
    def test_stops_at_or_before_ideal_threshold(self):
        inst = small_verified_instance(seed=2)
        t = table_for(inst.matrix, plant_landmarks(inst, 1, seed=2))
        b = stop_bound_from(inst.stability, inst.n)
        res = sweep(t, 3, b)
        assert res.chosen_threshold <= ideal_threshold(inst)
        assert res.points_clustered_at_stop >= inst.n - b
        assert res.clustering.is_partition()

    def test_no_queries_after_table_build(self):
        inst = small_verified_instance(seed=3)
        src = MatrixDistanceSource(inst.matrix)
        t = build_landmark_table(src, plant_landmarks(inst, 1, seed=3))
        issued = src.ledger.queries_issued
        sweep(t, 3, stop_bound_from(inst.stability, inst.n))
        assert src.ledger.queries_issued == issued

    def test_monotone_stop_never_examines_larger(self):
        inst = small_verified_instance(seed=4)
        planted = table_for(inst.matrix, plant_landmarks(inst, 1, seed=4))
        # repeated points give 0.0 and -0.0 pairs before the first positive
        # distance; points 9-11 sit at +inf from the rest
        pts = np.array([0, 0, 0, 1, 3, 4, 4, 8, 9, 20, 20, 21], dtype=float)
        vals = np.abs(pts[:, None] - pts[None, :])
        vals[vals == 0] = -0.0
        np.fill_diagonal(vals, 0.0)
        far = np.arange(12) >= 9
        vals[far[:, None] != far[None, :]] = np.inf
        zeros_and_inf = table_for(MetricMatrix(vals), [0, 3, 5, 9])
        for t, b in ((planted, stop_bound_from(inst.stability, inst.n)),
                     (zeros_and_inf, 2)):
            cands = enumerate_thresholds(t, t.n)
            res = sweep(t, 3, b)
            tried = [tv for tv, _ in res.coverage_per_candidate]
            assert res.runs_executed == len(tried) <= len(cands)
            assert tried[0] == cands[0]
            assert all(lo < hi for lo, hi in zip(tried, tried[1:]))
            assert set(tried) <= set(cands.tolist())
            assert all(cov < t.n - b for _, cov in res.coverage_per_candidate[:-1])
            assert res.coverage_per_candidate[-1][1] >= t.n - b
            assert res.chosen_threshold == tried[-1]
            assert res.chosen_threshold == candidate_sweep(t, 3, b).chosen_threshold

    def test_degenerate_bound_first_candidate_wins(self):
        m = random_metric(20, 2, seed=5)
        t = table_for(m, sample_landmarks(20, 4, seed=5))
        res = sweep(t, 3, stop_bound_b=19)
        assert res.runs_executed == 1
        assert res.points_clustered_at_stop >= 1

    def test_bound_out_of_range_rejected(self):
        m = random_metric(20, 2, seed=6)
        t = table_for(m, sample_landmarks(20, 4, seed=6))
        for b in (-1, 20):
            with pytest.raises(ParameterError):
                sweep(t, 3, stop_bound_b=b)

    def test_candidate_sufficiency_between_consecutive_values(self):
        m = random_metric(25, 2, seed=7)
        t = table_for(m, sample_landmarks(25, 5, seed=7))
        cands = enumerate_thresholds(t, n=25)
        rng = np.random.default_rng(7)
        for _ in range(12):
            idx = int(rng.integers(0, len(cands) - 1))
            lo, hi = cands[idx], cands[idx + 1]
            between = float(rng.uniform(lo, hi))
            if between >= hi:
                continue
            a = cluster_min_sum(t, 3, float(lo))
            b = cluster_min_sum(t, 3, between)
            assert a.clusters == b.clusters
            assert a.unassigned == b.unassigned

    def test_fired_product_bounds_identical_runs(self):
        # every candidate in [T, fired) reruns T's clustering; fired is the
        # next candidate at which the run may change
        m = random_metric(18, 2, seed=10)
        t = table_for(m, sample_landmarks(18, 5, seed=10))
        cands = enumerate_thresholds(t).tolist()
        for lo in cands[::7]:
            clusters, fired = _stream_min_sum(t, 3, lo, t.chunks())
            run = _as_clustering(t, 3, clusters)
            assert fired > lo
            assert fired == np.inf or fired in cands
            assert cluster_min_sum(t, 3, lo).to_dict() == run.to_dict()
            for mid in cands:
                if lo < mid < fired:
                    assert cluster_min_sum(t, 3, mid).to_dict() == run.to_dict()

    def test_result_dict_shape(self):
        inst = small_verified_instance(seed=8)
        t = table_for(inst.matrix, plant_landmarks(inst, 1, seed=8))
        res = sweep(t, 3, stop_bound_from(inst.stability, inst.n))
        d = res.to_dict()
        assert set(d) >= {"chosen_T", "candidates_tried",
                          "coverage_per_candidate", "warnings", "clustering"}
        assert len(d["candidates_tried"]) == res.runs_executed


class TestMatchesCandidateWalk:
    """Differential gate: the jump walk against `oracles.candidate_sweep`."""

    def test_criterion_06_input(self):
        inst = generate(InstanceSpec(sizes=(60, 45, 35), theta=5.0,
                                     bad_fraction=0.01, seed=17))
        t = table_for(inst.matrix, sample_landmarks(inst.n, 9, seed=3))
        assert_matches_oracle(t, 3, stop_bound_from(inst.stability, inst.n))

    @pytest.mark.parametrize("trial", range(30))
    def test_criterion_07_inputs(self, trial):
        assert_matches_oracle(*criterion_07_case(trial))

    def test_criterion_10_input(self):
        with resources.as_file(
            resources.files("landmark_minsum").joinpath("data/toy_scores.tsv")
        ) as path:
            pairs, _ = read_pair_file(path)
        matrix = ingest_similarity(pairs)
        t = table_for(matrix, sample_landmarks(matrix.n, 6, seed=3))
        assert_matches_oracle(t, 3, 2)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_small_adversarial_metrics(self, data):
        # integer grid points: tied distances; repeated points: zero
        # distances; a second component: +inf distances
        n = data.draw(st.integers(1, 25), label="n")
        coords = data.draw(st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=n, max_size=n,
        ), label="coords")
        component = np.array(data.draw(st.lists(
            st.integers(0, 1), min_size=n, max_size=n,
        ), label="component"))
        vals = euclidean_matrix(coords).values.copy()
        vals[component[:, None] != component[None, :]] = np.inf
        n_prime = data.draw(st.integers(1, n), label="n_prime")
        landmarks = data.draw(st.permutations(range(n)), label="order")[:n_prime]
        k = data.draw(st.integers(1, n), label="k")
        b = data.draw(st.integers(0, n - 1), label="b")
        assert_matches_oracle(table_for(MetricMatrix(vals), landmarks), k, b)
