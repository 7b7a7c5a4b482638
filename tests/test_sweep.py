import importlib
import json
import math
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
    assign_remainder,
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
from landmark_minsum.landmark import _as_clustering, _Chunk, _stream_min_sum

from conftest import (
    assert_pieces_match_sorted,
    assert_saves_match_sorted,
    criterion_07_case,
    euclidean_matrix,
    random_metric,
    rebuilt,
)
from oracles import (
    candidate_sweep,
    enumerate_thresholds,
    loop_stream_min_sum,
    replay_sweep,
)


landmark_module = importlib.import_module("landmark_minsum.landmark")
# the package's `sweep` attribute is the function, not the module
sweep_module = importlib.import_module("landmark_minsum.sweep")


def table_for(m, landmarks):
    return build_landmark_table(MatrixDistanceSource(m), landmarks)


def small_verified_instance(seed=0, bad_fraction=0.0):
    spec = InstanceSpec(sizes=(40, 30, 25), theta=5.0,
                        bad_fraction=bad_fraction, seed=seed)
    return generate(spec)


def assert_matches_oracle(table, k, b):
    """The resuming walk gives the replaying walk's result byte for byte,
    also with a tiny first chunk, which puts chunk edges inside the runs
    and so resume points on them.  There a single run at the chosen
    threshold, which takes quiet chunks unsorted, gives the winner.  The
    walk stops where the candidate-by-candidate walk stops, with the same
    clustering, and runs only thresholds that walk runs."""
    try:
        ref = candidate_sweep(table, k, b)
    except DataError:
        with pytest.raises(DataError):
            sweep(table, k, b)
        return
    replayed = json.dumps(replay_sweep(table, k, b).to_dict())
    res = sweep(table, k, b)
    assert json.dumps(res.to_dict()) == replayed
    with mock.patch.object(landmark_module, "_FIRST_CHUNK", 3):
        tiny = sweep(table, k, b)
        run = cluster_min_sum(table, k, tiny.chosen_threshold)
    assert json.dumps(tiny.to_dict()) == replayed
    assert run.points_clustered() == tiny.points_clustered_at_stop
    assert assign_remainder(run, table).to_dict() == tiny.clustering.to_dict()
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


@st.composite
def adversarial_cases(draw):
    """(table, k, b) on integer grid points: tied distances; repeated
    points: zero distances; a second component: +inf distances."""
    n = draw(st.integers(1, 25), label="n")
    coords = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=n, max_size=n,
    ), label="coords")
    component = np.array(draw(st.lists(
        st.integers(0, 1), min_size=n, max_size=n,
    ), label="component"))
    vals = euclidean_matrix(coords).values.copy()
    vals[component[:, None] != component[None, :]] = np.inf
    n_prime = draw(st.integers(1, n), label="n_prime")
    landmarks = draw(st.permutations(range(n)), label="order")[:n_prime]
    k = draw(st.integers(1, n), label="k")
    b = draw(st.integers(0, n - 1), label="b")
    return table_for(MetricMatrix(vals), landmarks), k, b


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

    @given(adversarial_cases())
    @settings(max_examples=150, deadline=None)
    def test_small_adversarial_metrics(self, case):
        assert_matches_oracle(*case)

    @given(adversarial_cases(), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_bulk_stretches_match_the_replay(self, case, first):
        # first chunks of 1-8 pairs put chunk edges between ties, in dead
        # gaps and at resume points; the replay runs at the default size
        table, k, b = case
        try:
            replayed = json.dumps(replay_sweep(table, k, b).to_dict())
        except DataError:
            return  # no positive finite distance: nothing to sweep
        with mock.patch.object(landmark_module, "_FIRST_CHUNK", first):
            assert json.dumps(sweep(table, k, b).to_dict()) == replayed


def tied_minimum_case():
    """A run with two extractions at its smallest product.  On these
    integer-grid points the run at T = 1 extracts a ball of 2 at distance
    sqrt(2), then a ball of 1 at distance sqrt(8): both at product
    2 * sqrt(2).  The run at that threshold must resume before the first
    of the two."""
    coords = [(0, 0), (2, 2), (3, 1), (2, 1)]
    return table_for(euclidean_matrix(coords), [2, 0]), 2, 0


def test_tied_minimum_resumes_before_the_first_extraction():
    table, k, b = tied_minimum_case()
    assert_matches_oracle(table, k, b)
    res = sweep(table, k, b)
    assert res.chosen_threshold == 2 * math.sqrt(2)
    assert res.clustering.clusters == [[1, 2, 3], [0]]


# mutants of the resume point, as (old, new) edits of the kernel's source
_FRESH_SAVE = ("                        if product < fired:\n"
               "                            if saves is not None:")
RESUME_MUTANTS = {
    "one-test-late": [(
        "len(c[0]) - length_hint(cols[0]) - 1,",
        "len(c[0]) - length_hint(cols[0]),",
    )],
    # the state saved once the record-low extraction is done, k-th included
    "after-the-extraction": [
        (_FRESH_SAVE, "                        before = fired\n" + _FRESH_SAVE.replace(
            "if saves is not None:", "if False:")),
        ("                        if len(clusters) == k:\n"
         "                            return clusters, fired  # nothing more can be extracted\n",
         ""),
        ("                        last = None\n                        continue\n",
         "                        last = None\n"
         "                        if product < before and saves is not None:\n"
         "                            saves.append(_RunState(\n"
         "                                ci, len(c[0]) - length_hint(cols[0]) - 1,\n"
         "                                set(clustered), list(map(set.copy, balls)),\n"
         "                                sizes[:], clusters[:], before, last))\n"
         "                        if len(clusters) == k:\n"
         "                            return clusters, fired\n"
         "                        continue\n"),
    ],
    # every extraction at the smallest product so far saves, so the last
    # one is resumed from
    "last-at-the-smallest-product": [("if product < fired:", "if product <= fired:")],
}


def mutant_kernel(edits):
    """`_stream_min_sum` rebuilt from its source with `edits` applied."""
    return rebuilt(landmark_module._stream_min_sum, edits)


class TestResumeMutants:
    """Each mutant of the resume point makes the gate fail on a committed
    case; the unedited rebuild passes it."""

    def test_rebuilt_kernel_passes(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_stream_min_sum", mutant_kernel([]))
        assert_matches_oracle(*criterion_07_case(0))
        assert_matches_oracle(*tied_minimum_case())

    @pytest.mark.parametrize("name, case", [
        ("one-test-late", lambda: criterion_07_case(0)),
        ("after-the-extraction", lambda: criterion_07_case(0)),
        ("last-at-the-smallest-product", tied_minimum_case),
    ], ids=["one-test-late", "after-the-extraction", "last-at-the-smallest-product"])
    def test_mutant_fails_the_gate(self, name, case, monkeypatch):
        monkeypatch.setattr(sweep_module, "_stream_min_sum",
                            mutant_kernel(RESUME_MUTANTS[name]))
        with pytest.raises(AssertionError):
            assert_matches_oracle(*case())


def quiet_chunk_case():
    """A chunk that must be sorted after one that goes in unsorted.  Point
    0 is the one landmark and points 1, 2 and 3 lie at distances 1, 2 and
    10 from it.  With a first chunk of 2 pairs the run at T = 3.5 inserts
    the pairs at 0 and 1 unsorted (2 * 1 <= 3.5), then fires at the first
    pair of the next chunk (2 * 2 > 3.5), with `last` = 1.  With one chunk
    the bound fails (4 * 10 > 3.5), though the test at the current largest
    ball (0 * 10) and the bound at the smallest distance (4 * 0) pass."""
    return table_for(euclidean_matrix([0, 1, 2, 10]), [0]), 1, 3.5


def assert_chunks_match(kernel, table, k, t):
    """Gate for the quiet chunks a single run takes unsorted: with first
    chunks of 1-8 pairs and the default, `kernel` over `table.chunks()`
    gives `oracles.loop_stream_min_sum`'s clusters and fired product, and
    saves the states of the run that sorts every chunk."""
    ref, ref_fired = loop_stream_min_sum(table, k, t)
    for first in (*range(1, 9), landmark_module._FIRST_CHUNK):
        with mock.patch.object(landmark_module, "_FIRST_CHUNK", first):
            clusters, fired = kernel(table, k, t, table.chunks())
            assert _as_clustering(table, k, clusters).to_dict() == ref.to_dict()
            assert fired == ref_fired
            assert_saves_match_sorted(kernel, table, k, t)


# mutants of the chunk-level bound, as (old, new) edits of the kernel's source
CHUNK_MUTANTS = {
    "smallest-live-distance": [("top = live_dist.max()", "top = live_dist.min()")],
    # the bound at the current largest ball, not at the sizes the chunk
    # grows the balls to
    "current-max-size": [("if (counts + sizes).max() * top <= T:",
                          "if max_size * top <= T:")],
    # `last` left as before the chunk: no later test changes, since chunks
    # are tie-complete, but the states saved from then on differ
    "stale-last": [("                        last = top\n", "")],
}


class TestChunkMutants:
    """Each mutant of the chunk-level bound makes the gate fail on a
    committed case; the unedited rebuild passes it."""

    def test_rebuilt_kernel_passes(self):
        assert_chunks_match(mutant_kernel([]), *quiet_chunk_case())

    @pytest.mark.parametrize("name", CHUNK_MUTANTS)
    def test_mutant_fails_the_gate(self, name):
        kernel = mutant_kernel(CHUNK_MUTANTS[name])
        with pytest.raises(AssertionError):
            assert_chunks_match(kernel, *quiet_chunk_case())


def tie_case():
    """A tie that a split must keep whole.  Point 0 is the one landmark and
    points 1 and 2 sit together at distance 2 from it.  With leaves of one
    pair, the run at T = 3 splits the pair at distance 0 off its chunk; the
    two pairs at distance 2 hold one distance, so it sorts them as one
    piece."""
    return table_for(euclidean_matrix([(0, 0), (2, 0), (2, 0)]), [0]), 1, 3.0


# mutants of the split a single run makes, as (old, new) edits of the
# kernel's source and of `_Chunk.split`'s
BULK_MUTANTS = {
    # the run reads the upper half of a split first
    "upper-half-first": ([("pieces += reversed(halves)", "pieces += halves")], []),
    # halves cut by position after a partition, so a tie at the cut may
    # straddle them
    "tie-cut": ([], [(
        "    low = dist <= v\n",
        "    low = np.zeros(dist.size, bool)\n"
        "    low[np.argpartition(dist, dist.size // 2)[:dist.size // 2]] = True\n",
    )]),
}
SPLIT = _Chunk.split  # the source the split mutants edit
BULK_MUTANT_CASES = {
    "upper-half-first": quiet_chunk_case,
    "tie-cut": tie_case,
}


class TestBulkMutants:
    """Each mutant of the split makes the gate fail on a committed case once
    a leaf is one pair: the pieces of each chunk against the full sort, and
    `assert_chunks_match`.  The unedited rebuild passes it."""

    @staticmethod
    def use(edits, split_edits, monkeypatch):
        """The kernel with `edits`, over a `_Chunk.split` with `split_edits`
        and leaves of one pair."""
        monkeypatch.setattr(_Chunk, "split", rebuilt(SPLIT, split_edits))
        monkeypatch.setattr(landmark_module, "_LEAF", 1)
        return mutant_kernel(edits)  # its globals copy the module's _LEAF

    @staticmethod
    def assert_gate(kernel, table, k, t):
        assert_pieces_match_sorted(table)
        assert_chunks_match(kernel, table, k, t)

    def test_rebuilt_kernel_passes(self, monkeypatch):
        kernel = self.use([], [], monkeypatch)
        for case in BULK_MUTANT_CASES.values():
            self.assert_gate(kernel, *case())

    @pytest.mark.parametrize("name", BULK_MUTANTS)
    def test_mutant_fails_the_gate(self, name, monkeypatch):
        kernel = self.use(*BULK_MUTANTS[name], monkeypatch)
        with pytest.raises(AssertionError):
            self.assert_gate(kernel, *BULK_MUTANT_CASES[name]())
