import json
import math
from pathlib import Path

import numpy as np
import pytest

from landmark_minsum import (
    Clustering,
    GenerationError,
    InstanceSpec,
    MatrixDistanceSource,
    ParameterError,
    build_landmark_table,
    check_metric,
    classify_points,
    cluster_min_sum,
    generate,
    generate_adversarial,
    ideal_threshold,
    load_bundle,
    plant_landmarks,
    sample_landmarks,
    save_bundle,
    StabilityParams,
    sweep,
    verify_stability,
)


class TestGenerate:
    def test_core_diameter_bounds(self):
        spec = InstanceSpec(sizes=(100, 50, 25), theta=10.0, seed=0)
        inst = generate(spec)
        expected = (0.1, 0.2, 0.4)
        for core, bound, size in zip(inst.core_members, expected, spec.sizes):
            sub = inst.matrix.values[np.ix_(core, core)]
            diam = float(sub.max())
            assert diam <= bound
            assert size * diam <= spec.theta

    def test_structure_verifies_for_declared_params(self):
        for seed in range(4):
            inst = generate(
                InstanceSpec(sizes=(40, 30, 20), theta=5.0,
                             bad_fraction=0.02, seed=seed)
            )
            report = classify_points(inst.matrix, inst.target, inst.stability)
            assert report.all_ok

    def test_metric_check_clean(self):
        inst = generate(InstanceSpec(sizes=(60, 40), theta=5.0,
                                     bad_fraction=0.05, seed=1))
        assert check_metric(inst.matrix, mode="exhaustive").ok

    def test_deterministic_under_seed(self):
        spec = InstanceSpec(sizes=(20, 15), theta=3.0, bad_fraction=0.1, seed=7)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.matrix.values, b.matrix.values)
        assert a.target.clusters == b.target.clusters

    def test_target_covers_bad_points_with_k_clusters(self):
        spec = InstanceSpec(sizes=(30, 20), theta=4.0, bad_fraction=0.2, seed=2)
        inst = generate(spec)
        assert inst.n == 50 + 10
        assert inst.target.k == 2
        assert inst.target.is_partition()

    def test_k1_single_ball_recovered(self):
        inst = generate(InstanceSpec(sizes=(15,), theta=2.0, seed=3))
        table = build_landmark_table(
            MatrixDistanceSource(inst.matrix), plant_landmarks(inst, 1, 0)
        )
        c = cluster_min_sum(table, 1, threshold=1e9)
        assert c.clusters == [list(range(15))]

    def test_bundle_round_trip(self, tmp_path):
        inst = generate(InstanceSpec(sizes=(12, 9), theta=2.0,
                                     bad_fraction=0.1, seed=4))
        save_bundle(inst, tmp_path / "bundle")
        again = load_bundle(tmp_path / "bundle")
        assert np.array_equal(inst.matrix.values, again.matrix.values)
        assert again.target.clusters == inst.target.clusters
        assert again.core_members == inst.core_members
        assert again.stability == inst.stability
        assert again.spec == inst.spec

    def test_one_dimensional_line_placement_works(self):
        inst = generate(InstanceSpec(sizes=(4,) * 9, theta=2.0,
                                     embed_dim=1, seed=5))
        report = classify_points(inst.matrix, inst.target, inst.stability)
        assert report.all_ok

    def test_infeasible_separation_suggests_higher_dimension(self):
        from landmark_minsum.generate import _place_centers, _required_center_gaps

        class CollidingRng:
            def uniform(self, lo, hi, size=None):
                return np.zeros(size)

        spec = InstanceSpec(sizes=(10, 10, 10), theta=2.0, embed_dim=2, seed=5)
        gaps = _required_center_gaps(spec, 12.0)
        with pytest.raises(GenerationError, match="embed_dim"):
            _place_centers(spec, gaps, CollidingRng())

    def test_low_dimension_can_still_work(self):
        inst = generate(InstanceSpec(sizes=(10, 10, 10), theta=2.0,
                                     embed_dim=2, seed=6))
        report = classify_points(inst.matrix, inst.target, inst.stability)
        assert report.all_ok

    def test_per_cluster_theta_override(self):
        spec = InstanceSpec(sizes=(20, 20), theta=4.0,
                            theta_per_cluster=(4.0, 8.0), seed=7)
        inst = generate(spec)
        diam1 = inst.matrix.values[np.ix_(inst.core_members[1],
                                          inst.core_members[1])].max()
        assert diam1 <= 8.0 / 20.0

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            InstanceSpec(sizes=(), theta=1.0)
        with pytest.raises(ParameterError):
            InstanceSpec(sizes=(5,), theta=0.0)
        with pytest.raises(ParameterError):
            InstanceSpec(sizes=(5,), theta=1.0, bad_fraction=1.0)
        with pytest.raises(ParameterError):
            InstanceSpec(sizes=(5,), theta=1.0, separation_factor=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ParameterError, match="theta"):
            InstanceSpec(sizes=(3, 3), theta=bad)
        with pytest.raises(ParameterError, match="separation_factor"):
            InstanceSpec(sizes=(3, 3), theta=1.0, separation_factor=bad)
        with pytest.raises(ParameterError, match="theta_per_cluster"):
            InstanceSpec(sizes=(3, 3), theta=1.0, theta_per_cluster=(1.0, bad))


class TestPlantLandmarks:
    def test_one_per_core(self):
        inst = generate(InstanceSpec(sizes=(10, 8, 6), theta=2.0, seed=8))
        picks = plant_landmarks(inst, per_core=1, seed=0)
        assert len(picks) == 3
        for pid, core in zip(picks, inst.core_members):
            assert pid in core

    def test_deterministic(self):
        inst = generate(InstanceSpec(sizes=(10, 8), theta=2.0, seed=9))
        assert plant_landmarks(inst, 2, seed=5) == plant_landmarks(inst, 2, seed=5)

    def test_core_too_small(self):
        inst = generate(InstanceSpec(sizes=(3, 8), theta=2.0, seed=10))
        with pytest.raises(ParameterError):
            plant_landmarks(inst, per_core=4, seed=0)


def test_readme_library_example_runs_as_written(capsys):
    # ideal_threshold and plant_landmarks are public for this example
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(code, scope)
    assert scope["source"].ledger.queries_issued == 3
    assert scope["run"].is_partition()
    distance, queries = capsys.readouterr().out.split()
    assert queries == "3" and 0.0 <= float(distance) <= 1.0


class TestAdversarial:
    def test_uniform_is_metric_but_unstable(self):
        inst = generate_adversarial("uniform", n=8, k=2, seed=0)
        assert check_metric(inst.matrix, mode="exhaustive").ok
        verdict = verify_stability(
            inst.matrix, inst.target, 2, StabilityParams(1.0, 0.2)
        )
        assert not verdict.holds

    def test_duplicate_points_terminate(self):
        inst = generate_adversarial("duplicate_points", n=12, k=3, seed=1)
        table = build_landmark_table(
            MatrixDistanceSource(inst.matrix), sample_landmarks(12, 5, 1)
        )
        c = cluster_min_sum(table, 3, threshold=5.0)
        c.validate()

    def test_outlier_cluster_sweep_is_controlled(self):
        inst = generate_adversarial("single_outlier_cluster", n=30, k=2, seed=2)
        table = build_landmark_table(
            MatrixDistanceSource(inst.matrix), sample_landmarks(30, 6, 2)
        )
        res = sweep(table, 2, stop_bound_b=3)
        res.clustering.validate()

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            generate_adversarial("nonsense", 5, 2, 0)


class TestLemma4Coverage:
    def test_planted_plus_extra_landmarks_keep_coverage(self):
        inst = generate(InstanceSpec(sizes=(20, 15, 10), theta=3.0, seed=11))
        planted = plant_landmarks(inst, 1, seed=1)
        extra = [p for p in sample_landmarks(inst.n, 10, seed=2)
                 if p not in planted]
        landmarks = planted + extra
        covered = [
            any(l in core for l in landmarks) for core in inst.core_members
        ]
        assert all(covered)

    def test_sampling_count_covers_often(self):
        # quick version of the sampling lemma check; the acceptance suite
        # runs the full 1000-trial binomial version
        inst = generate(InstanceSpec(sizes=(40, 30, 20), theta=4.0, seed=12))
        report = classify_points(inst.matrix, inst.target, inst.stability)
        s = min(len(x) for x in report.good_sets)
        delta = 0.2
        n_prime = math.ceil(inst.n / s * math.log(3 / delta))
        hits = 0
        trials = 200
        members = [set(x) for x in report.good_sets]
        for t in range(trials):
            picks = set(sample_landmarks(inst.n, min(n_prime, inst.n), seed=t))
            if all(picks & g for g in members):
                hits += 1
        assert hits / trials >= 1 - delta
