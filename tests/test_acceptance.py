"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(also summarized after the run by the conftest hook).

Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform
from scipy.stats import binomtest

import landmark_minsum as lm

from conftest import (
    bijection_distance_oracle,
    random_metric,
    random_partition,
    random_symmetric,
    record_criterion,
)
from oracles import conceptual_cluster_min_sum

# ---------------------------------------------------------------------------


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    record_criterion(name, passed)


def _sized_spec(rng, k, n_target, bad_fraction, theta=8.0, seed=0):
    w = rng.uniform(1.0, 2.5, size=k)
    sizes = np.maximum((n_target * w / w.sum()).astype(int), 10)
    return lm.InstanceSpec(
        sizes=tuple(int(s) for s in sizes), theta=theta,
        bad_fraction=bad_fraction, seed=seed,
    )


@pytest.mark.criterion("01 theorem-1 accuracy")
def test_criterion_01_theorem1_accuracy():
    """50 seeded planted instances, planted landmark per core, ideal T:
    dist(output, target) <= (b_observed + eps*n)/n on every run, < 5 s each."""
    failures = []
    for trial in range(50):
        seed = 9000 + trial
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 9))
        n_target = int(np.exp(rng.uniform(np.log(500), np.log(5000))))
        bad_fraction = [0.0, 0.005, 0.01, 0.02][trial % 4]
        if k >= 7:
            bad_fraction = min(bad_fraction, 0.01)
        spec = _sized_spec(rng, k, n_target, bad_fraction, seed=seed)
        inst = lm.generate(spec)
        st = inst.stability
        # precondition: injected fraction within the implied bad-point budget
        assert bad_fraction <= (2.0 + 120.0 / st.alpha) * st.epsilon
        report = lm.classify_points(inst.matrix, inst.target, st)
        structure_ok = report.all_ok
        t0 = time.time()
        table = lm.build_landmark_table(
            lm.MatrixDistanceSource(inst.matrix),
            lm.plant_landmarks(inst, per_core=1, seed=seed),
        )
        run = lm.cluster_min_sum(table, spec.k, lm.ideal_threshold(inst))
        run = lm.assign_remainder(run, table)
        elapsed = time.time() - t0
        dist = lm.clustering_distance(run, inst.target)
        bound = (report.b_observed + st.epsilon * inst.n) / inst.n
        if not (structure_ok and dist <= bound and elapsed < 5.0):
            failures.append((trial, inst.n, dist, bound, elapsed))
    ok = not failures
    _report("01 theorem-1 accuracy", ok, f"{50 - len(failures)}/50 within bound")
    assert ok, failures


@pytest.mark.criterion("02 discrete/continuous equivalence")
def test_criterion_02_equivalence():
    """Identical partitions from the pair-stream sweep and the continuous
    oracle on 100 random instances with n <= 60 and randomized T."""
    rng = np.random.default_rng(4242)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(3, 61))
        style = trial % 4
        if style == 0:
            m = random_metric(n, int(rng.integers(1, 4)), seed=trial)
        elif style == 1:
            m = random_symmetric(n, seed=trial)
        elif style == 2:
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            m = lm.MetricMatrix(squareform(pdist(pts)))
        else:  # tight blobs: large dead gaps in the distance stream
            half = n // 2
            pts = np.vstack([
                rng.normal(0.0, 0.05, size=(half, 2)),
                rng.normal(40.0, 0.05, size=(n - half, 2)),
            ])
            m = lm.MetricMatrix(squareform(pdist(pts)))
        landmarks = lm.sample_landmarks(
            n, int(rng.integers(1, min(n, 8) + 1)), seed=trial
        )
        k = int(rng.integers(1, min(n, 6) + 1))
        finite = m.values[np.isfinite(m.values) & (m.values > 0)]
        t_max = n * float(finite.max()) if finite.size else 10.0
        threshold = float(rng.uniform(1e-6, 1.2 * t_max))
        table = lm.build_landmark_table(lm.MatrixDistanceSource(m), landmarks)
        a = lm.cluster_min_sum(table, k, threshold)
        b = conceptual_cluster_min_sum(m, landmarks, k, threshold)
        if a.clusters != b.clusters or a.unassigned != b.unassigned:
            mismatches += 1
    ok = mismatches == 0
    _report("02 discrete/continuous equivalence", ok,
            f"{100 - mismatches}/100 identical")
    assert ok


@pytest.mark.criterion("03 matching-distance oracle")
def test_criterion_03_matching_distance_oracle():
    """Assignment-based distance equals the exhaustive-bijection minimum on
    200 random partition pairs with k <= 6; exact."""
    rng = np.random.default_rng(77)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 18))
        c1 = random_partition(n, int(rng.integers(1, 7)), rng)
        c2 = random_partition(n, int(rng.integers(1, 7)), rng)
        if lm.clustering_distance(c1, c2) != bijection_distance_oracle(c1, c2):
            bad += 1
    ok = bad == 0
    _report("03 matching-distance oracle", ok, f"{200 - bad}/200 exact")
    assert ok


@pytest.mark.criterion("04 objective sandwich")
def test_criterion_04_objective_sandwich():
    """psi/2 <= phi <= psi on 500 random clusterings of 500 triangle-clean
    metrics; zero violations."""
    rng = np.random.default_rng(55)
    violations = 0
    for trial in range(500):
        n = int(rng.integers(2, 15))
        m = random_metric(n, int(rng.integers(1, 5)), seed=trial, scale=20.0)
        c = random_partition(n, int(rng.integers(1, 6)), rng)
        phi = lm.min_sum(c, m).value
        psi = lm.balanced_k_median(c, m).value
        if not (psi / 2.0 <= phi <= psi):
            violations += 1
    ok = violations == 0
    _report("04 objective sandwich", ok, f"{500 - violations}/500 hold")
    assert ok


@pytest.mark.criterion("05 sampling-coverage guarantee")
def test_criterion_05_sampling_coverage():
    """With (n/s) ln(k/delta) uniform landmarks, all good sets are covered
    with frequency >= 1 - delta over 1000 trials (one-sided binomial, 95%)."""
    inst = lm.generate(
        lm.InstanceSpec(sizes=(120, 90, 70, 60), theta=6.0, seed=31)
    )
    report = lm.classify_points(inst.matrix, inst.target, inst.stability)
    assert report.all_ok
    good_sets = [set(x) for x in report.good_sets]
    s = min(len(x) for x in good_sets)
    k = len(good_sets)
    n = inst.n
    all_ok = True
    details = []
    for delta in (0.05, 0.2):
        n_prime = min(n, math.ceil((n / s) * math.log(k / delta)))
        hits = 0
        for trial in range(1000):
            picks = set(lm.sample_landmarks(n, n_prime, seed=trial))
            if all(picks & g for g in good_sets):
                hits += 1
        # cannot reject H0: coverage probability >= 1 - delta
        p = binomtest(hits, 1000, 1.0 - delta, alternative="less").pvalue
        details.append(f"delta={delta}: {hits}/1000 covered, p={p:.3f}")
        if p < 0.05:
            all_ok = False
    _report("05 sampling-coverage guarantee", all_ok, "; ".join(details))
    assert all_ok, details


@pytest.mark.criterion("06 query accounting")
def test_criterion_06_query_accounting():
    """A clustering run issues exactly n' one-versus-all queries; a full
    threshold sweep issues zero additional ones."""
    inst = lm.generate(
        lm.InstanceSpec(sizes=(60, 45, 35), theta=5.0, bad_fraction=0.01,
                        seed=17)
    )
    n_prime = 9
    src = lm.MatrixDistanceSource(inst.matrix, lm.QueryLedger())
    table = lm.build_landmark_table(
        src, lm.sample_landmarks(inst.n, n_prime, seed=3)
    )
    after_build = src.ledger.queries_issued
    run = lm.cluster_min_sum(table, 3, lm.ideal_threshold(inst))
    lm.assign_remainder(run, table)
    after_cluster = src.ledger.queries_issued
    lm.sweep(table, 3, lm.stop_bound_from(inst.stability, inst.n))
    after_sweep = src.ledger.queries_issued
    ok = after_build == n_prime == after_cluster == after_sweep
    _report("06 query accounting", ok,
            f"build={after_build}, cluster={after_cluster}, sweep={after_sweep}")
    assert ok


@pytest.mark.criterion("07 sweep correctness")
def test_criterion_07_sweep_correctness():
    """30 seeded structure-verified instances with the exact sweep: the
    sweep stops at T <= T* and the post-remainder clustering satisfies
    dist <= (2 b_observed + eps n)/n."""
    failures = []
    for trial in range(30):
        seed = 700 + trial
        bad_fraction = 0.01 if trial % 3 == 2 else 0.0
        sizes = [(50, 40, 30), (45, 40, 35, 30), (60, 45, 35)][trial % 3]
        inst = lm.generate(
            lm.InstanceSpec(sizes=sizes, theta=5.0,
                            bad_fraction=bad_fraction, seed=seed)
        )
        st = inst.stability
        report = lm.classify_points(inst.matrix, inst.target, st)
        if not report.all_ok:
            failures.append((trial, "structure"))
            continue
        table = lm.build_landmark_table(
            lm.MatrixDistanceSource(inst.matrix),
            lm.plant_landmarks(inst, per_core=1, seed=seed),
        )
        result = lm.sweep(table, len(sizes), lm.stop_bound_from(st, inst.n))
        t_star = lm.ideal_threshold(inst)
        dist = lm.clustering_distance(result.clustering, inst.target)
        bound = (2 * report.b_observed + st.epsilon * inst.n) / inst.n
        if not (result.chosen_threshold <= t_star and dist <= bound):
            failures.append((trial, dist, bound))
    ok = not failures
    _report("07 sweep correctness", ok, f"{30 - len(failures)}/30 within bound")
    assert ok, failures


@pytest.mark.criterion("08 stability spot-check")
def test_criterion_08_stability_spot_check():
    """Exhaustive stability verification holds on >= 90% of tiny generated
    instances; the uniform adversarial metric fails it."""
    passes = 0
    total = 15
    for trial in range(total):
        sizes = [(5, 4), (5, 5), (4, 3, 3), (4, 4, 2), (3, 3, 3)][trial % 5]
        inst = lm.generate(
            lm.InstanceSpec(sizes=sizes, theta=1.5, seed=1100 + trial)
        )
        verdict = lm.verify_stability(
            inst.matrix, inst.target, k=len(sizes), params=inst.stability
        )
        if verdict.holds:
            passes += 1
    uniform = lm.generate_adversarial("uniform", n=9, k=2, seed=0)
    uniform_fails = not lm.verify_stability(
        uniform.matrix, uniform.target, 2,
        lm.StabilityParams(alpha=1.0, epsilon=0.2),
    ).holds
    ok = passes / total >= 0.9 and uniform_fails
    _report("08 stability spot-check", ok,
            f"{passes}/{total} tiny instances stable; uniform fails: "
            f"{uniform_fails}")
    assert ok


@pytest.mark.criterion("09 runtime scaling")
def test_criterion_09_runtime_scaling():
    """Fixed n' = 32: doubling n from 50k to 100k grows the sweep wall time
    by <= 2.5x (three-run median per size; smoke benchmark).  Both tables are
    built first and the timed runs alternate 50k, 100k, 50k, ..., so a change
    in the host's speed during the test falls on both sizes alike."""
    tables = {}
    for n in (50_000, 100_000):
        rng = np.random.default_rng(n)
        src = lm.PointCloudDistanceSource(rng.uniform(0, 100, size=(n, 4)))
        tables[n] = lm.build_landmark_table(src, lm.sample_landmarks(n, 32, seed=1))
    times = {n: [] for n in tables}
    for _ in range(3):
        for n, table in tables.items():
            t0 = time.perf_counter()
            run = lm.cluster_min_sum(table, 8, 1e30)
            times[n].append(time.perf_counter() - t0)
            assert run.points_clustered() == n

    t_small = sorted(times[50_000])[1]
    t_large = sorted(times[100_000])[1]
    ratio = t_large / t_small
    ok = ratio <= 2.5
    _report("09 runtime scaling", ok,
            f"50k: {t_small:.2f}s, 100k: {t_large:.2f}s, ratio {ratio:.2f}")
    assert ok, ratio


@pytest.mark.criterion("10 similarity ingestion end-to-end")
def test_criterion_10_ingestion_end_to_end():
    """The bundled bit-score TSV ingests into a matrix that is metric up to
    a <= 1% sampled violation rate and clusters end-to-end."""
    with resources.as_file(
        resources.files("landmark_minsum").joinpath("data/toy_scores.tsv")
    ) as path:
        pairs, labels = lm.read_pair_file(path)
    matrix = lm.ingest_similarity(pairs)
    report = lm.check_metric(matrix, mode="sampled", sample_triples=5000,
                             seed=11)
    frac = report.fraction_violating
    table = lm.build_landmark_table(
        lm.MatrixDistanceSource(matrix),
        lm.sample_landmarks(matrix.n, 6, seed=3),
    )
    result = lm.sweep(table, 3, stop_bound_b=2)
    result.clustering.validate()
    groups = lm.Clustering(
        n=27,
        clusters=[list(range(10)), list(range(10, 18)), list(range(18, 27))],
    )
    dist = lm.clustering_distance(result.clustering, groups)
    ok = frac <= 0.01 and result.clustering.is_partition()
    _report("10 similarity ingestion end-to-end", ok,
            f"violating fraction {frac:.4f}, dist to true groups {dist:.3f}")
    assert ok
