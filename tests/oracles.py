"""Reference implementations that the fast paths are checked against.

`enumerate_thresholds` lists every achievable ball-size x distance product
and `candidate_sweep` reruns the clustering once per product in ascending
order, the threshold walk `landmark_minsum.sweep` shortcuts by jumping
between fired products.  `conceptual_cluster_min_sum` restates the pair
stream sweep of `cluster_min_sum` over continuous radii, and
`loop_stream_min_sum` is the cursor-and-peek loop the single-pass kernel
replaced.  `sampled_check_metric` is the per-triple loop the sampled
triangle audit vectorises.  `emit_pairs` inverts `ingest_similarity`.
`brute_force_optimum` and `two_pass_verify_stability` score every partition
through the public objectives; the second walks the partitions twice, once
for the optimum and once for the first counterexample, where
`verify_stability` scores each partition once and replays the walk.
"""

from __future__ import annotations

from math import inf as INF

import numpy as np

from landmark_minsum import (
    Clustering,
    DataError,
    LandmarkTable,
    MetricMatrix,
    MetricReport,
    ObjectiveValue,
    ParameterError,
    StabilityParams,
    StabilityVerdict,
    SweepResult,
    assign_remainder,
    balanced_k_median,
    cluster_min_sum,
    clustering_distance,
    min_sum,
)
from landmark_minsum.evaluation import DEFAULT_BRUTE_CAP, partitions_upto_k
from landmark_minsum.landmark import _validate_run
from landmark_minsum.metric import _TRIANGLE_REL_TOL

OBJECTIVES = {"min_sum": min_sum, "balanced_k_median": balanced_k_median}


def enumerate_thresholds(table: LandmarkTable, n: int | None = None) -> np.ndarray:
    """Every product of a ball size (1..n) and a positive finite
    landmark-point distance, ascending and without duplicates."""
    if n is None:
        n = table.n
    dists = table.pair_dist
    dists = np.unique(dists[(dists > 0) & np.isfinite(dists)])
    if dists.size == 0:
        raise DataError("no positive finite landmark-point distances")
    return np.unique(np.outer(np.arange(1, n + 1, dtype=np.float64), dists))


def candidate_sweep(table: LandmarkTable, k: int, stop_bound_b: int) -> SweepResult:
    """Run the clustering once per ascending candidate until n - b points
    are clustered, then complete the winner with assign_remainder."""
    n = table.n
    candidates = enumerate_thresholds(table, n)
    if not 0 <= stop_bound_b < n:
        raise ParameterError(f"need 0 <= b < n, got b={stop_bound_b}, n={n}")
    needed = n - stop_bound_b
    coverage: list[tuple[float, int]] = []
    for t in candidates.tolist():
        run = cluster_min_sum(table, k, t)
        cov = run.points_clustered()
        coverage.append((t, cov))
        if cov >= needed:
            return SweepResult(
                chosen_threshold=t,
                clustering=assign_remainder(run, table),
                runs_executed=len(coverage),
                points_clustered_at_stop=cov,
                coverage_per_candidate=coverage,
                warnings=list(run.warnings),
            )
    # the largest candidate, n * max d, fires nothing, so its run clusters
    # every point
    raise AssertionError(f"no candidate clustered >= {needed} of {n} points")


def conceptual_cluster_min_sum(
    matrix: MetricMatrix,
    landmark_ids,
    k: int,
    threshold: float,
) -> Clustering:
    """Continuous-radius restatement of the sweep, as a test oracle.

    Balls B_l(r) = {active s : d(l,s) <= r} are recomputed from the matrix
    at every radius event (an active landmark-point distance).  A ball fires
    when size * r >= T somewhere before the next event radius; the extracted
    cluster merges every active ball overlapping the firing one.  Running
    out of finite event radii reports the remaining points as one cluster.
    """
    n = matrix.n
    _validate_run(n, k, threshold)
    ids = [int(x) for x in landmark_ids]
    if not ids:
        raise ParameterError("need at least one landmark")
    if len(set(ids)) != len(ids):
        raise ParameterError("landmark ids must be distinct")
    T = float(threshold)
    rows = matrix.values[np.asarray(ids)]
    n_prime = len(ids)
    pos_by_point = {pid: j for j, pid in enumerate(ids)}

    active = np.ones(n, dtype=bool)
    alive = np.ones(n_prime, dtype=bool)

    clusters: list[list[int]] = []
    cluster_landmarks: list[list[int]] = []
    warnings: list[str] = []

    def active_distances():
        sub = rows[alive][:, active]
        return sub[np.isfinite(sub)]

    def ball_sizes_at(r: float) -> np.ndarray:
        within = (rows <= r) & active[None, :]
        sizes = within.sum(axis=1)
        sizes[~alive] = 0
        return sizes

    def extract_at(r: float) -> None:
        nonlocal active, alive
        within = (rows <= r) & active[None, :]
        within[~alive] = False
        sizes = within.sum(axis=1)
        best = int(np.argmax(sizes))  # first maximum = lowest position
        overlap = (within & within[best]).any(axis=1)
        members = np.nonzero(within[overlap].any(axis=0))[0]
        clusters.append([int(x) for x in members])
        lmarks = []
        for p in members:
            active[p] = False
            pos = pos_by_point.get(int(p))
            if pos is not None:
                alive[pos] = False
                lmarks.append(int(p))
        cluster_landmarks.append(lmarks)

    def emit_remaining() -> None:
        rest = np.nonzero(active)[0]
        clusters.append([int(x) for x in rest])
        cluster_landmarks.append(
            sorted(pid for pid in ids if active[pid])
        )
        active[rest] = False

    i = 1
    last = -np.inf
    while i <= k:
        dists = active_distances()
        beyond = dists[dists > last]
        if beyond.size == 0:
            emit_remaining()
            break
        r = float(beyond.min())
        later = beyond[beyond > r]
        if later.size == 0:
            emit_remaining()
            break
        while i <= k:
            # refresh the next event radius: extractions can retire every
            # pair at the previously peeked distance
            dists = active_distances()
            later = dists[dists > r]
            if later.size == 0:
                break  # next outer pass reports the remaining points
            r_next = float(later.min())
            sizes = ball_sizes_at(r)
            max_size = int(sizes.max()) if sizes.size else 0
            if not (max_size * r >= T or max_size * r_next > T):
                break
            extract_at(r)
            i += 1
        last = r

    unassigned = [int(x) for x in np.nonzero(active)[0]]
    if len(clusters) < k:
        warnings.append(f"padded_empty_clusters:{k - len(clusters)}")
        while len(clusters) < k:
            clusters.append([])
            cluster_landmarks.append([])
    return Clustering(
        n=n,
        clusters=clusters,
        unassigned=unassigned,
        cluster_landmarks=cluster_landmarks,
        warnings=warnings,
    )


def loop_stream_min_sum(
    table: LandmarkTable,
    k: int,
    threshold: float,
) -> tuple[Clustering, float]:
    """The pair-stream loop that `landmark._stream_min_sum` replaced, kept
    as its differential oracle: the same clustering and the same smallest
    fired product `max_size * r2`.

    It walks the full stream with a cursor, peeking the next active pair's
    distance r2 after each insertion; the test runs only where the peeked
    distance differs from the inserted one, and after an extraction at the
    refreshed peek.
    """
    n = table.n
    _validate_run(n, k, threshold)
    if table.pair_count == 0:
        raise ParameterError("landmark table has no pairs")
    T = float(threshold)

    l_arr = table.pair_landmark.tolist()
    p_arr = table.pair_point.tolist()
    d_arr = table.pair_dist.tolist()
    total = table.pair_count
    n_prime = table.n_prime
    pos_by_point = {pid: j for j, pid in enumerate(table.landmark_ids)}

    clustered = bytearray(n)
    alive = [True] * n_prime
    balls: list[set] = [set() for _ in range(n_prime)]
    sizes = [0] * n_prime
    max_size = 0

    clusters: list[list[int]] = []
    cluster_landmarks: list[list[int]] = []
    warnings: list[str] = []

    def emit_remaining() -> None:
        rest = [s for s in range(n) if not clustered[s]]
        rest_set = set(rest)
        for s in rest:
            clustered[s] = 1
        clusters.append(rest)
        cluster_landmarks.append(
            sorted(pid for pid in table.landmark_ids if pid in rest_set)
        )

    def extract(best: int) -> None:
        bstar = balls[best]
        merged: set = set()
        for j in range(n_prime):
            if alive[j] and sizes[j] and not balls[j].isdisjoint(bstar):
                merged |= balls[j]
        members = sorted(merged)
        lmarks = []
        for s in members:
            clustered[s] = 1
            pos = pos_by_point.get(s)
            if pos is not None:
                alive[pos] = False
                lmarks.append(s)
        clusters.append(members)
        cluster_landmarks.append(lmarks)
        for j in range(n_prime):
            if alive[j] and sizes[j]:
                balls[j] -= merged
                sizes[j] = len(balls[j])
            elif not alive[j]:
                balls[j] = set()
                sizes[j] = 0

    fired = INF
    c = 0
    i = 1
    while i <= k:
        # next active pair; skipped pairs stay dead, so the cursor never backs up
        while c < total and (clustered[p_arr[c]] or not alive[l_arr[c]]):
            c += 1
        if c == total or d_arr[c] == INF:
            emit_remaining()
            break
        li = l_arr[c]
        s = p_arr[c]
        r1 = d_arr[c]
        c += 1
        # peek the distance of the following active pair
        while c < total and (clustered[p_arr[c]] or not alive[l_arr[c]]):
            c += 1
        if c == total or d_arr[c] == INF:
            emit_remaining()
            break
        r2 = d_arr[c]
        balls[li].add(s)
        sizes[li] += 1
        if sizes[li] > max_size:
            max_size = sizes[li]
        if r1 == r2:
            continue  # equal-distance batch still open: insert before testing
        while i <= k and max_size * r2 > T:
            fired = min(fired, max_size * r2)
            best = -1
            best_size = 0
            for j in range(n_prime):
                if alive[j] and sizes[j] > best_size:
                    best_size = sizes[j]
                    best = j
            extract(best)
            max_size = max(
                (sizes[j] for j in range(n_prime) if alive[j]), default=0
            )
            i += 1
            # the extraction may have killed every pair at the peeked
            # distance; the next relevant radius is the nearest surviving
            # pair, so refresh r2 before re-testing (keeps the discrete
            # sweep aligned with the continuous one across dead gaps)
            while c < total and (clustered[p_arr[c]] or not alive[l_arr[c]]):
                c += 1
            if c == total or d_arr[c] == INF:
                break  # outer loop will report the remaining points
            r2 = d_arr[c]

    unassigned = [s for s in range(n) if not clustered[s]]
    if len(clusters) < k:
        warnings.append(f"padded_empty_clusters:{k - len(clusters)}")
        while len(clusters) < k:
            clusters.append([])
            cluster_landmarks.append([])
    return Clustering(
        n=n,
        clusters=clusters,
        unassigned=unassigned,
        cluster_landmarks=cluster_landmarks,
        warnings=warnings,
    ), fired


def _triple_violations(d: np.ndarray, i, j, k):
    """Yield orientations (a,b,c) of one triple with d(a,c) > d(a,b)+d(b,c)."""
    for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):
        lhs = d[a, c]
        rhs = d[a, b] + d[b, c]
        finite = np.isfinite(lhs) and np.isfinite(rhs)
        if finite and lhs > rhs + _TRIANGLE_REL_TOL * rhs:
            yield (int(a), int(b), int(c))


def sampled_check_metric(
    m: MetricMatrix, sample_triples: int = 10_000, seed: int = 0
) -> MetricReport:
    """`check_metric(m, mode="sampled")` one drawn triple at a time: the
    first violated orientation of each draw, reported at the first draw of
    its unordered triple."""
    d = m.values
    n = m.n
    mode = "sampled"
    violations: list[tuple[int, int, int]] = []
    if n < 3:
        return MetricReport(n, mode, 0, [])
    rng = np.random.default_rng(seed)
    checked = sample_triples
    seen = set()
    for _ in range(sample_triples):
        i, j, k = rng.choice(n, size=3, replace=False)
        for witness in _triple_violations(d, i, j, k):
            key = tuple(sorted(witness))
            if key not in seen:
                seen.add(key)
                violations.append(witness)
            break
    return MetricReport(n, mode, checked, violations)


def emit_pairs(m: MetricMatrix):
    """Inverse of ingestion: finite off-diagonal entries as bit-score triples."""
    for a in range(m.n):
        for b in range(a + 1, m.n):
            d = m.values[a, b]
            if np.isfinite(d) and d > 0:
                yield (a, b, 1.0 / d)


def brute_force_optimum(
    m: MetricMatrix,
    k: int,
    objective: str = "balanced_k_median",
    cap: int = DEFAULT_BRUTE_CAP,
) -> tuple[Clustering, ObjectiveValue]:
    """Exhaustive global optimum over all partitions into <= k blocks.

    Refuses instances larger than `cap` outright (Bell-number growth);
    ties resolve to the lexicographically first restricted-growth encoding.
    """
    n = m.n
    if n > cap:
        raise ParameterError(
            f"brute force refused: n={n} exceeds cap {cap} (raise cap explicitly)"
        )
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    score = OBJECTIVES[objective]
    best = None
    for labels in partitions_upto_k(n, k):
        c = Clustering.from_labels(labels, n=n, k=k)
        val = score(c, m)
        if best is None or val.value < best[1].value:
            best = (c, val)
    return best


def two_pass_verify_stability(
    m: MetricMatrix,
    target: Clustering,
    k: int,
    params: StabilityParams,
    objective: str = "balanced_k_median",
) -> StabilityVerdict:
    """The stability check as two full walks: the optimum first, then the
    first partition within (1 + alpha) of it and epsilon or more away from
    the target."""
    n = m.n
    _, best = brute_force_optimum(m, k, objective, cap=n)
    opt = best.value
    limit = (1.0 + params.alpha) * opt
    for labels in partitions_upto_k(n, k):
        c = Clustering.from_labels(labels, n=n, k=k)
        val = OBJECTIVES[objective](c, m).value
        if val <= limit:
            dist = clustering_distance(c, target)
            if not dist < params.epsilon:
                return StabilityVerdict(False, opt, c, val, dist)
    return StabilityVerdict(True, opt)
