"""Reference implementations that the fast paths are checked against.

`full_stream` stable-sorts every landmark-point pair at once, the stream
`LandmarkTable.chunks` sorts lazily chunk by chunk.  `enumerate_thresholds`
lists every achievable ball-size x distance product and `candidate_sweep`
reruns the clustering once per product in ascending order, the threshold
walk `landmark_minsum.sweep` shortcuts by jumping between fired products.
`replay_sweep` is that jump walk with every run replayed from the start of
the stream, where `sweep` resumes each run from a state the run before it
saved.
`conceptual_cluster_min_sum` restates the pair stream sweep of
`cluster_min_sum` over continuous radii, and `loop_stream_min_sum` is the
cursor-and-peek loop the single-pass kernel replaced.
`exhaustive_check_metric` and `sampled_check_metric` are the per-triple
loops the triangle audit vectorises: each lists the violating triples the
audit counts, in the order in which it meets them, so the first is its
witness.  `emit_pairs` inverts `ingest_similarity`.
`partitions_upto_k` is the recursive generator of the restricted-growth
label rows that `partition_chunks` builds in numpy.  `brute_force_optimum`
and `two_pass_verify_stability` score every partition through the public
objectives; the second walks the partitions twice, once for the optimum and
once for the first counterexample, where `verify_stability` scores each
subset once, sums those scores per partition and replays the walk.
`two_call_classify_points` and `two_call_verify_structure` are the
classification and the structural check as two calls with a mutable report,
which `classify_points` does in one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import inf as INF

import numpy as np

from landmark_minsum import (
    Clustering,
    DataError,
    LandmarkTable,
    MetricMatrix,
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
from landmark_minsum.evaluation import _require_partition
from landmark_minsum.landmark import (
    _as_clustering,
    _stream_min_sum,
    _validate_run,
)
from landmark_minsum.metric import _TRIANGLE_REL_TOL

OBJECTIVES = {"min_sum": min_sum, "balanced_k_median": balanced_k_median}


def full_stream(table: LandmarkTable) -> tuple[np.ndarray, ...]:
    """The (landmark position, point, distance) columns of every pair,
    stable-sorted by distance in one pass and cut before the first +inf:
    the stream that `LandmarkTable.chunks()` sorts chunk by chunk."""
    d = table.rows.ravel()
    landmark = np.repeat(np.arange(table.n_prime), table.n)
    point = np.tile(np.arange(table.n), table.n_prime)
    # the flattened rows are already in (landmark, point) order, so a stable
    # sort on distance alone yields the (distance, landmark, point) order
    order = np.argsort(d, kind="stable")[: np.count_nonzero(d < INF)]
    return landmark[order], point[order], d[order]


def enumerate_thresholds(table: LandmarkTable, n: int | None = None) -> np.ndarray:
    """Every product of a ball size (1..n) and a positive finite
    landmark-point distance, ascending and without duplicates."""
    if n is None:
        n = table.n
    dists = full_stream(table)[2]
    dists = np.unique(dists[dists > 0])
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


def replay_sweep(table: LandmarkTable, k: int, stop_bound_b: int) -> SweepResult:
    """The jump walk of `sweep`, each run started from the first pair: from
    the smallest positive finite distance, run at each run's smallest fired
    product until a run clusters n - b points.  The chunks are converted to
    lists once and shared by the runs, as in `sweep`."""
    n = table.n
    rows = table.rows
    t = float(np.min(rows, where=(rows > 0) & (rows < INF), initial=INF))
    if t == INF:
        raise DataError("no positive finite landmark-point distances")
    if not 0 <= stop_bound_b < n:
        raise ParameterError(f"need 0 <= b < n, got b={stop_bound_b}, n={n}")
    needed = n - stop_bound_b
    coverage: list[tuple[float, int]] = []
    pending = table.chunks()
    converted: list[list[list]] = []

    def chunks():
        yield from converted
        for c in pending:
            converted.append(c[:])
            yield converted[-1]

    while True:
        clusters, fired = _stream_min_sum(table, k, t, chunks())
        cov = sum(map(len, clusters))
        coverage.append((t, cov))
        if cov >= needed:
            run = _as_clustering(table, k, clusters)
            return SweepResult(
                chosen_threshold=t,
                clustering=assign_remainder(run, table),
                runs_executed=len(coverage),
                points_clustered_at_stop=cov,
                coverage_per_candidate=coverage,
                warnings=list(run.warnings),
            )
        t = fired


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
    T = float(threshold)

    l_arr, p_arr, d_arr = (col.tolist() for col in full_stream(table))
    total = len(d_arr)
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
        if c == total:
            emit_remaining()
            break
        li = l_arr[c]
        s = p_arr[c]
        r1 = d_arr[c]
        c += 1
        # peek the distance of the following active pair
        while c < total and (clustered[p_arr[c]] or not alive[l_arr[c]]):
            c += 1
        if c == total:
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
            if c == total:
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


def exhaustive_check_metric(m: MetricMatrix) -> list[tuple[int, int, int]]:
    """The violating triples of `check_metric(m, mode="exhaustive")`, one
    triple at a time: each once, as (a, b, c) with a < c, ordered by the
    middle point b, then a, then c."""
    found = []
    for triple in itertools.combinations(range(m.n), 3):
        for a, b, c in _triple_violations(m.values, *triple):
            found.append((min(a, c), b, max(a, c)))
            break
    return sorted(found, key=lambda w: (w[1], w[0], w[2]))


def sampled_check_metric(
    m: MetricMatrix, sample_triples: int = 10_000, seed: int = 0
) -> list[tuple[int, int, int]]:
    """The violating triples of `check_metric(m, mode="sampled")`, one drawn
    triple at a time: the first violated orientation of each draw, listed
    at the first draw of its unordered triple."""
    d = m.values
    violations: list[tuple[int, int, int]] = []
    if m.n < 3:
        return violations
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(sample_triples):
        i, j, k = rng.choice(m.n, size=3, replace=False)
        for witness in _triple_violations(d, i, j, k):
            key = tuple(sorted(witness))
            if key not in seen:
                seen.add(key)
                violations.append(witness)
            break
    return violations


def emit_pairs(m: MetricMatrix):
    """Inverse of ingestion: finite off-diagonal entries as bit-score triples."""
    for a in range(m.n):
        for b in range(a + 1, m.n):
            d = m.values[a, b]
            if np.isfinite(d) and d > 0:
                yield (a, b, 1.0 / d)


def partitions_upto_k(n: int, k: int):
    """All partitions of range(n) into at most k non-empty blocks.

    Yields restricted-growth label tuples in lexicographic order (blocks
    numbered by first appearance), which doubles as the deterministic
    tie-break order of the exhaustive walks.
    """
    if n == 0:
        yield ()
        return
    a = [0] * n

    def rec(i: int, m: int):
        if i == n:
            yield tuple(a)
            return
        top = min(m + 1, k - 1)
        for v in range(top + 1):
            a[i] = v
            yield from rec(i + 1, max(m, v))

    yield from rec(1, 0)


def _partition(labels, n: int, k: int) -> Clustering:
    """The k clusters, in label order, of a label tuple over 0..k-1."""
    clusters: list[list[int]] = [[] for _ in range(k)]
    for p, lab in enumerate(labels):
        clusters[lab].append(p)
    return Clustering(n=n, clusters=clusters)


def brute_force_optimum(
    m: MetricMatrix,
    k: int,
    objective: str = "balanced_k_median",
    cap: int = 12,
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
        c = _partition(labels, n, k)
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
        c = _partition(labels, n, k)
        val = OBJECTIVES[objective](c, m).value
        if val <= limit:
            dist = clustering_distance(c, target)
            if not dist < params.epsilon:
                return StabilityVerdict(False, opt, c, val, dist)
    return StabilityVerdict(True, opt)


@dataclass
class TwoCallReport:
    """Good/bad point classification against a reference clustering."""

    n: int
    params: StabilityParams
    cluster_sizes: list[int]
    w: float  # average weight, equals the balanced objective / n
    weights: np.ndarray
    second_weights: np.ndarray
    good_sets: list[list[int]]
    bad_points: list[int]
    b_observed: int
    core_diameter_bounds: list[float | None]
    separation_numerator: float
    single_cluster: bool = False
    outcome: VerifyOutcome | None = None  # set by two_call_verify_structure

    @property
    def bad_point_budget(self) -> float:
        p = self.params
        return (2.0 + 120.0 / p.alpha) * p.epsilon * self.n

    def to_dict(self):
        # an unverified report prints null parts and no witnesses
        outcome = self.outcome or VerifyOutcome(None, None, None)
        return {
            "n": self.n,
            "params": self.params.to_dict(),
            "w": self.w,
            "b_observed": self.b_observed,
            "bad_point_budget": self.bad_point_budget,
            "good_set_sizes": [len(x) for x in self.good_sets],
            "cluster_sizes": self.cluster_sizes,
            "single_cluster": self.single_cluster,
            "structure": {
                "part1": outcome.part1,
                "part2": outcome.part2,
                "part3": outcome.part3,
            },
            "witnesses": outcome.witnesses,
        }


def two_call_classify_points(
    m: MetricMatrix, c_star: Clustering, params: StabilityParams
) -> TwoCallReport:
    """Split points into good sets and bad points.

    A point is good when its weight |C_i| d(x, c_i) is at most
    alpha w / (120 eps) and its second weight min_j |C_j| d(x, c_j) is at
    least alpha w / (4 eps).  For a single non-empty cluster the second
    weight is vacuous (+inf); the report flags that rather than inventing
    semantics.
    """
    _require_partition(c_star, m.n)
    n = m.n
    obj = balanced_k_median(c_star, m)
    medians = obj.medians
    sizes = [len(members) for members in c_star.clusters]
    nonempty = [i for i, s in enumerate(sizes) if s]
    w = obj.value / n
    labels = c_star.labels()

    weights = np.zeros(n)
    second = np.full(n, math.inf)
    for i in nonempty:
        med = medians[i]
        members = c_star.clusters[i]
        weights[members] = sizes[i] * m.values[med, members]
    for i in nonempty:
        col = sizes[i] * m.values[medians[i], :]
        mask = labels != i
        second[mask] = np.minimum(second[mask], col[mask])

    alpha, eps = params.alpha, params.epsilon
    good_cap = alpha * w / (120.0 * eps)
    second_floor = alpha * w / (4.0 * eps)
    good = (weights <= good_cap) & (second >= second_floor)

    good_sets = [
        [p for p in members if good[p]] for members in c_star.clusters
    ]
    bad = [int(p) for p in np.nonzero(~good)[0]]
    diam_bounds = [
        alpha * w / (60.0 * eps * s) if s else None for s in sizes
    ]
    return TwoCallReport(
        n=n,
        params=params,
        cluster_sizes=sizes,
        w=w,
        weights=weights,
        second_weights=second,
        good_sets=good_sets,
        bad_points=bad,
        b_observed=len(bad),
        core_diameter_bounds=diam_bounds,
        separation_numerator=alpha * w / (5.0 * eps),
        single_cluster=len(nonempty) <= 1,
    )


@dataclass
class VerifyOutcome:
    part1: bool
    part2: bool
    part3: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.part1 and self.part2 and self.part3


def two_call_verify_structure(report: TwoCallReport, m: MetricMatrix) -> VerifyOutcome:
    """Exhaustively check the three structural conditions on good sets.

    Part 1: good points of one cluster lie within the core diameter bound.
    Part 2: good points of different clusters are separated by more than
    the separation bound over the smaller cluster size.  Part 3: the bad
    point count fits its budget.  First violating witness recorded per part.
    """
    d = m.values
    witnesses: dict = {}
    part1 = True
    for i, members in enumerate(report.good_sets):
        if len(members) < 2:
            continue
        sub = d[np.ix_(members, members)]
        mx = float(sub.max())
        if mx > report.core_diameter_bounds[i]:
            part1 = False
            a, b = np.unravel_index(int(np.argmax(sub)), sub.shape)
            witnesses["part1"] = {
                "cluster": i,
                "pair": [members[int(a)], members[int(b)]],
                "distance": mx,
                "bound": report.core_diameter_bounds[i],
            }
            break
    part2 = True
    nonempty = [i for i, x in enumerate(report.good_sets) if x]
    for ii, i in enumerate(nonempty):
        if not part2:
            break
        for j in nonempty[ii + 1:]:
            cross = d[np.ix_(report.good_sets[i], report.good_sets[j])]
            mn = float(cross.min())
            bound = report.separation_numerator / min(
                report.cluster_sizes[i], report.cluster_sizes[j]
            )
            if not mn > bound:
                part2 = False
                a, b = np.unravel_index(int(np.argmin(cross)), cross.shape)
                witnesses["part2"] = {
                    "clusters": [i, j],
                    "pair": [
                        report.good_sets[i][int(a)],
                        report.good_sets[j][int(b)],
                    ],
                    "distance": mn,
                    "bound": bound,
                }
                break
    budget = report.bad_point_budget
    part3 = report.b_observed <= budget
    if not part3:
        witnesses["part3"] = {
            "b_observed": report.b_observed,
            "budget": budget,
        }
    report.outcome = VerifyOutcome(part1, part2, part3, witnesses)
    return report.outcome
