"""Objectives, clustering distance, and structure and stability checks.

The min-sum objective sums intra-cluster distances over unordered pairs;
the balanced variant weights each cluster's best-median distance sum by the
cluster size.  With a metric, the two satisfy psi/2 <= phi <= psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .landmark import Clustering, StabilityParams, sample_landmarks
from .metric import DistanceSource, MetricMatrix

DEFAULT_BRUTE_CAP = 12


@dataclass
class ObjectiveValue:
    kind: str  # "min_sum" | "balanced_k_median"
    value: float
    medians: list[int | None] | None = None


def _require_partition(c: Clustering, n: int) -> None:
    if c.n != n:
        raise DataError(f"clustering over {c.n} points, expected {n}")
    c.validate()
    if not c.is_partition():
        raise DataError("clustering has unassigned points")


def _min_sum_of(clusters: list[list[int]], d: np.ndarray) -> ObjectiveValue:
    total = 0.0
    for members in clusters:
        if len(members) > 1:
            total += float(d[np.ix_(members, members)].sum()) / 2.0
    return ObjectiveValue("min_sum", total)


def _balanced_k_median_of(
    clusters: list[list[int]], d: np.ndarray
) -> ObjectiveValue:
    total = 0.0
    medians: list[int | None] = []
    for members in clusters:
        if not members:
            medians.append(None)
            continue
        sums = d[np.ix_(members, members)].sum(axis=0)
        best = int(np.argmin(sums))  # first minimum = lowest point index
        medians.append(members[best])
        total += len(members) * float(sums[best])
    return ObjectiveValue("balanced_k_median", total, medians)


_OBJECTIVES = {"min_sum": _min_sum_of, "balanced_k_median": _balanced_k_median_of}


def min_sum(c: Clustering, m: MetricMatrix) -> ObjectiveValue:
    """Sum of intra-cluster distances over unordered pairs.

    Infinite intra-cluster distances flag the value as infinite rather
    than raising.
    """
    _require_partition(c, m.n)
    return _min_sum_of(c.clusters, m.values)


def balanced_k_median(c: Clustering, m: MetricMatrix) -> ObjectiveValue:
    """Per cluster: size times the distance sum to the best in-cluster median."""
    _require_partition(c, m.n)
    return _balanced_k_median_of(c.clusters, m.values)


def _labels_distance(lab1: np.ndarray, lab2: np.ndarray, k: int, n: int) -> float:
    # imported here so that importing the package (and the CLI) skips scipy
    from scipy.optimize import linear_sum_assignment

    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (lab1, lab2), 1)
    rows, cols = linear_sum_assignment(-table)
    agreed = int(table[rows, cols].sum())
    return (n - agreed) / n


def clustering_distance(c1: Clustering, c2: Clustering) -> float:
    """Fraction of points misclassified under the best cluster bijection.

    Unequal cluster counts are padded with empty clusters, which is what the
    square contingency table below encodes for free.
    """
    _require_partition(c1, c1.n)
    _require_partition(c2, c1.n)
    k = max(c1.k, c2.k, 1)
    return _labels_distance(c1.labels(), c2.labels(), k, c1.n)


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


def _members(labels, k: int) -> list[list[int]]:
    """Member lists, in label order, of a label tuple over 0..k-1."""
    clusters: list[list[int]] = [[] for _ in range(k)]
    for p, lab in enumerate(labels):
        clusters[lab].append(p)
    return clusters


@dataclass
class StructureReport:
    """Good/bad point classification against a reference clustering."""

    n: int
    params: StabilityParams
    cluster_sizes: list[int]
    medians: list[int | None]
    w: float  # average weight, equals the balanced objective / n
    weights: np.ndarray
    second_weights: np.ndarray
    good_sets: list[list[int]]
    bad_points: list[int]
    b_observed: int
    core_diameter_bounds: list[float | None]
    good_weight_cap: float
    second_weight_floor: float
    separation_numerator: float
    single_cluster: bool = False
    outcome: VerifyOutcome | None = None  # set by verify_structure

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


def classify_points(
    m: MetricMatrix, c_star: Clustering, params: StabilityParams
) -> StructureReport:
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
    return StructureReport(
        n=n,
        params=params,
        cluster_sizes=sizes,
        medians=medians,
        w=w,
        weights=weights,
        second_weights=second,
        good_sets=good_sets,
        bad_points=bad,
        b_observed=len(bad),
        core_diameter_bounds=diam_bounds,
        good_weight_cap=good_cap,
        second_weight_floor=second_floor,
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


def verify_structure(report: StructureReport, m: MetricMatrix) -> VerifyOutcome:
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


@dataclass
class StabilityVerdict:
    holds: bool
    optimum: float
    counterexample: Clustering | None = None
    counterexample_value: float | None = None
    counterexample_distance: float | None = None

    def __bool__(self):
        return self.holds


def verify_stability(
    m: MetricMatrix,
    target: Clustering,
    k: int,
    params: StabilityParams,
    objective: str = "balanced_k_median",
    cap: int = DEFAULT_BRUTE_CAP,
) -> StabilityVerdict:
    """Exhaustively test the approximation-stability implication.

    Every clustering within factor (1 + alpha) of the optimum must be
    within distance epsilon of the target; returns the first counterexample
    otherwise.  Refuses instances above the brute-force cap.
    """
    n = m.n
    if n > cap:
        raise ParameterError(
            f"stability check refused: n={n} exceeds cap {cap}"
        )
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if objective not in _OBJECTIVES:
        raise ParameterError(f"unknown objective {objective!r}")
    _require_partition(target, m.n)
    score = _OBJECTIVES[objective]
    d = m.values
    # one score per partition (8 bytes each), then a replay of the walk
    # beside them: the first partition within the limit and too far from
    # the target is the counterexample
    scores = np.fromiter(
        (score(_members(labels, k), d).value
         for labels in partitions_upto_k(n, k)),
        dtype=np.float64,
    )
    opt = float(scores.min())
    within = scores <= (1.0 + params.alpha) * opt
    kk = max(k, target.k)
    target_labels = target.labels()
    for i, labels in enumerate(partitions_upto_k(n, k)):
        if within[i]:
            dist = _labels_distance(
                np.asarray(labels, dtype=np.int64), target_labels, kk, n
            )
            if not dist < params.epsilon:
                return StabilityVerdict(
                    holds=False,
                    optimum=opt,
                    counterexample=Clustering(n=n, clusters=_members(labels, k)),
                    counterexample_value=float(scores[i]),
                    counterexample_distance=dist,
                )
    return StabilityVerdict(holds=True, optimum=opt)


def embed_kmeans_baseline(
    source: DistanceSource,
    d_landmarks: int,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
) -> Clustering:
    """Embed points by their distances to d sampled landmarks, then Lloyd.

    Uses exactly d_landmarks one-versus-all queries.  Centers start as a
    uniform sample of distinct points; iteration stops at an assignment
    fixpoint or after max_iters.  Points with infinite coordinates are
    assigned by their finite coordinates only and sit out centroid updates.
    """
    n = source.n
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    landmarks = sample_landmarks(n, d_landmarks, seed)
    rows = np.vstack([source.query_one_vs_all(l) for l in landmarks])
    emb = rows.T.copy()  # point i -> distances to the d landmarks

    warnings = []
    finite = np.isfinite(emb)
    clean = finite.all(axis=1)
    if not clean.all():
        warnings.append(f"points_with_infinite_coordinates:{int((~clean).sum())}")
    emb_z = np.where(finite, emb, 0.0)

    rng = np.random.default_rng([seed, 1])
    # prefer fully-finite points as initial centers when there are enough
    pool = np.nonzero(clean)[0] if clean.sum() >= k else np.arange(n)
    init = rng.choice(pool, size=k, replace=False)
    centers = emb_z[init].astype(np.float64)

    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        dist2 = np.empty((n, k))
        for j in range(k):
            diff = emb_z - centers[j]
            dist2[:, j] = np.where(finite, diff * diff, 0.0).sum(axis=1)
        new_labels = np.argmin(dist2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = clean & (labels == j)
            if members.any():
                centers[j] = emb_z[members].mean(axis=0)
    return Clustering(n=n, clusters=_members(labels, k), warnings=warnings)
