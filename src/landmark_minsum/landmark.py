"""Ball-growing clustering over landmark distance rows.

The production path (`cluster_min_sum`) consumes a globally sorted stream of
(landmark, point, distance) pairs, growing a ball around each landmark and
extracting a cluster whenever some ball's size times the next pair distance
exceeds the threshold T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvariantViolation, ParameterError
from .metric import DistanceSource

INF = math.inf


def snapped_ceil(x: float, rel: float = 1e-9) -> int:
    """Ceiling that forgives float dust just above an integer boundary."""
    nearest = round(x)
    if abs(x - nearest) <= rel * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


@dataclass(frozen=True)
class StabilityParams:
    """Approximation-stability parameters (alpha, epsilon, delta)."""

    alpha: float
    epsilon: float
    delta: float = 0.05

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ParameterError(f"delta must be in (0,1), got {self.delta}")

    def to_dict(self):
        return {"alpha": self.alpha, "epsilon": self.epsilon, "delta": self.delta}

    @classmethod
    def from_dict(cls, d):
        return cls(alpha=d["alpha"], epsilon=d["epsilon"], delta=d["delta"])


def landmark_count_for(params: StabilityParams, k: int, n: int | None = None) -> int:
    """Landmark budget ln(k/delta) / ((3 + 120/alpha) * epsilon), rounded up.

    Clamped below at 1 and, when n is given, above at n.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    raw = math.log(k / params.delta) / ((3.0 + 120.0 / params.alpha) * params.epsilon)
    count = max(1, snapped_ceil(raw))
    if n is not None:
        count = min(count, n)
    return count


def threshold_from_opt(alpha: float, epsilon: float, opt: float, n: int) -> float:
    """Ideal threshold alpha * OPT / (40 * epsilon * n) for a known optimum."""
    if n < 1:
        raise ParameterError("n must be positive")
    if not opt >= 0:
        raise ParameterError("OPT must be non-negative")
    return alpha * opt / (40.0 * epsilon * n)


def sample_landmarks(n: int, n_prime: int, seed: int) -> list[int]:
    """Draw n_prime distinct points uniformly, deterministic under seed."""
    if not 1 <= n_prime <= n:
        raise ParameterError(f"need 1 <= n_prime <= n, got n_prime={n_prime}, n={n}")
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.choice(n, size=n_prime, replace=False)]


@dataclass(frozen=True, eq=False)
class LandmarkTable:
    """Landmark distance rows plus the globally sorted pair stream.

    Pairs are sorted by (distance, landmark position, point id); +inf
    distances land at the end.  Immutable once built; a run reads the
    stream's finite part, the only part it consumes, from `finite_stream()`.
    """

    landmark_ids: list[int]
    rows: np.ndarray
    pair_landmark: np.ndarray
    pair_point: np.ndarray
    pair_dist: np.ndarray
    n: int

    @property
    def n_prime(self) -> int:
        return len(self.landmark_ids)

    @property
    def pair_count(self) -> int:
        return len(self.pair_dist)

    def finite_stream(self) -> tuple[memoryview, ...]:
        """The (landmark, point, distance) columns cut before the first +inf
        distance, as zero-copy views."""
        finite = int(np.searchsorted(self.pair_dist, INF))
        cols = (self.pair_landmark, self.pair_point, self.pair_dist)
        return tuple(memoryview(col[:finite]) for col in cols)


def build_landmark_table(source: DistanceSource, landmark_ids) -> LandmarkTable:
    """Query one row per landmark and sort all landmark-point pairs."""
    ids = [int(x) for x in landmark_ids]
    if not ids:
        raise ParameterError("need at least one landmark")
    if len(set(ids)) != len(ids):
        raise ParameterError("landmark ids must be distinct")
    rows = np.vstack([source.query_one_vs_all(l) for l in ids])
    n = source.n
    n_prime = len(ids)
    l_flat = np.repeat(np.arange(n_prime, dtype=np.int32), n)
    p_flat = np.tile(np.arange(n, dtype=np.int32), n_prime)
    d_flat = rows.ravel()
    # the flattened rows are already in (landmark, point) order, so a stable
    # sort on distance alone yields the (distance, landmark, point) order
    order = np.argsort(d_flat, kind="stable")
    return LandmarkTable(
        ids, rows, l_flat[order], p_flat[order], d_flat[order], n
    )


@dataclass
class Clustering:
    """A (possibly partial) partition of points 0..n-1 into ordered clusters.

    `unassigned` holds points not yet in any cluster; `cluster_landmarks`
    records the landmark points contained in each cluster when produced by
    the clustering sweep.
    """

    n: int
    clusters: list[list[int]]
    unassigned: list[int] = field(default_factory=list)
    cluster_landmarks: list[list[int]] | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.clusters)

    def labels(self) -> np.ndarray:
        """Per-point cluster index; -1 for unassigned."""
        lab = np.full(self.n, -1, dtype=np.int64)
        for idx, members in enumerate(self.clusters):
            lab[members] = idx
        return lab

    def points_clustered(self) -> int:
        return sum(len(c) for c in self.clusters)

    def is_partition(self) -> bool:
        return not self.unassigned and self.points_clustered() == self.n

    def validate(self) -> None:
        seen = np.zeros(self.n, dtype=bool)
        for members in self.clusters:
            for p in members:
                if not 0 <= p < self.n:
                    raise DataError(f"point {p} outside [0,{self.n})")
                if seen[p]:
                    raise DataError(f"point {p} appears in two clusters")
                seen[p] = True
        for p in self.unassigned:
            if seen[p]:
                raise DataError(f"point {p} both clustered and unassigned")
            seen[p] = True
        if not seen.all():
            missing = int(np.nonzero(~seen)[0][0])
            raise DataError(f"point {missing} missing from the clustering")

    @classmethod
    def from_labels(cls, labels, n: int | None = None, k: int | None = None):
        labels = list(labels)
        if n is None:
            n = len(labels)
        if len(labels) != n:
            raise DataError(f"expected {n} labels, got {len(labels)}")
        order = sorted(set(labels), key=lambda v: (str(type(v)), v))
        index = {lab: i for i, lab in enumerate(order)}
        clusters = [[] for _ in range(max(len(order), k or 0))]
        for pid, lab in enumerate(labels):
            clusters[index[lab]].append(pid)
        return cls(n=n, clusters=[sorted(c) for c in clusters])

    def to_dict(self):
        out = {
            "n": self.n,
            "clusters": [list(c) for c in self.clusters],
            "unassigned": list(self.unassigned),
            "warnings": list(self.warnings),
        }
        if self.cluster_landmarks is not None:
            out["cluster_landmarks"] = [list(c) for c in self.cluster_landmarks]
        return out

    @classmethod
    def from_dict(cls, d):
        return cls(
            n=int(d["n"]),
            clusters=[[int(x) for x in c] for c in d["clusters"]],
            unassigned=[int(x) for x in d.get("unassigned", [])],
            cluster_landmarks=(
                [[int(x) for x in c] for c in d["cluster_landmarks"]]
                if "cluster_landmarks" in d
                else None
            ),
            warnings=list(d.get("warnings", [])),
        )


def _validate_run(n: int, k: int, threshold: float) -> None:
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")


def cluster_min_sum(table: LandmarkTable, k: int, threshold: float) -> Clustering:
    """Run the sorted-pair ball-growing sweep and emit up to k clusters.

    Pairs are consumed in ascending distance order.  A pair is dead once its
    point or its landmark is clustered, and dead pairs are skipped.  Before a
    live pair is inserted into its landmark's ball, the test
    `max_size * r > T` runs at its distance r if that distance differs from
    the last inserted pair's, or if an extraction happened since that
    insertion; `max_size` is the largest active ball.  While the test holds
    and fewer than k clusters exist, the largest ball (lowest landmark
    position on ties) fires: every active ball overlapping it merges into
    one extracted cluster.  If an extraction kills the current pair, the
    re-test moves on to the next live pair.  If the finite part of the
    stream runs out before k clusters exist, the remaining points become
    one more cluster.  Fewer than k clusters are padded with empty ones
    under a warning.
    """
    clusters, _ = _stream_min_sum(table, k, threshold, table.finite_stream())
    return _as_clustering(table, k, clusters)


def _stream_min_sum(
    table: LandmarkTable,
    k: int,
    threshold: float,
    stream,
) -> tuple[list[list[int]], float]:
    """One run of `cluster_min_sum`: its bare clusters and the smallest
    product max_size * r that fired.

    The clusters are the extracted ones in extraction order, each sorted,
    then, if the finite stream ran out before k extractions, the remaining
    points as one last cluster; so their total size is the run's coverage.
    `stream` is `table.finite_stream()`, read in place, or those columns as
    Python lists, converted once by a caller making many runs.  The run
    depends on T only through its tests `max_size * r > T`, so every
    threshold in [T, smallest fired product) gives the same run; the
    product is +inf when no test fired.
    """
    n = table.n
    _validate_run(n, k, threshold)
    T = float(threshold)

    lid = table.landmark_ids
    clustered = bytearray(n)
    # a landmark is alive while its own point is unclustered, and the ball
    # of a dead landmark is empty
    balls: list[set] = [set() for _ in lid]
    sizes = [0] * len(lid)
    max_size = 0
    clusters: list[list[int]] = []

    fired = INF
    last = None  # distance of the last inserted pair; None after an extraction
    for li, s, r in zip(*stream):
        # a pair is live until its point or its landmark is clustered; when
        # an extraction kills the current pair the re-test moves on to the
        # next live pair
        while not (clustered[s] or clustered[lid[li]]):
            if r != last and max_size * r > T and len(clusters) < k:
                fired = min(fired, max_size * r)
                bstar = balls[sizes.index(max_size)]
                merged: set = set()
                for ball in balls:
                    if not ball.isdisjoint(bstar):
                        merged |= ball
                members = sorted(merged)
                for q in members:
                    clustered[q] = 1
                clusters.append(members)
                for j, ball in enumerate(balls):
                    if clustered[lid[j]]:
                        ball.clear()
                    else:
                        ball -= merged
                    sizes[j] = len(ball)
                max_size = max(sizes)
                last = None
                continue
            balls[li].add(s)
            sizes[li] += 1
            if sizes[li] > max_size:
                max_size = sizes[li]
            last = r
            break
        if len(clusters) == k:
            break  # nothing more can be extracted

    if len(clusters) < k:
        # the finite stream ran out first: the points left form one cluster
        clusters.append([s for s in range(n) if not clustered[s]])
    return clusters, fired


def _as_clustering(table: LandmarkTable, k: int, clusters: list) -> Clustering:
    """The `Clustering` of one run's bare clusters from `_stream_min_sum`:
    points in no cluster are unassigned, each cluster's landmarks are its
    landmark points in ascending order, and fewer than k clusters are padded
    with empty ones under a `padded_empty_clusters:N` warning."""
    unclustered = np.ones(table.n, dtype=bool)
    for members in clusters:
        unclustered[members] = False
    is_landmark = set(table.landmark_ids)
    landmarks = [[q for q in members if q in is_landmark] for members in clusters]
    pad = k - len(clusters)
    return Clustering(
        n=table.n,
        clusters=clusters + [[] for _ in range(pad)],
        unassigned=np.flatnonzero(unclustered).tolist(),
        cluster_landmarks=landmarks + [[] for _ in range(pad)],
        warnings=[f"padded_empty_clusters:{pad}"] if pad else [],
    )


def assign_remainder(c: Clustering, table: LandmarkTable) -> Clustering:
    """Attach each unassigned point to the cluster of its nearest clustered
    landmark (ties broken by lowest landmark position)."""
    if not c.unassigned:
        return c
    labels = c.labels()
    positions = []
    cluster_of = []
    for j, pid in enumerate(table.landmark_ids):
        lab = labels[pid]
        if lab >= 0:
            positions.append(j)
            cluster_of.append(int(lab))
    if not positions:
        raise InvariantViolation("no clustered landmark to assign remainder to")
    unassigned = list(c.unassigned)
    dists = table.rows[np.asarray(positions)][:, np.asarray(unassigned)]
    nearest = np.argmin(dists, axis=0)  # first minimum = lowest position
    warnings = list(c.warnings)
    if np.isinf(dists[nearest, np.arange(len(unassigned))]).any():
        warnings.append("remainder_assigned_at_infinite_distance")
    clusters = [list(members) for members in c.clusters]
    for idx, p in zip(nearest, unassigned):
        clusters[cluster_of[int(idx)]].append(int(p))
    return Clustering(
        n=c.n,
        clusters=[sorted(m) for m in clusters],
        unassigned=[],
        cluster_landmarks=c.cluster_landmarks,
        warnings=warnings,
    )
