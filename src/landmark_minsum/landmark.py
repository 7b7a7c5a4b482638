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


class LandmarkTable:
    """Landmark distance rows plus the globally sorted pair stream.

    Pairs are sorted by (distance, landmark position, point id); +inf
    distances land at the end.  Immutable once built; the Python-list view
    of the stream is cached for reuse across runs.
    """

    def __init__(self, landmark_ids, rows, pair_landmark, pair_point, pair_dist, n):
        self.landmark_ids = list(landmark_ids)
        self.rows = rows
        self.pair_landmark = pair_landmark
        self.pair_point = pair_point
        self.pair_dist = pair_dist
        self.n = n
        self._lists = None

    @property
    def n_prime(self) -> int:
        return len(self.landmark_ids)

    @property
    def pair_count(self) -> int:
        return len(self.pair_dist)

    def pair_lists(self):
        if self._lists is None:
            self._lists = (
                self.pair_landmark.tolist(),
                self.pair_point.tolist(),
                self.pair_dist.tolist(),
            )
        return self._lists


def build_landmark_table(source: DistanceSource, landmark_ids) -> LandmarkTable:
    """Query one row per landmark and sort all landmark-point pairs."""
    ids = [int(x) for x in landmark_ids]
    if not ids:
        raise ParameterError("need at least one landmark")
    if len(set(ids)) != len(ids):
        raise ParameterError("landmark ids must be distinct")
    rows = np.vstack([source.query_one_vs_all(l) for l in ids])
    if np.isnan(rows).any():
        raise DataError("distance source returned NaN")
    if (rows < 0).any():
        raise DataError("distance source returned a negative distance")
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


def cluster_min_sum(
    table: LandmarkTable,
    k: int,
    threshold: float,
    trace: list | None = None,
) -> Clustering:
    """Run the sorted-pair ball-growing sweep and emit up to k clusters.

    Pairs are consumed in ascending distance order, skipping any pair whose
    landmark or point is already clustered.  All pairs at one distance are
    inserted before the extraction test fires; the test compares the largest
    active ball against T / r2 where r2 is the next active pair distance.
    Extraction merges every active ball overlapping the largest one.  If the
    stream (or its finite part) is exhausted first, the remaining points
    become the final cluster.  Fewer than k non-empty clusters are padded
    with empty ones under a warning.
    """
    return _stream_min_sum(table, k, threshold, trace)[0]


def _stream_min_sum(
    table: LandmarkTable,
    k: int,
    threshold: float,
    trace: list | None = None,
) -> tuple[Clustering, float]:
    """`cluster_min_sum` plus the smallest product max_size * r2 that fired.

    The run depends on T only through its tests `max_size * r2 > T`, so
    every threshold in [T, smallest fired product) gives the same run; the
    product is +inf when no test fired.
    """
    n = table.n
    _validate_run(n, k, threshold)
    if table.pair_count == 0:
        raise ParameterError("landmark table has no pairs")
    T = float(threshold)

    l_arr, p_arr, d_arr = table.pair_lists()
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
        if trace is not None:
            trace.append(("test", r2, max_size))
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
            if trace is not None:
                trace.append(("test", r2, max_size))

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
