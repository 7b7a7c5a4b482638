"""Ball-growing clustering over landmark distance rows.

The production path (`cluster_min_sum`) consumes a globally sorted stream of
(landmark, point, distance) pairs, growing a ball around each landmark and
extracting a cluster whenever some ball's size times the next pair distance
exceeds the threshold T.  The stream is cut lazily, one chunk at a time, as
far as the run reads it, and only the parts of a chunk in which a test may
fire are sorted.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import compress, filterfalse
from operator import length_hint
from typing import NamedTuple

import numpy as np

from .errors import DataError, InvariantViolation, ParameterError, open_input
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return _record_from_dict(cls, d)


def _record_from_dict(cls, d):
    """The dataclass `cls` from its `asdict` dict: only a field with a default
    may be absent (else KeyError), and a JSON list becomes a tuple."""
    names = [f.name for f in fields(cls) if f.name in d or f.default is MISSING]
    return cls(**{x: tuple(d[x]) if type(d[x]) is list else d[x] for x in names})


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


def bad_point_budget(params: StabilityParams, n: int) -> float:
    """Bad points the structure allows: (2 + 120/alpha) * epsilon * n."""
    return (2.0 + 120.0 / params.alpha) * params.epsilon * n


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


# pairs in the stream's first chunk; each later chunk targets twice as many
_FIRST_CHUNK = 1 << 16
# pairs in the largest chunk that a single run sorts whole; it splits larger ones
_LEAF = 4096


class _Chunk:
    """One tie-complete part of the stream, as `LandmarkTable.chunks` cuts
    it or `split` halves it: `cut` holds the flat indices (landmark
    position * n + point) of its pairs, ascending, and their distances, so
    the pairs are in (landmark, point) order.  No distance is below `lo`,
    and no pair before the chunk in the stream is above it.

    As a sequence it is the chunk's (landmark position, point, distance)
    columns in stream order, as Python lists.  The first read sorts the
    chunk and drops `cut`, so the chunk is held in one form at a time.  A
    run that proves no test in the chunk can fire reads `cut` instead and
    never sorts it.
    """

    __slots__ = ("cut", "lo", "_n", "_columns")

    def __init__(self, idx: np.ndarray, dist: np.ndarray, n: int, lo: float):
        self.cut, self.lo, self._n, self._columns = (idx, dist), lo, n, None

    def __getitem__(self, key):
        if self._columns is None:
            self._sort()
        return self._columns[key]

    def _sort(self) -> None:
        # a stable sort on distance of pairs in (landmark, point) order
        # gives the stream's (distance, landmark, point) order; the cut is
        # dropped first, so only this frame holds it while it is replaced
        (idx, dist), self.cut = self.cut, None
        order = np.argsort(dist, kind="stable")
        dist = dist[order]
        idx = idx[order]
        del order
        landmark, point = np.divmod(idx, self._n)
        del idx
        self._columns = (landmark.tolist(), point.tolist(), dist.tolist())

    def split(self):
        """The chunk as two tie-complete chunks in stream order, cut at a
        distance v near the median: the lower one holds the pairs with
        d <= v, or d < v when that would be every pair.  None when every
        distance is equal.  Drops `cut`, as a sort does."""
        idx, dist = self.cut
        v = np.partition(dist, dist.size // 2)[dist.size // 2]
        low = dist <= v
        if low.all():
            np.less(dist, v, out=low)
            if not low.any():
                return None
        self.cut = None
        high = ~low
        return (_Chunk(idx[low], dist[low], self._n, self.lo),
                _Chunk(idx[high], dist[high], self._n, v))


@dataclass(frozen=True, eq=False)
class LandmarkTable:
    """The n' queried landmark distance rows: `rows[j, p]` is the distance
    from landmark `landmark_ids[j]` to point p.  Immutable once built.

    A run reads the finite (landmark position, point, distance) pairs in
    (distance, landmark position, point) order.  That stream is not stored:
    `chunks()` cuts it from `rows` one tie-complete chunk at a time, and a
    chunk is sorted only when a run reads its order, so a run that stops
    early, or proves a chunk or part of one quiet, sorts only what it needs.
    """

    landmark_ids: list[int]
    rows: np.ndarray
    n: int

    @property
    def n_prime(self) -> int:
        return len(self.landmark_ids)

    def chunks(self):
        """Yield the finite pair stream as consecutive chunks, each a
        sequence of its (landmark position, point, distance) columns, as
        Python lists, sorted on first read (`_Chunk`).

        Each chunk holds every pair with lo < d <= hi, where lo is the
        previous chunk's hi: no tie is split between two chunks, so the
        chunks concatenate to the whole stream, and a stable sort on
        distance of the pairs taken in (landmark, point) order gives each
        chunk's order.  The first chunk holds about `_FIRST_CHUNK` pairs and
        each later one about twice the one before, up to the last finite
        pair; hi is read off a strided sample of the distances, so no
        chunk copies or partitions all of them.
        """
        d = self.rows.ravel()
        step = max(1, _FIRST_CHUNK // 64)  # ~64 sample points per first chunk
        sample = np.sort(d[::step])
        lo = None
        taken = 0  # pairs in the chunks yielded so far
        size = _FIRST_CHUNK
        while True:
            j = (taken + size - 1) // step
            if lo is not None:
                j = max(j, int(np.searchsorted(sample, lo, side="right")))
            last = j >= sample.size or sample[j] == INF
            keep = d < INF if last else d <= sample[j]
            if lo is not None:
                keep &= d > lo
            # the frame outlives each yield: free the mask and the indices
            # before it, so only the chunk holds its pairs
            idx = np.flatnonzero(keep)
            del keep
            taken += idx.size
            if idx.size:
                chunk = _Chunk(idx, d[idx], self.n, 0.0 if lo is None else lo)
                del idx
                yield chunk
            if last:
                return
            lo = sample[j]
            size *= 2


def build_landmark_table(source: DistanceSource, landmark_ids) -> LandmarkTable:
    """Query one row per landmark; sorting the pairs is left to the runs
    (`LandmarkTable.chunks`)."""
    ids = [int(x) for x in landmark_ids]
    if not ids:
        raise ParameterError("need at least one landmark")
    if len(set(ids)) != len(ids):
        raise ParameterError("landmark ids must be distinct")
    rows = np.empty((len(ids), source.n))
    for row, l in zip(rows, ids):
        row[:] = source.query_one_vs_all(l)
    rows.flags.writeable = False  # every run sorts its stream from them
    return LandmarkTable(ids, rows, source.n)


def _non_negative_int(x) -> int:
    # json reads integers as int; bool is an int subclass but not an id
    if type(x) is not int or x < 0:
        raise ValueError(f"{x!r} is not a non-negative integer")
    return x


def _string_list(x) -> list[str]:
    if type(x) is not list or any(type(s) is not str for s in x):
        raise ValueError(f"{x!r} is not a list of strings")
    return x


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
    def read_json(cls, path) -> "Clustering":
        """Read a `to_dict` JSON file; a malformed one raises DataError.

        `n` and every point id must be a non-negative JSON integer: `1.7`,
        `"1"` or `true` is not read as a point.  `warnings` must be a list
        of strings.
        """
        try:
            with open_input(path) as fh:
                d = json.load(fh)
            return cls(
                n=_non_negative_int(d["n"]),
                clusters=[[_non_negative_int(x) for x in c] for c in d["clusters"]],
                unassigned=[_non_negative_int(x) for x in d.get("unassigned", [])],
                cluster_landmarks=(
                    [[_non_negative_int(x) for x in c] for c in d["cluster_landmarks"]]
                    if "cluster_landmarks" in d
                    else None
                ),
                warnings=_string_list(d.get("warnings", [])),
            )
        except KeyError as exc:
            raise DataError(f"{path}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad clustering JSON: {exc}") from None


def _validate_run(n: int, k: int, threshold: float) -> None:
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")


def cluster_min_sum(table: LandmarkTable, k: int, threshold: float) -> Clustering:
    """Run the sorted-pair ball-growing sweep and emit up to k clusters.

    Pairs are consumed in ascending distance order.  A pair is live while
    neither its point nor its landmark is clustered, and other pairs are
    skipped.  Before a live pair is inserted into its landmark's ball, the
    test `max_size * r > T` runs at its distance r if that differs from
    the last inserted pair's, or if an extraction happened since that
    insertion; `max_size` is the largest active ball.  While the test holds
    and fewer than k clusters exist, the largest ball (lowest landmark
    position on ties) fires: every active ball overlapping it merges into
    one extracted cluster.  If an extraction kills the current pair, the
    re-test moves on to the next live pair.  If the finite part of the
    stream runs out before k clusters exist, the remaining points become
    one more cluster.  Fewer than k clusters are padded with empty ones
    under a warning.

    The run pulls the stream's chunks from `table.chunks()` as it reaches
    them, so it cuts only the chunks up to the pair where it stops.
    Between two extractions ball sizes only grow and distances never fall,
    so no test in a chunk fires if the largest ball the chunk can grow,
    times its largest live distance, is at most T; such a chunk goes in
    unsorted.  A larger chunk that fails this bound is split in two by
    distance and each half is tried in turn, so the run sorts only small
    pieces around its extractions.
    """
    clusters, _ = _stream_min_sum(table, k, threshold, table.chunks())
    return _as_clustering(table, k, clusters)


class _RunState(NamedTuple):
    """A run's state just before the test of the pair at `offset` in chunk
    `chunk` of the stream: what `_stream_min_sum` needs to go on from there.
    `clustered` is the run's one liveness set, `sizes` the ball sizes (the
    largest is recomputed on resume), `clusters` the clusters extracted so
    far and `fired` the smallest product fired so far.
    """

    chunk: int
    offset: int
    clustered: set[int]
    balls: list[set[int]]
    sizes: list[int]
    clusters: list[set[int]]
    fired: float
    last: float | None


def _stream_min_sum(
    table: LandmarkTable,
    k: int,
    threshold: float,
    chunks,
    start: _RunState | None = None,
    saves: list[_RunState] | None = None,
) -> tuple[list, float]:
    """One run of `cluster_min_sum`: its bare clusters and the smallest
    product max_size * r that fired.

    The clusters are the extracted ones in extraction order, as sets,
    then, if the finite stream ran out before k extractions, the remaining
    points as one last cluster; so their total size is the run's coverage.
    Its one liveness set is the clustered points: a pair is live while
    neither its point nor its landmark's point is clustered.
    `chunks` yields the stream's chunks in order, each as its (landmark
    position, point, distance) columns: `table.chunks()`, whose `_Chunk`s
    the run may take unsorted or split, or those columns as Python lists,
    sorted whole once by a caller making many runs.  The next chunk is
    pulled only once the run has read every pair of the one before.  The
    run depends on T only through its tests `max_size * r > T`, so every
    threshold in [T, smallest fired product) gives the same run; the
    product is +inf when no test fired.

    Quiet chunks go in unsorted.  Before a `_Chunk` is sorted, the run
    counts its live pairs per landmark.  If the largest of sizes + counts,
    times the chunk's largest live distance, is at most T, no test in the
    chunk fires: the run inserts its live pairs as cut, grouped by
    landmark and as one shared int object per point, and sets `last` to
    that distance, the last one's in stream order.  The run skips the count
    when the test at the current largest ball and the chunk's lower edge
    `lo` fires, since the bound cannot hold then.  A chunk never extracts
    where it goes in unsorted, so saved states are those of the
    pair-by-pair run.

    A `_Chunk` of more than `_LEAF` pairs that fails the bound is split by
    distance near its median (`_Chunk.split`), and the run reads the two
    halves as chunks of their own, the lower one first.  So it sorts only
    pieces of at most `_LEAF` pairs, or of one distance, and takes the
    quiet pieces between its extractions unsorted.  A saved offset then
    points into a piece, not into the chunk.

    With `saves` a list, the run appends its state before each record-low
    extraction, one whose product is below every product fired before it
    in the run; the first extraction at the run's smallest fired product
    is the last of them.  A run started from such a state, at a threshold
    equal to its extraction's product, is the run at that threshold: every
    earlier test has the same outcome there, and this one does not fire.
    `chunks` then yields the stream from the state's chunk on.  Both need
    the chunks as a caller's lists; the run takes the state over and
    changes it.
    """
    n = table.n
    _validate_run(n, k, threshold)
    T = float(threshold)

    lid = table.landmark_ids
    if start is None:
        start = _RunState(0, 0, set(), [set() for _ in lid], [0] * len(lid), [],
                          INF, None)
    # last: distance of the last inserted pair; None after an extraction
    first, offset, clustered, balls, sizes, clusters, fired, last = start
    max_size = max(sizes)
    dead = None  # the clustered points as a mask, built when bulk work needs it
    ints = None  # the points as Python ints, one object per point for all balls
    for ci, c in enumerate(chunks, first):
        pos, offset = offset, 0
        pieces = [c]  # a stack: the lower half of a split is read first
        while pieces:
            c = pieces.pop()
            if type(c) is _Chunk and c.cut and not pos:
                if max_size * c.lo <= T:
                    # the chunk as cut: its live pairs come grouped by landmark
                    land, point = np.divmod(c.cut[0], n)
                    live_dist = c.cut[1]
                    if clustered:
                        if dead is None:
                            dead, dead_landmark = _dead_mask(n, clustered, lid)
                        live = np.flatnonzero(~(dead[point] | dead_landmark[land]))
                        land, point = land[live], point[live]
                        live_dist = live_dist[live]
                        del live
                    if not land.size:
                        continue  # every pair is dead: nothing to test or insert
                    top = live_dist.max()
                    counts = np.bincount(land, minlength=len(lid))
                    del land, live_dist
                    if (counts + sizes).max() * top <= T:
                        if ints is None:
                            ints = np.arange(n).astype(object)
                        point = ints[point]  # frees the int column before the sets grow
                        sizes = _insert(balls, point, counts)
                        max_size = max(sizes)
                        last = top
                        continue
                    del point  # before the chunk is split or sorted
                if c.cut[0].size > _LEAF:
                    halves = c.split()
                    if halves:
                        pieces += reversed(halves)
                        continue
            cols = [iter(col) for col in c[:3]]
            if pos:
                for col in cols:
                    col.__setstate__(pos)
            for li, s, r in zip(*cols):
                # a pair is live until its point or its landmark's point is
                # clustered; when an extraction kills the current pair the
                # re-test moves on to the next live pair
                while not (s in clustered or lid[li] in clustered):
                    if r != last and max_size * r > T:
                        product = max_size * r
                        if product < fired:
                            if saves is not None:
                                # zip has read this pair from every column
                                saves.append(_RunState(
                                    ci, len(c[0]) - length_hint(cols[0]) - 1,
                                    set(clustered), list(map(set.copy, balls)),
                                    sizes[:], clusters[:], fired, last,
                                ))
                            fired = product
                        # the largest ball, lowest position on ties, and every
                        # ball overlapping it
                        bstar = balls[sizes.index(max_size)]
                        merged = set()
                        for ball in filterfalse(bstar.isdisjoint, balls):
                            merged |= ball
                        clusters.append(merged)
                        if len(clusters) == k:
                            return clusters, fired  # nothing more can be extracted
                        clustered |= merged
                        for j in compress(range(len(lid)),
                                          map(merged.__contains__, lid)):
                            balls[j].clear()
                        for ball in filterfalse(merged.isdisjoint, balls):
                            ball -= merged
                        sizes = list(map(len, balls))
                        max_size = max(sizes)
                        dead = None
                        last = None
                        continue
                    balls[li].add(s)
                    sizes[li] += 1
                    if sizes[li] > max_size:
                        max_size = sizes[li]
                    last = r
                    break

    # the finite stream ran out first: the points left form one cluster
    clusters.append([s for s in range(n) if s not in clustered])
    return clusters, fired


def _dead_mask(n: int, clustered: set[int], lid: list[int]):
    """The clustered points as a length-n mask, and that mask at the
    landmarks' points."""
    dead = np.zeros(n, dtype=bool)
    dead[np.fromiter(clustered, np.intp, len(clustered))] = True
    return dead, dead[lid]


def _insert(balls: list[set[int]], points: np.ndarray, counts) -> list[int]:
    """Add the first counts[0] of `points` to ball 0, the next counts[1] to
    ball 1 and so on, and return the balls' sizes.  `points` holds Python
    ints, one object per point shared by all balls."""
    for ball, group in zip(balls, np.split(points, np.cumsum(counts)[:-1])):
        ball.update(group.tolist())
    return list(map(len, balls))


def _as_clustering(table: LandmarkTable, k: int, clusters: list) -> Clustering:
    """The `Clustering` of one run's bare clusters from `_stream_min_sum`:
    each cluster is sorted, points in no cluster are unassigned, each
    cluster's landmarks are its landmark points in ascending order, and
    fewer than k clusters are padded with empty ones under a
    `padded_empty_clusters:N` warning."""
    clusters = [sorted(members) for members in clusters]
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
